"""CLI: exit codes, report schema, determinism, file inputs."""

import errno
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import boxprod as bp
from boxprod.cli import run
from boxprod.graphs import write_json
from boxprod.sdp import sa_to_dict


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_isoperimetry_exit_zero(capsys):
    code, out = run_capture(["isoperimetry", "--builtin", "k2", "--k", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["results"]["phi_product"] == 0.5
    assert report["version"] == bp.__version__


def test_kkl_dictator_max_influence(capsys):
    code, out = run_capture(
        ["kkl", "--builtin", "k2", "--k", "3", "--fn", "dictator"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["max_influence"] == pytest.approx(2.0, abs=1e-9)
    assert report["results"]["alpha_label"] == "certified"


def test_kkl_constant_function_reports_error(tmp_path, capsys):
    fn_path = tmp_path / "const.json"
    fn_path.write_text(json.dumps({"k": 2, "values": [1.0, 1.0, 1.0, 1.0]}))
    code, out = run_capture(
        ["kkl", "--builtin", "k2", "--k", "2", "--function", str(fn_path)],
        capsys)
    assert code == 2
    report = json.loads(out)
    assert report["results"]["status"] == "error"
    assert not report["passed"]


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def test_friedgut_constant_function_reports_strict_json(tmp_path, capsys):
    # a constant function keeps no coordinate, so its threshold is infinite
    fn_path = tmp_path / "const.json"
    fn_path.write_text(json.dumps({"k": 2, "values": [1.0, 1.0, 1.0, 1.0]}))
    code, out = run_capture(
        ["friedgut", "--builtin", "k2", "--k", "2", "--function", str(fn_path)], capsys)
    assert code == 0
    report = json.loads(out, parse_constant=_not_json)
    assert report["results"]["junta"] == []
    assert report["results"]["threshold"] is None


def test_friedgut_dictator(capsys):
    code, out = run_capture(
        ["friedgut", "--builtin", "k2", "--k", "4", "--fn", "dictator",
         "--epsilon", "0.1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["junta"] == [0]
    assert report["results"]["distance"] == 0.0


def test_friedgut_dictator_on_k3_keeps_one_coordinate(capsys):
    # the variances off coordinate 0 are exactly 0 on the table; summed
    # over the squared coefficients with a_j != 0 they would be about
    # 1.7e-32, rounding in the eigenbasis, far above the threshold
    code, out = run_capture(
        ["friedgut", "--builtin", "kq:3", "--k", "5", "--fn", "dictator",
         "--epsilon", "0.1"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["coordinate_variances"][1:] == [0.0] * 4
    assert results["junta"] == [0]
    assert 0.0 < results["threshold"] < 1e-37


def test_sdp_lift_k2(capsys):
    code, out = run_capture(
        ["sdp-lift", "--builtin", "k2", "--k", "2", "--t-level", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["objective_lifted"] == pytest.approx(1.0, abs=1e-9)
    assert report["results"]["triangle_violations_lifted"] == 0


def test_examples_writes_inputs(tmp_path, capsys):
    out_dir = tmp_path / "samples"
    code, _ = run_capture(["examples", "--out", str(out_dir), "--k", "2"], capsys)
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "k2.graph.json" in names
    assert "k2.sdp.json" in names
    assert "k2.sa.json" in names
    assert "k2.lasserre.json" in names


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    write_json(bp.graph_to_dict(bp.path_graph(3)), path)
    code, out = run_capture(
        ["isoperimetry", "--graph", str(path), "--k", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["phi_base"] == pytest.approx(2 / 3, abs=1e-12)


def test_usage_error_exit_one(capsys):
    assert run(["kkl", "--builtin", "k2", "--fn", "nope"]) == 1
    assert run(["nonsense"]) == 1


@pytest.mark.parametrize("command", [None, "isoperimetry", "kkl", "friedgut",
                                     "sdp-lift", "examples"])
def test_help_returns_zero(command, capsys):
    prog = "analyze" if command is None else f"analyze {command}"
    assert run([command, "-h"] if command else ["-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: {prog} [-h]")
    assert captured.err == ""


def test_runs_share_one_parser(monkeypatch, capsys):
    from boxprod import cli

    used = []
    parse = cli._Parser.parse_args
    monkeypatch.setattr(cli._Parser, "parse_args",
                        lambda self, *args: used.append(self) or parse(self, *args))
    for argv in (["sdp-lift", "--builtin", "k2", "--k", "2"],
                 ["kkl", "--builtin", "k2", "--k", "3", "--fn", "dictator"]):
        assert run(argv) == 0
    assert len(used) == 2 and used[0] is used[1]


def test_shared_parser_keeps_help_and_usage_errors(capsys):
    argv = ["sdp-lift", "--builtin", "k2", "--k", "2"]
    assert run(argv) == 0
    report = capsys.readouterr().out
    assert run(["sdp-lift", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: analyze sdp-lift [-h]")
    assert run(["sdp-lift", "--builtin", "k2", "--fn", "dictator"]) == 1
    assert "unrecognized arguments: --fn" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr().out == report


def test_io_error_exit_one(capsys):
    assert run(["isoperimetry", "--graph", "/does/not/exist.json"]) == 1


@pytest.mark.parametrize("argv", [
    ["isoperimetry", "--builtin", "k2", "--k", "1", "--epsilon", "0.5"],
    ["kkl", "--builtin", "k2", "--k", "2", "--t-level", "2"],
    ["friedgut", "--builtin", "k2", "--k", "2", "--samples", "10"],
    ["sdp-lift", "--builtin", "k2", "--k", "2", "--epsilon", "0.1"],
    ["examples", "--seed", "1"],
], ids=["isoperimetry", "kkl", "friedgut", "sdp-lift", "examples"])
def test_flag_the_command_does_not_read_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples would write here
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert list(tmp_path.iterdir()) == []


GRAPH_CONFIG = ["builtin", "command", "graph", "k", "max_dense", "seed"]


@pytest.mark.parametrize("argv, keys", [
    (["isoperimetry", "--builtin", "k2", "--k", "1"], GRAPH_CONFIG),
    (["kkl", "--k", "2", "--fn", "dictator"], GRAPH_CONFIG + ["fn", "function"]),
    (["friedgut", "--k", "2", "--fn", "dictator"],
     GRAPH_CONFIG + ["epsilon", "fn", "function"]),
    (["sdp-lift", "--k", "1"],
     GRAPH_CONFIG + ["lasserre_file", "sa_file", "sdp_file", "t_level"]),
    (["examples", "--k", "1"], ["command", "k", "t_level"]),
], ids=["isoperimetry", "kkl", "friedgut", "sdp-lift", "examples"])
def test_config_echoes_the_flags_the_command_takes(argv, keys, tmp_path, capsys):
    # --out is left out: it says where the report (or the example files) go
    out = tmp_path / "out"
    code, stdout = run_capture(argv + ["--out", str(out)], capsys)
    assert code == 0
    report = json.loads(stdout if argv[0] == "examples" else out.read_text())
    assert sorted(report["config"]) == sorted(keys)


@pytest.mark.parametrize("where, code", [("missing/report.json", errno.ENOENT),
                                         (".", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exit_one(where, code, tmp_path, capsys):
    path = tmp_path / where
    argv = ["isoperimetry", "--builtin", "k2", "--k", "1", "--out", str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


def test_determinism_byte_identical(tmp_path):
    for argv in (
        ["isoperimetry", "--builtin", "kq:3", "--k", "2", "--seed", "5"],
        ["kkl", "--builtin", "k2", "--k", "3", "--fn", "random", "--seed", "5"],
        ["friedgut", "--builtin", "k2", "--k", "4", "--fn", "dictator",
         "--seed", "5"],
        ["sdp-lift", "--builtin", "k2", "--k", "2", "--seed", "5"],
    ):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def test_scan_plateau_exit_one_without_traceback(capsys):
    # K17's proper subsets all tie, so the exact conductance scan refuses
    code = run(["friedgut", "--builtin", "kq:17", "--k", "1", "--fn", "dictator"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "plateau" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_weight_exit_one_without_traceback(tmp_path, capsys, literal):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, %s]]}' % literal)
    code = run(["isoperimetry", "--graph", str(path), "--k", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"non-finite weight {float(literal)} on edge (1, 2)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, data, kind", [
    ("--sa-file", {"t": 2, "dists": [{"T": [0], "probs": {"+": 0.5, "-": 0.5}}]},
     "SA"),
    ("--lasserre-file", {"t": 2, "sets": [{"S": [], "vec": [1.0]},
                                          {"S": [0], "vec": [1.0]}]},
     "Lasserre"),
    ("--sa-file", {"t": -1, "dists": []}, "SA"),
    ("--lasserre-file", {"t": -1, "sets": []}, "Lasserre"),
])
def test_incomplete_hierarchy_file_exit_one(tmp_path, capsys, flag, data, kind):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    code = run(["sdp-lift", "--builtin", "k2", "--k", "2", "--t-level", "2",
                flag, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {kind} file must hold every subset")
    assert "Traceback" not in err


def test_sa_key_without_a_sign_per_vertex_exit_one(tmp_path, capsys):
    path = tmp_path / "sa.json"
    path.write_text(json.dumps({"t": 2, "dists": [
        {"T": [0], "probs": {"+": 0.5, "-": 0.5}},
        {"T": [1], "probs": {"+": 0.5, "-": 0.5}},
        {"T": [0, 1], "probs": {"+": 1.0}}]}))
    code = run(["sdp-lift", "--builtin", "k2", "--k", "2", "--sa-file", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: SA assignment key '+'")
    assert "Traceback" not in err


def _break_max_influence(monkeypatch):
    from boxprod import cli, influence

    sweep = influence.corollary_sweep
    # three equal influences whose float mean rounds one unit above them
    monkeypatch.setattr(influence, "influence_profile",
                        lambda f: np.full(f.k, 1e8 + 2.0 ** -25))
    # the sweep checks the component energies against f's own energy
    monkeypatch.setattr(cli, "corollary_sweep",
                        lambda f, ts, alpha, energy: sweep(f, ts, alpha))


def _break_junta_distance(monkeypatch):
    from boxprod import influence

    # a truncation that comes back as the constant -1 rounds to -1, at
    # squared distance 2 from the dictator
    monkeypatch.setattr(influence, "_truncate_to_junta",
                        lambda f, junta: bp.from_values(
                            f.product, np.full(f.product.num_vertices, -1.0)))


def _break_junta_size(monkeypatch):
    from boxprod import cli, influence

    extract = influence.friedgut_extract
    # alpha = 1e6 keeps all 4 coordinates and shrinks the size bound below log 4
    monkeypatch.setattr(cli, "friedgut_extract",
                        lambda f, epsilon, alpha, phi: extract(f, epsilon, 1e6, phi))


def _break_lifted_objective(monkeypatch):
    from boxprod import sdp

    objective = sdp.SdpSolution.objective
    # doubled on the 4 vertices of K2^2 only, so the base optimum still checks
    monkeypatch.setattr(sdp.SdpSolution, "objective",
                        lambda self, g: objective(self, g) * (2.0 if g.n == 4 else 1.0))


@pytest.mark.parametrize("check, argv, breaks", [
    ("max_influence_ge_mean", ["kkl", "--builtin", "k2", "--k", "3"], _break_max_influence),
    ("distance_le_epsilon", ["friedgut", "--builtin", "k2", "--k", "4", "--fn", "dictator"],
     _break_junta_distance),
    ("junta_size_bound", ["friedgut", "--builtin", "k2", "--k", "4"], _break_junta_size),
    ("lifted_objective_is_base_over_k", ["sdp-lift", "--builtin", "k2", "--k", "2"],
     _break_lifted_objective),
], ids=["kkl-max-influence", "friedgut-distance", "friedgut-size", "sdp-lift-objective"])
def test_broken_condition_is_a_failed_check_in_the_report(check, argv, breaks, tmp_path,
                                                         monkeypatch, capsys):
    # the library returns what it computed; the report's check names the failure
    breaks(monkeypatch)
    out = tmp_path / "report.json"
    code = run(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "")
    report = json.loads(out.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == [check] and not report["passed"]


def test_library_assertion_exit_two_without_traceback(tmp_path, capsys):
    # spread 1, but Gram entries near 1e8 miss the absolute 1e-9 tolerance
    path = tmp_path / "sdp.json"
    path.write_text(json.dumps(
        {"d": 1, "vectors": [[1e4 + 2 ** -0.5], [1e4 - 2 ** -0.5]]}))
    code = run(["sdp-lift", "--builtin", "k2", "--k", "2", "--sdp-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "check failed: lifted Gram is not the coordinate mean\n"


_K2_SA = [{"T": [0], "probs": {"+": 0.5, "-": 0.5}},
          {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]


@pytest.mark.parametrize("flag, doc, message", [
    ("--graph", [], "malformed document in {path}: TypeError"),
    ("--graph", {"n": 2, "edges": [[0, 1, None]]},
     "malformed document in {path}: TypeError"),
    ("--function", {"values": [1.0, -1.0, -1.0, 1.0]},
     "malformed document in {path}: KeyError: 'k'"),
    ("--function", {"k": 3, "values": [1.0, -1.0, -1.0, 1.0]},
     "function has k=3, product has k=2"),
    ("--sa-file", [], "malformed document in {path}: TypeError"),
    ("--sa-file", {"t": 1, "dists": [{"T": [0], "probs": {"+": float("nan"), "-": 0.5}},
                                     _K2_SA[1]]},
     "table for (0,) sums to nan"),
    ("--sa-file", {"t": 1, "dists": [{"T": [0], "probs": {"+": 1.5, "-": -0.5}},
                                     _K2_SA[1]]},
     "negative probability in table for (0,)"),
    ("--lasserre-file", {"t": 1, "sets": [{"S": [], "vec": [1.0]},
                                          {"S": [0], "vec": [float("nan")]},
                                          {"S": [1], "vec": [1.0]}]},
     "Lasserre file must give every set a finite vector"),
    ("--lasserre-file", {"t": 1, "sets": [{"S": [], "vec": [[1.0]]},
                                          {"S": [0], "vec": [[1.0]]},
                                          {"S": [1], "vec": [[1.0]]}]},
     "Lasserre file must give every set a finite vector"),
    # finite entries whose dots overflow: inf - inf is NaN, which a max drops
    *[("--lasserre-file", {"t": 1, "sets": [{"S": [], "vec": [1.0, 0.0]},
                                            {"S": [0], "vec": [0.0, 1.0]},
                                            {"S": [1], "vec": [big, -big]}]},
       "Lasserre vector of S = [1] has a squared norm that overflows")
      for big in (1e155, 1e200)],
    ("--sdp-file", {"d": 1, "vectors": [[1.0]]},
     "SDP file has 1 vectors for the 2 vertices of the base graph"),
], ids=["graph-list", "null-weight", "function-no-k", "function-wrong-k", "sa-list",
        "sa-nan", "sa-negative", "lasserre-nan", "lasserre-2d", "lasserre-1e155", "lasserre-1e200",
        "sdp-one-vector"])
def test_malformed_input_file_exit_one(tmp_path, capsys, flag, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if flag == "--graph":
        argv = ["isoperimetry", "--k", "1"]
    else:
        argv = ["kkl" if flag == "--function" else "sdp-lift", "--builtin", "k2",
                "--k", "2"]
    code = run(argv + [flag, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize("argv, message", [
    (["isoperimetry", "--builtin", "k2", "--k", "0"], "power k must be >= 1"),
    (["sdp-lift", "--builtin", "k2", "--k", "2", "--t-level", "0"],
     "--t-level must be >= 1, not 0"),
    (["sdp-lift", "--builtin", "k2", "--k", "2", "--t-level", "-3"],
     "--t-level must be >= 1, not -3"),
    (["examples", "--t-level", "0"], "--t-level must be >= 1, not 0"),
    (["examples", "--k", "40"],
     "n^k = 2^40 exceeds the dense cap 4194304; use the Monte-Carlo estimators instead"),
    (["examples", "--k", "-1"], "power k must be >= 1"),
    (["isoperimetry", "--graph", "g.json", "--builtin", "k2"],
     "give either --graph or --builtin, not both"),
], ids=["isoperimetry-k0", "sdp-lift-t0", "sdp-lift-t-3", "examples-t0",
        "examples-k40", "examples-k-1", "graph-and-builtin"])
def test_out_of_range_argument_exit_one(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # examples would write here
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_huge_power_meets_the_dense_cap_at_once(capsys):
    # 3^100000 has 47,713 digits: neither built nor printed
    started = time.perf_counter()
    code = run(["kkl", "--builtin", "kq:3", "--k", "100000"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: n^k = 3^100000 exceeds the dense cap 4194304; "
                            "use the Monte-Carlo estimators instead\n")
    assert elapsed < 1.0


_NUMPY_REFUSAL = ("Unable to allocate 8.00 TiB for an array with shape "
                  "(1099511627776,) and data type float64")


@pytest.mark.parametrize("exc, message", [
    (MemoryError(_NUMPY_REFUSAL), _NUMPY_REFUSAL),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_memory_error_exit_one_without_traceback(exc, message, monkeypatch, capsys):
    from boxprod import cli

    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "product_scaling_report", refuse)
    code = run(["isoperimetry", "--builtin", "k2", "--k", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_lift_over_the_set_cap_refused_at_once(capsys):
    # 43,744 product subsets of 1..3 of the 64 vertices of K2^6: the SA
    # lift is refused before it builds a table
    started = time.perf_counter()
    code = run(["sdp-lift", "--builtin", "k2", "--k", "6", "--t-level", "3"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: too many product subsets at this level\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    # 2^20 - 1 SA tables on the 20 base vertices
    ["sdp-lift", "--builtin", "cycle:20", "--k", "1", "--t-level", "20"],
    # the SA file is level 1; the 2^18 Lasserre sets are generated
    ["sdp-lift", "--builtin", "cycle:18", "--k", "1", "--t-level", "18",
     "--sa-file", "cycle18.sa.json"],
])
def test_generated_family_over_the_set_cap_refused_at_once(argv, tmp_path, monkeypatch,
                                                           capsys):
    # a base family over the cap lifts to one at least as large, so it is
    # refused before it is built
    monkeypatch.chdir(tmp_path)
    dist = bp.uniform_cut_distribution(18, range(9))
    write_json(sa_to_dict(bp.sa_from_distribution(dist, 18, 1)), "cycle18.sa.json")
    started = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: too many product subsets at this level\n"
    assert elapsed < 1.0


def test_huge_graph_file_refused_at_once(tmp_path, capsys):
    # the components are found over the touched vertices only
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 10 ** 6, "edges": [[0, 1, 1.0]]}))
    started = time.perf_counter()
    code = run(["isoperimetry", "--graph", str(path), "--k", "1"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: graph is disconnected; components: [[0, 1]] "
                            "plus 999998 isolated vertices\n")
    assert elapsed < 1.0


GOLDEN = {
    "isoperimetry": ["isoperimetry", "--builtin", "k2", "--k", "2", "--seed", "3"],
    # K3^3 is past the scan but within the descent: no phi_product, no chain_product
    "isoperimetry-kq3-k3": ["isoperimetry", "--builtin", "kq:3", "--k", "3", "--seed",
                            "3"],
    # C5^4 is past the descent: no phi_product, no alpha_product
    "isoperimetry-cycle5-k4": ["isoperimetry", "--builtin", "cycle:5", "--k", "4",
                               "--seed", "3"],
    # the necklace base is past the scan: no phi and no chain at all
    "isoperimetry-necklace8-k2": ["isoperimetry", "--builtin", "necklace:8", "--k", "2",
                                  "--seed", "3"],
    # at k = 1 the product shares the base's scan and descent
    "isoperimetry-path3-k1": ["isoperimetry", "--builtin", "path:3", "--k", "1", "--seed",
                              "3"],
    "kkl": ["kkl", "--builtin", "k2", "--k", "3", "--fn", "random", "--seed", "3"],
    "friedgut": ["friedgut", "--builtin", "k2", "--k", "4", "--fn", "dictator",
                 "--seed", "3"],
    # K3 has no certified constant, so alpha is the descent's estimate
    "friedgut-estimated": ["friedgut", "--builtin", "kq:3", "--k", "3", "--fn",
                           "random", "--seed", "3"],
    "sdp-lift": ["sdp-lift", "--builtin", "k2", "--k", "2", "--seed", "3"],
    # a cut mixture whose lifted SA tables and vectors show rounding gaps
    "sdp-lift-files": ["sdp-lift", "--builtin", "cycle:5", "--k", "2", "--seed", "3",
                       "--sdp-file", "cycle5.sdp.json", "--sa-file", "cycle5.sa.json",
                       "--lasserre-file", "cycle5.lasserre.json"],
    # at k = 3 the lifted SA gaps also depend on the order of the p / k sums
    "sdp-lift-k3-files": ["sdp-lift", "--builtin", "k2", "--k", "3", "--seed", "3",
                          "--sa-file", "k2.sa.json", "--lasserre-file",
                          "k2.lasserre.json"],
    # set vectors perturbed by about 1e-12: a delta gap that is not zero but
    # stays under check_abs
    "sdp-lift-perturbed": ["sdp-lift", "--builtin", "cycle:5", "--k", "2", "--seed",
                           "3", "--lasserre-file", "cycle5-perturbed.lasserre.json"],
    # level 3: a lifted marginal sums up to three terms, so its value depends
    # on the order of the sums (sa_marginal_gap 1.1e-16)
    "sdp-lift-level3-files": ["sdp-lift", "--builtin", "kq:3", "--k", "2", "--t-level",
                              "3", "--seed", "3", "--sa-file", "kq3-level3.sa.json",
                              "--lasserre-file", "kq3-level3.lasserre.json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_saved_bytes(name, monkeypatch, capsys):
    # tests/data holds reports saved before refactors; the input files are
    # named relative to it because the report records their paths
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    code = run(GOLDEN[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (data / f"{name}.report.json").read_text()


@pytest.mark.parametrize("name", ["sdp-lift-files", "sdp-lift-level3-files"])
def test_report_does_not_depend_on_the_order_of_sa_keys(name, tmp_path, monkeypatch,
                                                        capsys):
    # a JSON object is unordered: the sign patterns of each table and the
    # tables themselves, listed in another order, give the same report bytes
    data = Path(__file__).parent / "data"
    argv = GOLDEN[name]
    sa_file = argv[argv.index("--sa-file") + 1]
    for flag in ("--sdp-file", "--lasserre-file"):
        if flag in argv:
            (tmp_path / argv[argv.index(flag) + 1]).write_bytes(
                (data / argv[argv.index(flag) + 1]).read_bytes())
    sa = json.loads((data / sa_file).read_text())
    monkeypatch.chdir(data)
    assert run(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dists = [{"T": entry["T"], "probs": dict(
            [list(entry["probs"].items())[i] for i in rng.permutation(len(entry["probs"]))])}
            for entry in sa["dists"]]
        shuffled = {"t": sa["t"], "dists": [dists[i] for i in rng.permutation(len(dists))]}
        (tmp_path / sa_file).write_text(json.dumps(shuffled))
        assert run(argv) == 0
        assert capsys.readouterr().out == want, seed


def test_isoperimetry_runs_each_descent_and_scan_once(monkeypatch, capsys):
    from boxprod import cli, isoperimetry

    calls = {"log_sobolev_estimate": [], "conductance_bruteforce": []}
    for name in calls:
        def counted(graph, *args, _fn=getattr(isoperimetry, name), _name=name, **kw):
            calls[_name].append(graph.n)
            return _fn(graph, *args, **kw)
        for module in (isoperimetry, cli):
            monkeypatch.setattr(module, name, counted)
    code, out = run_capture(["isoperimetry", "--builtin", "kq:3", "--k", "2"], capsys)
    monkeypatch.undo()
    assert code == 0
    # once on the base (3 vertices) and once on the product (9)
    assert {name: sorted(ns) for name, ns in calls.items()} == {
        "log_sobolev_estimate": [3, 9], "conductance_bruteforce": [3, 9]}
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    base = bp.complete_graph(3)
    for name, graph in (("chain_base", base),
                        ("chain_product", bp.cartesian_power(base, 2).to_weighted_graph())):
        fresh = {"alpha_hat": bp.log_sobolev_estimate(graph, seed=0).alpha_hat,
                 "lambda1": graph.basis.lambda1,
                 "phi": bp.conductance_bruteforce(graph)[0]}
        assert details[name] == fresh


@pytest.mark.parametrize("argv", [
    ["sdp-lift", "--builtin", "k2", "--k", "4"],
    ["sdp-lift", "--builtin", "kq:3", "--k", "2", "--t-level", "3"],
    ["sdp-lift", "--builtin", "cycle:5", "--k", "2", "--sdp-file", "cycle5.sdp.json",
     "--sa-file", "cycle5.sa.json", "--lasserre-file", "cycle5.lasserre.json"],
])
def test_sdp_lift_materializes_the_product_once(argv, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).parent / "data")
    built = []
    original = bp.ProductGraph.to_weighted_graph

    def counted(self, *args, **kwargs):
        built.append(self.k)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(bp.ProductGraph, "to_weighted_graph", counted)
    code = run(argv)
    capsys.readouterr()
    assert code == 0
    assert len(built) == 1


def test_sdp_lift_reads_the_values_lift_vectors_checked(monkeypatch, capsys):
    # basic_sdp_opt checks its witness, lift_vectors its input and its lift;
    # the report evaluates nothing again
    from boxprod import sdp

    calls = {"objective": 0, "spread": 0, "to_weighted_graph": 0}
    for cls, name in ((sdp.SdpSolution, "objective"), (sdp.SdpSolution, "spread"),
                      (bp.ProductGraph, "to_weighted_graph")):
        def counted(self, *args, _fn=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    code = run(["sdp-lift", "--builtin", "cycle:5", "--k", "2"])
    capsys.readouterr()
    monkeypatch.undo()
    assert code == 0
    assert calls == {"objective": 3, "spread": 3, "to_weighted_graph": 1}


def test_tolerances_are_the_constants_the_checks_read(monkeypatch, capsys):
    from boxprod import cli, graphs, influence, sdp

    for module in (sdp, influence):
        assert module.CHECK_SLACK is graphs.CHECK_SLACK
    assert cli.TOLERANCES["check_abs"] == graphs.CHECK_SLACK
    # the chain checks read their relative slack from the stated tolerances:
    # below -1 no alpha_hat passes alpha <= lambda_1 * (1 + rel) + 1e-12
    monkeypatch.setitem(cli.TOLERANCES, "alpha_chain_rel", -1.5)
    code, out = run_capture(["isoperimetry", "--builtin", "k2", "--k", "2"], capsys)
    report = json.loads(out)
    assert code == 2
    assert report["tolerances"]["alpha_chain_rel"] == -1.5
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "phi_ratio_is_1_over_k": True, "lambda1_ratio_is_1_over_k": True,
        "alpha_ratio_near_1_over_k": True, "chain_base": False, "chain_product": False}


@pytest.mark.parametrize("k", [11, 16, 17])
def test_sdp_lift_over_the_vertex_cap_refused_before_building(k, monkeypatch, capsys):
    # the lift's 1,024-vertex cap is met before any product edge is built
    def unbuilt(self):
        raise AssertionError("product edges built")

    monkeypatch.setattr(bp.ProductGraph, "dense_edges", unbuilt)
    started = time.perf_counter()
    code = run(["sdp-lift", "--builtin", "k2", "--k", str(k)])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: refusing to materialize n^k = 2^{k} vertices "
                            "(limit 1024)\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("k", [11, 16])
def test_sdp_lift_checks_the_sdp_file_before_the_vertex_cap(k, monkeypatch, capsys):
    # the SDP file is checked before the product is materialized
    monkeypatch.chdir(Path(__file__).parent / "data")
    code = run(["sdp-lift", "--builtin", "k2", "--k", str(k),
                "--sdp-file", "cycle5.sdp.json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: SDP file has 5 vectors for the 2 vertices "
                            "of the base graph\n")


def _count_solves(monkeypatch):
    """Graph sizes of the eigendecompose calls, under every name a boxprod
    module binds it by."""
    import sys

    from boxprod import spectral

    original = spectral.eigendecompose
    solved = []

    def counted(graph):
        solved.append(graph.n)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "boxprod"
                and getattr(module, "eigendecompose", None) is original):
            monkeypatch.setattr(module, "eigendecompose", counted)
    return solved


@pytest.mark.parametrize("argv, solves", [
    (["isoperimetry", "--builtin", "kq:3", "--k", "2"], [3, 9]),
    (["kkl", "--builtin", "kq:3", "--k", "2"], [3]),
    (["friedgut", "--builtin", "kq:3", "--k", "3"], [3]),
], ids=["isoperimetry", "kkl", "friedgut"])
def test_one_eigen_solve_per_graph(argv, solves, monkeypatch, capsys):
    # the descent, lambda_1, the chain and the transforms of a graph share
    # its one basis; the product materialized by isoperimetry has its own
    solved = _count_solves(monkeypatch)
    code = run(argv)
    capsys.readouterr()
    assert code == 0
    assert sorted(solved) == solves


def _base_cap_message(n, cap=1 << 22):
    return (f"error: a base graph of {n} vertices exceeds the dense cap {cap}: "
            "its Laplacian holds n^2 entries\n")


@pytest.mark.parametrize("argv, n", [
    (["isoperimetry", "--builtin", "cycle:20000"], 20000),
    (["sdp-lift", "--builtin", "path:20000", "--k", "1"], 20000),
    (["kkl", "--builtin", "kq:3000", "--k", "1"], 3000),
    (["isoperimetry", "--builtin", "kq:100000", "--k", "1"], 100000),
    (["friedgut", "--builtin", "necklace:20", "--k", "1"], 52486),
], ids=["isoperimetry-cycle", "sdp-lift-path", "kkl-kq", "isoperimetry-kq",
        "friedgut-necklace"])
def test_base_over_the_dense_cap_refused_before_building(argv, n, capsys):
    # the n x n Laplacian is counted against --max-dense before any edge
    # is built
    started = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", _base_cap_message(n))
    assert elapsed < 1.0


def test_graph_file_over_the_dense_cap_refused_after_loading(tmp_path, monkeypatch,
                                                             capsys):
    def unbuilt(self):
        raise AssertionError("Laplacian built")

    monkeypatch.setattr(bp.WeightedGraph, "laplacian", property(unbuilt))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2049,
                                "edges": [[v, v + 1, 1.0] for v in range(2048)]}))
    code = run(["isoperimetry", "--graph", str(path), "--k", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", _base_cap_message(2049))


def test_max_dense_caps_the_base(capsys):
    argv = ["isoperimetry", "--builtin", "kq:3", "--k", "1"]
    code = run(argv + ["--max-dense", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", _base_cap_message(3, 8))
    assert run_capture(argv + ["--max-dense", "9"], capsys)[0] == 0


def test_max_dense_caps_the_isoperimetry_product(monkeypatch, capsys):
    # K3^3 has 27 > 20 vertices: nothing of it is materialized, as for a
    # product beyond LS_MAX_VERTICES
    def unbuilt(*args, **kwargs):
        raise AssertionError("materialized a product over the dense cap")

    monkeypatch.setattr(bp.ProductGraph, "to_weighted_graph", unbuilt)
    code, out = run_capture(["isoperimetry", "--builtin", "kq:3", "--k", "3",
                             "--max-dense", "20"], capsys)
    results = json.loads(out)["results"]
    assert code == 0
    assert results["partial"] is True
    assert results["phi_product"] is None and results["alpha_product"] is None


@pytest.mark.parametrize("argv, message", [
    (["kkl", "--builtin", "k2", "--k", "1"], "influence report needs k >= 2"),
    (["kkl", "--builtin", "k2", "--k", "2", "--function", "half.json"],
     "influence report requires a {-1,+1}-valued function"),
    (["friedgut", "--builtin", "k2", "--k", "2", "--function", "half.json"],
     "junta extraction requires a {-1,+1}-valued function"),
    # P3 has no certified constant: each is refused before the descent
    (["kkl", "--builtin", "path:3", "--k", "1"], "influence report needs k >= 2"),
    (["kkl", "--builtin", "path:3", "--k", "2", "--function", "half9.json"],
     "influence report requires a {-1,+1}-valued function"),
    (["friedgut", "--builtin", "path:3", "--k", "2", "--function", "half9.json"],
     "junta extraction requires a {-1,+1}-valued function"),
    (["friedgut", "--builtin", "path:3", "--k", "2", "--epsilon", "2"],
     "epsilon must lie in (0, 1)"),
    # a base beyond the conductance scan is refused before the descent too
    (["friedgut", "--builtin", "cycle:30", "--k", "2", "--fn", "dictator"],
     "30 vertices is beyond exhaustive enumeration; "
     "use conductance_functional on candidate cuts instead"),
    (["friedgut", "--builtin", "necklace:9", "--k", "2", "--fn", "dictator"],
     "58 vertices is beyond exhaustive enumeration; "
     "use conductance_functional on candidate cuts instead"),
], ids=["kkl-k1", "kkl-non-boolean", "friedgut-non-boolean", "kkl-k1-path",
        "kkl-non-boolean-path", "friedgut-non-boolean-path", "friedgut-epsilon-path",
        "friedgut-cycle30", "friedgut-necklace9"])
def test_influence_input_errors_exit_one(argv, message, tmp_path, monkeypatch, capsys):
    # only a constant function is a failed influence_report check (exit 2)
    from boxprod import cli

    def unrun(*args, **kwargs):
        raise AssertionError("ran before refusing the input")

    monkeypatch.setattr(cli, "log_sobolev_estimate", unrun)
    monkeypatch.setattr(cli, "conductance_bruteforce", unrun)
    monkeypatch.chdir(tmp_path)
    Path("half.json").write_text(json.dumps({"k": 2, "values": [0.5, 1.0, -1.0, 1.0]}))
    Path("half9.json").write_text(json.dumps({"k": 2, "values": [0.5] + [1.0] * 8}))
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

