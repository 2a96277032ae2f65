"""The exit-code contract under arbitrary arguments and malformed input
files: ``run`` returns 0, 1 or 2 and never raises, a refusal (1) writes
nothing to standard output, and a report (0 or 2) is strict JSON.

Each command gets only the flags it reads, drawn from values that run
to a report (a draw without an edge value must reach one), with at most
one of them replaced by an edge value, so that each refusal is reached
on its own.  Products stay small (k <= 2
on two- and three-vertex bases) except for k = 40 and 64, which must
hit a dense cap before anything of size n^k is allocated.  Examples are
derandomized, so the suite runs the same inputs every time.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxprod.cli import run

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# the flags each command reads, besides --out and the input files
GRAPH_FLAGS = ("--builtin", "--k", "--seed", "--max-dense")
FLAGS = {
    "isoperimetry": GRAPH_FLAGS,
    "kkl": GRAPH_FLAGS + ("--fn",),
    "friedgut": GRAPH_FLAGS + ("--fn", "--epsilon"),
    "sdp-lift": GRAPH_FLAGS + ("--t-level",),
    "examples": ("--k", "--t-level"),
}
# arguments drawn from values that run to a report
VALID_ARGS = {
    "--builtin": st.sampled_from(["k2", "kq:3"]),
    "--k": st.integers(1, 2),
    "--t-level": st.integers(1, 2),
    "--epsilon": st.floats(0.05, 0.95),
    "--seed": st.integers(0, 3),
    "--max-dense": st.just(1 << 22),
    "--fn": st.sampled_from(["dictator", "random"]),
}
# at most one argument is replaced by one of these
EDGE_ARGS = {
    "--builtin": ["kq:1", "cycle:x", "bogus"],
    "--k": [-1, 0, 40, 64],
    "--t-level": [-3, 0],
    "--epsilon": [math.nan, math.inf, 0.0, 1.5],
    "--max-dense": [-1, 0, 8],
    "--fn": ["parity", "nope"],
}
VALID_ARGV = {"--builtin": "k2", "--k": 2, "--t-level": 2, "--epsilon": 0.1,
              "--seed": 0, "--max-dense": 1 << 22, "--fn": "random"}


def _arguments(command):
    """``command``, values for its flags and at most one edge value."""
    flags = FLAGS[command]
    valid = {flag: VALID_ARGS[flag] for flag in flags}
    if command == "kkl":
        valid["--k"] = st.just(2)  # kkl refuses --k 1
    edge_flags = [flag for flag in sorted(EDGE_ARGS) if flag in flags]
    edge = st.none() | st.sampled_from(edge_flags).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(EDGE_ARGS[flag])))
    return st.tuples(st.just(command), st.fixed_dictionaries(valid), edge)


# a valid document of each input file kind, for the k2 base at k = 2
VALID = {
    "--graph": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]},
    "--function": {"k": 2, "values": [1.0, -1.0, -1.0, 1.0]},
    "--sdp-file": {"d": 1, "vectors": [[math.sqrt(0.5)], [-math.sqrt(0.5)]]},
    "--sa-file": {"t": 2, "dists": [
        {"T": [0], "probs": {"+": 0.5, "-": 0.5}},
        {"T": [1], "probs": {"+": 0.5, "-": 0.5}},
        {"T": [0, 1], "probs": {"+-": 0.5, "-+": 0.5}}]},
    "--lasserre-file": {"t": 2, "sets": [
        {"S": [], "vec": [math.sqrt(0.5), math.sqrt(0.5)]},
        {"S": [0], "vec": [math.sqrt(0.5), -math.sqrt(0.5)]},
        {"S": [1], "vec": [-math.sqrt(0.5), math.sqrt(0.5)]},
        {"S": [0, 1], "vec": [-math.sqrt(0.5), -math.sqrt(0.5)]}]},
}
COMMAND_OF = {"--graph": "isoperimetry", "--function": "kkl"}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=2), kids, max_size=3)),
    max_leaves=6)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
    else:
        # a written report is strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_not_json)
    return code


def _mutate(data, doc):
    """``doc`` with one node replaced by arbitrary JSON, or one key
    dropped, at a drawn position (deeper nodes are drawn more often)."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                        else range(len(doc))))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        if isinstance(doc, dict) and data.draw(st.booleans()):
            del out[key]
        else:
            out[key] = _mutate(data, doc[key])
        return out
    return data.draw(JSON)


@FUZZ
@given(case=st.sampled_from(sorted(FLAGS)).flatmap(_arguments))
@example(case=("isoperimetry", VALID_ARGV, ("--k", 0)))
@example(case=("sdp-lift", VALID_ARGV, ("--t-level", 0)))
@example(case=("examples", VALID_ARGV, ("--t-level", -3)))
@example(case=("isoperimetry", dict(VALID_ARGV, **{"--builtin": "kq:3"}), None))
@example(case=("kkl", VALID_ARGV, None))
@example(case=("friedgut", VALID_ARGV, None))
@example(case=("sdp-lift", VALID_ARGV, None))
@example(case=("examples", VALID_ARGV, None))
def test_any_arguments_keep_the_exit_code_contract(case):
    command, args, edge = case
    args = {flag: value for flag, value in args.items() if flag in FLAGS[command]}
    if edge is not None:
        args[edge[0]] = edge[1]
    # the log-Sobolev descent on K2^2 alone takes seconds
    assume((command, args.get("--builtin"), args["--k"]) != ("isoperimetry", "k2", 2))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, value in args.items():
            argv += [flag, repr(value) if isinstance(value, float) else str(value)]
        if command == "examples":
            argv += ["--out", tmp]
        code = _exit_code(argv)
    if edge is None:
        assert code in (0, 2)  # valid values run to a report


@FUZZ
@given(flag=st.sampled_from(sorted(VALID)), data=st.data())
@example(flag="--graph", data=[])
@example(flag="--sa-file", data=[])
@example(flag="--function", data={"values": [1.0, -1.0, -1.0, 1.0]})
@example(flag="--graph", data={"n": 2, "edges": [[0, 1, None]]})
@example(flag="--sa-file", data={"t": 1, "dists": [
    {"T": [0], "probs": {"+": float("nan"), "-": 0.5}},
    {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--lasserre-file", data={"t": 1, "sets": [
    {"S": [], "vec": [1.0]}, {"S": [0], "vec": [float("nan")]},
    {"S": [1], "vec": [1.0]}]})
@example(flag="--lasserre-file", data={"t": 1, "sets": [
    {"S": [], "vec": [1.0]}, {"S": [0], "vec": [1e155]}, {"S": [1], "vec": [1.0]}]})
# numbers too large for a float or an int
@example(flag="--sa-file", data={"t": 1, "dists": [
    {"T": [0], "probs": {"+": 10 ** 400, "-": 0.5}},
    {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--lasserre-file", data={"t": 1, "sets": [
    {"S": [], "vec": [1.0]}, {"S": [math.inf], "vec": [1.0]}, {"S": [1], "vec": [1.0]}]})
@example(flag="--graph", data={"n": math.inf, "edges": [[0, 1, 1.0]]})
@example(flag="--function", data={"k": math.inf, "values": [1.0, -1.0, -1.0, 1.0]})
# vertices that are not JSON integers, weights and probabilities that are not numbers
@example(flag="--sa-file", data={"t": 1, "dists": [
    {"T": [True], "probs": {"+": 0.5, "-": 0.5}},
    {"T": [0], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--sa-file", data={"t": 1, "dists": [
    {"T": [0.9], "probs": {"+": 0.5, "-": 0.5}},
    {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--sa-file", data={"t": 1, "dists": [
    {"T": [0], "probs": {"+": "0.5", "-": 0.5}},
    {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--sa-file", data={"t": True, "dists": [
    {"T": [0], "probs": {"+": 0.5, "-": 0.5}},
    {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]})
@example(flag="--lasserre-file", data={"t": 1, "sets": [
    {"S": [], "vec": [1.0]}, {"S": [False], "vec": [1.0]}, {"S": [1], "vec": [1.0]}]})
# vector entries that numpy would read as numbers
@example(flag="--sdp-file", data={"d": 1, "vectors": [
    ["0.7071067811865476"], [-0.7071067811865476]]})
@example(flag="--lasserre-file", data={"t": 1, "sets": [
    {"S": [], "vec": [1.0]}, {"S": [0], "vec": [True]}, {"S": [1], "vec": ["1.0"]}]})
@example(flag="--graph", data={"n": 3, "edges": [[0.9, 1, 1.0], [True, 2, "2.5"]]})
@example(flag="--graph", data={"n": 3.0, "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
@example(flag="--graph", data={"n": 3, "edges": [[0, 1, 1.0], [1, 2, True]]})
def test_malformed_files_keep_the_exit_code_contract(flag, data):
    # an explicit example gives the whole document; a drawn one mutates
    # the valid document of its kind
    doc = _mutate(data, VALID[flag]) if isinstance(data, st.DataObject) else data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        command = COMMAND_OF.get(flag, "sdp-lift")
        argv = [command, "--k", "1" if flag == "--graph" else "2", flag, str(path)]
        if flag != "--graph":
            argv += ["--builtin", "k2"]
        code = _exit_code(argv)
        if not isinstance(data, st.DataObject):
            assert code == 1
