"""Command-line front end: reproducible JSON reports over the library.

Subcommands: isoperimetry, kkl, friedgut, sdp-lift, examples.  Reports
embed the resolved configuration, package version and every tolerance
used, and are byte-identical for identical configuration and seed.
Exit codes: 0 all checks passed, 2 some check failed, 1 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .functions import (dictator, function_to_dict, load_function, parity,
                        random_boolean)
from .gadgets import named_graph
from .graphs import (CHECK_SLACK, DENSE_CAP, cartesian_power, complete_graph,
                     graph_to_dict, json_text, load_graph, path_graph, read_json,
                     require_base_within, write_json)
from .influence import (ConstantFunctionError, corollary_sweep, friedgut_extract,
                        is_junta_on, kkl_report, require_junta_input,
                        require_kkl_input)
from .isoperimetry import (conductance_bruteforce, log_sobolev_estimate,
                           product_scaling_report, scannable)
from .sdp import (basic_sdp_opt, check_triangle, lasserre_from_dict,
                  lasserre_from_distribution, lasserre_to_dict, lift_lasserre,
                  lift_sherali_adams, lift_vectors, sa_from_dict,
                  sa_from_distribution, sa_to_dict, sdp_from_dict, sdp_to_dict,
                  uniform_cut_distribution, vectors_from_distribution,
                  vectors_from_local_tables)

# the slacks the checks read, stated in every report
TOLERANCES = {
    "ratio_abs": 1e-9,
    "check_abs": CHECK_SLACK,
    "alpha_chain_rel": 0.02,
    "alpha_ratio_rel": 0.05,
}

T_SWEEP = (math.exp(-2.0), 0.05, 0.01)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# parsing leaves the parser as it was, so one serves every run of the process
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="analyze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("isoperimetry", "kkl", "friedgut", "sdp-lift", "examples"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--k", type=int, default=2, help="Cartesian power")
        cmd.add_argument("--out", help="write the report here instead of stdout")
        if name in ("sdp-lift", "examples"):
            cmd.add_argument("--t-level", type=int, default=2, dest="t_level")
        if name == "examples":
            continue
        cmd.add_argument("--graph", help="graph JSON file")
        cmd.add_argument("--builtin", help="builtin graph: k2|kq:q|cycle:n|path:n|necklace:R")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--max-dense", type=int, default=DENSE_CAP, dest="max_dense")
        if name in ("kkl", "friedgut"):
            cmd.add_argument("--function", help="function JSON file")
            cmd.add_argument("--fn", default="random",
                             help="builtin function: dictator|parity|random")
        if name == "friedgut":
            cmd.add_argument("--epsilon", type=float, default=0.1)
        if name == "sdp-lift":
            cmd.add_argument("--sdp-file", dest="sdp_file")
            cmd.add_argument("--sa-file", dest="sa_file")
            cmd.add_argument("--lasserre-file", dest="lasserre_file")
    return parser


def _resolve_graph(args):
    if args.graph and args.builtin:
        raise UsageError("give either --graph or --builtin, not both")
    if args.graph:
        graph = load_graph(args.graph)
        require_base_within(graph.n, args.max_dense)
        return graph
    return named_graph(args.builtin or "k2", args.max_dense)


def _resolve_function(args, product):
    if args.function:
        return load_function(args.function, product)
    if args.fn == "dictator":
        return dictator(product, 0)
    if args.fn == "parity":
        return parity(product)
    if args.fn == "random":
        return random_boolean(product, np.random.default_rng(args.seed))
    raise UsageError(f"unknown builtin function {args.fn!r}")


def _influence_setup(args, require):
    """Base graph, function on its k-th power, and the log-Sobolev constant
    with its label: exact for the single-edge base, otherwise an estimate.
    ``require(f)`` refuses bad input before the descent runs."""
    base = _resolve_graph(args)
    f = _resolve_function(args, cartesian_power(base, args.k, dense_cap=args.max_dense))
    require(f)
    if base.n == 2 and base.num_edges == 1:
        return base, f, 2.0, "certified"
    return base, f, log_sobolev_estimate(base, seed=args.seed).alpha_hat, "estimated"


def _t_level(args) -> int:
    """The hierarchy level; a family below level 1 would check nothing."""
    if args.t_level < 1:
        raise UsageError(f"--t-level must be >= 1, not {args.t_level}")
    return args.t_level


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def cmd_isoperimetry(args) -> dict:
    k = args.k
    base, power = product_scaling_report(
        cartesian_power(_resolve_graph(args), k, dense_cap=args.max_dense),
        seed=args.seed)
    phi_base, phi_product = (None if m is None or m.scan is None else m.scan[0]
                             for m in (base, power))
    alpha_base, alpha_product = (None if m is None or m.estimate is None
                                 else m.estimate.alpha_hat for m in (base, power))
    lambda1_base = base.graph.basis.lambda1
    # spectral averaging rule: the smallest nonzero mean of coordinate
    # eigenvalues is lambda_1 / k
    lambda1_product = lambda1_base / k
    checks = []
    if phi_base is not None and phi_product is not None:
        phi_ratio = phi_product / phi_base
        checks.append(_check(
            "phi_ratio_is_1_over_k",
            abs(phi_ratio - 1.0 / k) <= TOLERANCES["ratio_abs"],
            {"phi_ratio": phi_ratio, "expected": 1.0 / k}))
    lambda1_ratio = lambda1_product / lambda1_base
    checks.append(_check(
        "lambda1_ratio_is_1_over_k",
        abs(lambda1_ratio - 1.0 / k) <= TOLERANCES["ratio_abs"],
        {"lambda1_ratio": lambda1_ratio}))
    if alpha_base is not None and alpha_product is not None:
        alpha_ratio = alpha_product / alpha_base
        checks.append(_check(
            "alpha_ratio_near_1_over_k",
            abs(alpha_ratio * k - 1.0) <= TOLERANCES["alpha_ratio_rel"],
            {"alpha_ratio": alpha_ratio}))
    # alpha <= lambda_1 <= 2 phi on each graph scanned; a graph small enough
    # to scan is small enough for the descent
    for name, m in (("chain_base", base), ("chain_product", power)):
        if m is not None and m.scan is not None:
            phi, alpha, lam = m.scan[0], m.estimate.alpha_hat, m.graph.basis.lambda1
            checks.append(_check(
                name,
                alpha <= lam * (1.0 + TOLERANCES["alpha_chain_rel"]) + 1e-12
                and lam <= 2.0 * phi + TOLERANCES["check_abs"],
                {"alpha_hat": alpha, "lambda1": lam, "phi": phi}))
    results = {
        "phi_base": phi_base,
        "phi_product": phi_product,
        "lambda1_base": lambda1_base,
        "lambda1_product": lambda1_product,
        "alpha_base": alpha_base,
        "alpha_product": alpha_product,
        "partial": None in (phi_base, phi_product, alpha_base, alpha_product),
    }
    return {"results": results, "checks": checks}


def cmd_kkl(args) -> dict:
    _, f, alpha, label = _influence_setup(args, require_kkl_input)
    try:
        rep = kkl_report(f, alpha)
    except ConstantFunctionError as exc:
        return {"results": {"status": "error", "error": str(exc)},
                "checks": [_check("influence_report", False, str(exc))]}
    sweep = []
    all_ok = True
    # the mean influence is f's edge-sum energy, which the sweep checks against
    rows_per_t = corollary_sweep(f, T_SWEEP, alpha, rep.mean_influence)
    for t, rows in zip(T_SWEEP, rows_per_t):
        ok = all(r.ok for r in rows)
        all_ok &= ok
        sweep.append({"t": t, "ok": ok,
                      "rows": [{"j": r.j, "lhs": r.lhs, "rhs": r.rhs} for r in rows]})
    checks = [
        _check("max_influence_ge_mean",
               rep.max_influence >= rep.mean_influence - TOLERANCES["check_abs"],
               {"max": rep.max_influence, "mean": rep.mean_influence}),
        _check("corollary_sweep", all_ok, {"t_values": list(T_SWEEP)}),
    ]
    results = {
        "alpha": alpha,
        "alpha_label": label,
        "influences": [float(x) for x in rep.influences],
        "max_influence": rep.max_influence,
        "mean_influence": rep.mean_influence,
        "variance": rep.variance,
        "bound_expr": rep.bound_expr,
        "ratio": rep.ratio,
        "corollary": sweep,
    }
    return {"results": results, "checks": checks}


def cmd_friedgut(args) -> dict:
    def require(f):
        require_junta_input(f, args.epsilon)
        scannable(f.product.base)  # the conductance scan below refuses the same

    base, f, alpha, label = _influence_setup(args, require)
    phi, _ = conductance_bruteforce(base)
    res = friedgut_extract(f, args.epsilon, alpha, phi)
    checks = [
        _check("distance_le_epsilon",
               res.distance <= args.epsilon + TOLERANCES["check_abs"],
               {"distance": res.distance, "epsilon": args.epsilon}),
        _check("junta_size_bound",
               (len(res.junta) == 0
                or math.log(len(res.junta)) <= res.size_bound_log
                + TOLERANCES["check_abs"]),
               {"size": len(res.junta), "bound_log": res.size_bound_log}),
        _check("depends_only_on_junta", is_junta_on(res.g_tilde, res.junta),
               {"junta": list(res.junta)}),
    ]
    results = {
        "alpha": alpha,
        "alpha_label": label,
        "phi": phi,
        "junta": list(res.junta),
        "distance": res.distance,
        # infinite for a constant function, and JSON has no infinity
        "threshold": res.threshold if math.isfinite(res.threshold) else None,
        "size_bound_log": res.size_bound_log,
        "dirichlet": res.dirichlet,
        "coordinate_variances": [float(x) for x in res.coordinate_variances],
    }
    return {"results": results, "checks": checks}


def cmd_sdp_lift(args) -> dict:
    t_level = _t_level(args)
    base = _resolve_graph(args)
    product = cartesian_power(base, args.k, dense_cap=args.max_dense)
    checks = []
    results = {}

    if args.sdp_file:
        sol = read_json(args.sdp_file, sdp_from_dict)
        if sol.n != base.n:
            raise ValueError(f"SDP file has {sol.n} vectors for the "
                             f"{base.n} vertices of the base graph")
    else:
        _, sol = basic_sdp_opt(base)
    lifted = lift_vectors(sol, product)
    results["objective_base"] = lifted.objective_base
    results["objective_lifted"] = lifted.objective_lifted
    results["spread_lifted"] = lifted.spread_lifted
    base_over_k = lifted.objective_base / args.k
    checks.append(_check(
        "lifted_objective_is_base_over_k",
        abs(lifted.objective_lifted - base_over_k) <= TOLERANCES["check_abs"],
        {"lifted": lifted.objective_lifted, "base_over_k": base_over_k}))
    tri_base = check_triangle(sol, seed=args.seed)
    tri = check_triangle(lifted, seed=args.seed)
    results["triangle_violations_base"] = tri_base.count
    results["triangle_violations_lifted"] = tri.count
    checks.append(_check(
        "triangle_preserved",
        tri.count == 0 or tri_base.count > 0,
        {"base": tri_base.count, "lifted": tri.count, "partial": tri.partial}))

    if not (args.sa_file and args.lasserre_file):
        # a generated family is the uniform cut on the conductance witness
        cut_dist = uniform_cut_distribution(base.n, conductance_bruteforce(base)[1])
    if args.sa_file:
        ld = read_json(args.sa_file, sa_from_dict, base.n)
        # pair the tables with vectors factored from their own moments so
        # the SA file is self-contained
        sa_vecs = vectors_from_local_tables(ld, base.n)
    else:
        ld = sa_from_distribution(cut_dist, base.n, t_level)
        sa_vecs = vectors_from_distribution(cut_dist)
    _, _, marginal_gap, vector_gap = lift_sherali_adams(ld, sa_vecs, product)
    results["sa_marginal_gap"] = marginal_gap
    results["sa_vector_gap"] = vector_gap
    checks.append(_check("sa_consistency",
                         marginal_gap <= TOLERANCES["check_abs"]
                         and vector_gap <= TOLERANCES["check_abs"],
                         {"marginal_gap": marginal_gap, "vector_gap": vector_gap}))

    if args.lasserre_file:
        ls = read_json(args.lasserre_file, lasserre_from_dict, base.n)
    else:
        ls = lasserre_from_distribution(cut_dist, base.n, t_level)
    lifted_ls = lift_lasserre(ls, product, min(t_level, ls.level))
    delta_gap = lifted_ls.check_delta_consistency()
    results["lasserre_delta_gap"] = delta_gap
    checks.append(_check("lasserre_delta_consistency",
                         delta_gap <= TOLERANCES["check_abs"],
                         {"delta_gap": delta_gap}))
    return {"results": results, "checks": checks}


def cmd_examples(args) -> dict:
    t_level = _t_level(args)
    k2 = complete_graph(2)
    # built before the first file, so a --k the dense cap refuses writes none
    dictator_k = dictator(cartesian_power(k2, args.k), 0)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, data):
        write_json(data, os.path.join(out_dir, name))
        written.append(name)

    emit("k2.graph.json", graph_to_dict(k2))
    emit("p3.graph.json", graph_to_dict(path_graph(3)))
    emit(f"dictator.k{args.k}.function.json", function_to_dict(dictator_k))
    _, sol = basic_sdp_opt(k2)
    emit("k2.sdp.json", sdp_to_dict(sol))
    dist = uniform_cut_distribution(2, (0,))
    emit("k2.sa.json", sa_to_dict(sa_from_distribution(dist, 2, t_level)))
    emit("k2.lasserre.json",
         lasserre_to_dict(lasserre_from_distribution(dist, 2, t_level)))
    return {"results": {"written": written, "directory": out_dir}, "checks": []}


_COMMANDS = {
    "isoperimetry": cmd_isoperimetry,
    "kkl": cmd_kkl,
    "friedgut": cmd_friedgut,
    "sdp-lift": cmd_sdp_lift,
    "examples": cmd_examples,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # -h has printed the usage
        return exc.code or 0
    try:
        body = _COMMANDS[args.command](args)
    except (UsageError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the refused array
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    passed = all(check["passed"] for check in body["checks"])
    report = {
        "command": args.command,
        # --out is where the report goes, not what it computes; leaving it out
        # keeps reports byte-identical across destinations
        "config": {key: value for key, value in vars(args).items() if key != "out"},
        "version": __version__,
        "tolerances": TOLERANCES,
        "results": body["results"],
        "checks": body["checks"],
        "passed": passed,
    }
    text = json_text(report)
    # the --out of examples holds the example files; their report goes to stdout
    if args.out and args.command != "examples":
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0 if passed else 2


def main():  # pragma: no cover - console entry point
    raise SystemExit(run())
