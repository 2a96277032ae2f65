"""The four workloads: their inputs, their ops and each op's oracle.

An op is one ``analyze`` report (``boxprod.cli.run`` in-process) or one
library call.  Each workload is a pair: ``inputs(seed, workdir)`` draws
the inputs from the seed and writes the input files, once and untimed,
since none of that is the package's work; ``build(bp, inputs)`` builds
the package-side objects and returns the ops, and is the timed set-up.
Each op's ``check`` compares its output with ``oracles`` and returns a
list of problems (empty when the output is right).  ``fault`` names a
known program fault: when it returns true the op counts as failed
without making the run incorrect.  Oracle values are computed on first
use, not during set-up.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracles as orc

CHECK_TOL = 1e-9
# a certified upper bound may sit below the constant by rounding only
ALPHA_FLOOR_REL = 1e-12


class Op:
    def __init__(self, name, call, check, fault=None):
        self.name = name
        self.call = call
        self.check = check
        self.fault = fault


def _alpha_bound(p, label, alpha, true, rel):
    """A certified upper bound: at or above the constant, and above it by
    at most the report's own ``alpha_chain_rel``."""
    p.holds(f"{label} >= alpha", alpha >= true * (1 - ALPHA_FLOOR_REL), f"({alpha} < {true})")
    p.holds(f"{label} within alpha_chain_rel of alpha", alpha <= true * (1 + rel),
            f"({alpha} > {true})")


class Problems(list):
    def close(self, label, got, want, tol=CHECK_TOL):
        if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
            self.append(f"{label}: got {got!r}, want {want!r}")

    def holds(self, label, cond, detail=""):
        if not cond:
            self.append(f"{label} does not hold {detail}".rstrip())


def lazy(fn, *args):
    """``fn(*args)``, computed on the first call and kept."""
    memo = []

    def get():
        if not memo:
            memo.append(fn(*args))
        return memo[0]
    return get


def cli_op(bp, name, argv, check, fault=None):
    """An ``analyze`` report.  ``check`` and ``fault`` get the parsed
    report; a nonzero exit code or a failed embedded check is a problem."""
    cli = bp.cli

    def call():  # cli.run is looked up here, so a traced run sees its wrapper
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def checked(result):
        rc, text, err = result
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[-300:]}"]
        rep = json.loads(text)
        problems = Problems(check(rep))
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        problems.holds("report passed", rep["passed"] and not failed, str(failed))
        return problems

    def faulted(result, exc):
        return exc is None and result[0] == 0 and fault(json.loads(result[1]))

    return Op(name, call, checked, faulted if fault else None)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


# -- scan: exact conductance by the 2^n subset scan ---------------------------------

def _scan_graphs():
    """(label, oracle graph, closed-form conductance or None)."""
    out = [(f"cycle:{n}", orc.cycle(n), orc.phi_cycle(n)) for n in (16, 17, 18, 19)]
    out += [
        ("necklace:7", orc.necklace(7), None),
        ("C4^2", orc.power(orc.cycle(4), 2), orc.phi_cycle(4) / 2),
        ("K4^2", orc.power(orc.complete(4), 2), orc.phi_complete(4) / 2),
        ("K2^4", orc.power(orc.complete(2), 4), orc.phi_complete(2) / 4),
        ("P4^2", orc.power(orc.path(4), 2),
         orc.enumerate_conductance(orc.path(4)) / 2),
        ("K15", orc.complete(15), orc.phi_complete(15)),
    ]
    return out


SCAN_GRAPHS = _scan_graphs()


def scan_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    graphs = [(label, graph.relabel(rng.permutation(graph.n)), phi_exact)
              for label, graph, phi_exact in SCAN_GRAPHS]
    return {"seed": seed, "graphs": graphs}


def build_scan(bp, inputs):
    iso = bp.isoperimetry
    seed = inputs["seed"]
    ops = []
    for label, g, phi_exact in inputs["graphs"]:
        ops.append(_scan_op(iso, label, g, bp.build_graph(g.n, g.edges), phi_exact, seed))
    # K17: every proper subset ties, and the tie list overflows the scan
    k17 = orc.complete(17)
    k17_pg = bp.complete_graph(17)
    lam = lazy(orc.lambda1, k17)
    sampled = lazy(orc.sampled_min_ratio, k17, np.random.default_rng(0))
    ops.append(Op(
        "K17", lambda: iso.conductance_bruteforce(k17_pg),
        lambda r: _scan_problems(k17, r, orc.phi_complete(17), lam, sampled, witness=(0,)),
        fault=lambda r, exc: isinstance(exc, RuntimeError)))
    return ops


def _scan_op(iso, label, g, pg, phi_exact, seed):
    lam = lazy(orc.lambda1, g)
    sampled = lazy(orc.sampled_min_ratio, g, np.random.default_rng(seed))
    return Op(label, lambda: iso.conductance_bruteforce(pg),
              lambda r: _scan_problems(g, r, phi_exact, lam, sampled))


def _scan_problems(g, result, phi_exact, lam, sampled, witness=None):
    phi, wit = result
    p = Problems()
    p.holds("witness is a proper subset", 0 < len(wit) < g.n, str(wit))
    if p:
        return p
    p.close("witness cut ratio", orc.cut_ratio(g, wit), phi)
    if phi_exact is not None:
        p.close("phi", phi, phi_exact)
    if witness is not None:
        p.holds("witness", tuple(wit) == witness, str(wit))
    p.holds("lambda1/2 <= phi", lam() / 2 <= phi + CHECK_TOL)
    p.holds("no sampled subset beats phi", phi <= sampled() + CHECK_TOL)
    return p


# -- isoperimetry: analyze isoperimetry (descent, scan, spectral chain) ------------

def _k5_minus_edge():
    return orc.Graph(5, [(u, v, 1.0) for u, v in itertools.combinations(range(5), 2)
                         if (u, v) != (0, 1)])


# each seeded report runs at this many descent seeds, drawn from --seed:
# the descent's work depends on its seed
ISO_DESCENT_SEEDS = 3


def isoperimetry_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    g = _k5_minus_edge().relabel(rng.permutation(5))
    g_file = str(workdir / "k5e.graph.json")
    _write_json(g_file, g.to_dict())
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, size=ISO_DESCENT_SEEDS)]
    return {"seeds": seeds, "k5e": g, "k5e_file": g_file}


def _k2_fault(rep):
    """Every K2 base alpha sits below alpha(K2) = 2: the descent ends on a
    near-constant function whose entropy cancels."""
    details = {c["name"]: c["detail"] for c in rep["checks"]}
    alphas = [rep["results"]["alpha_base"]]
    if "chain_base" in details:
        alphas.append(details["chain_base"]["alpha_hat"])
    return min(alphas) < 2.0 * (1 - ALPHA_FLOOR_REL)


def build_isoperimetry(bp, inputs):
    seeds = inputs["seeds"]
    k5e, k5e_file = inputs["k5e"], inputs["k5e_file"]
    # (label, argv, descent seeds, oracle base, k, lambda1, alpha and phi of
    # the base; None where no closed form is used)
    specs = [
        ("kq:5 k=1", ["--builtin", "kq:5", "--k", "1"], seeds[:1], orc.complete(5), 1,
         orc.lambda1_complete(5), orc.alpha_complete(5), orc.phi_complete(5)),
        ("kq:4 k=2", ["--builtin", "kq:4", "--k", "2"], seeds, orc.complete(4), 2,
         orc.lambda1_complete(4), orc.alpha_complete(4), orc.phi_complete(4)),
        ("kq:3 k=2", ["--builtin", "kq:3", "--k", "2"], seeds, orc.complete(3), 2,
         orc.lambda1_complete(3), orc.alpha_complete(3), orc.phi_complete(3)),
        ("K5-e k=1", ["--graph", k5e_file, "--k", "1"], seeds, k5e, 1,
         orc.lambda1(k5e), None, None),
        # the K2 report shows a known fault, so its inputs are fixed
        ("k2 k=1", ["--builtin", "k2", "--k", "1"], [0], orc.complete(2), 1,
         orc.lambda1_complete(2), orc.alpha_complete(2), orc.phi_complete(2)),
    ]
    ops = []
    for label, argv, op_seeds, g, k, lam, alpha, phi in specs:
        phis = lazy(_phi_pair, g, k, phi)
        check = functools.partial(_iso_problems, k, lam, alpha, phis)
        fault = _k2_fault if g.n == 2 else None
        for seed in op_seeds:
            ops.append(cli_op(bp, f"{label} seed={seed}",
                              ["isoperimetry"] + argv + ["--seed", str(seed)], check, fault))
    return ops


def _phi_pair(g, k, phi_base):
    """Conductance of the base and of its k-th power: closed form or plain
    enumeration for the base; enumeration for a power of at most 12
    vertices, else phi(G)/k (K4^2, where that holds)."""
    if phi_base is None:
        phi_base = orc.enumerate_conductance(g)
    if g.n ** k <= orc.ENUM_MAX_VERTICES:
        return phi_base, orc.enumerate_conductance(orc.power(g, k))
    return phi_base, phi_base / k


def _iso_problems(k, lam, alpha_true, phis, rep):
    p = Problems()
    res = rep["results"]
    tol = rep["tolerances"]
    rel = tol["alpha_chain_rel"]
    phi_b, phi_p = phis()
    p.close("phi_base", res["phi_base"], phi_b)
    p.close("phi_product", res["phi_product"], phi_p)
    p.close("lambda1_base", res["lambda1_base"], lam)
    p.close("lambda1_product", res["lambda1_product"], lam / k)
    p.holds("lambda1/2 <= phi (base)", lam / 2 <= phi_b + CHECK_TOL)
    p.holds("lambda1/2 <= phi (product)", lam / k / 2 <= phi_p + CHECK_TOL)
    alphas = [("alpha_base", res["alpha_base"], 1), ("alpha_product", res["alpha_product"], k)]
    details = {c["name"]: c["detail"] for c in rep["checks"]}
    for name, kk, phi in (("chain_base", 1, phi_b), ("chain_product", k, phi_p)):
        if name in details:
            d = details[name]
            p.close(f"{name} phi", d["phi"], phi)
            p.close(f"{name} lambda1", d["lambda1"], lam / kk)
            alphas.append((f"{name} alpha", d["alpha_hat"], kk))
    for label, alpha, kk in alphas:
        p.holds(f"{label} <= lambda1", alpha <= lam / kk * (1 + rel), f"({alpha})")
        if alpha_true is not None:
            _alpha_bound(p, label, alpha, alpha_true / kk, rel)
    if alpha_true is None:
        p.holds("alpha_product = alpha_base / k",
                abs(k * res["alpha_product"] / res["alpha_base"] - 1)
                <= tol["alpha_ratio_rel"])
    return p


# -- influence: analyze kkl and analyze friedgut on dense tables -----------------

# (command, q, k, function)
INFLUENCE_SPECS = [
    ("kkl", 3, 8, "dictator"),
    ("kkl", 2, 14, "dictator"),
    ("kkl", 2, 15, "parity"),
    ("kkl", 2, 15, "random"),
    ("friedgut", 2, 16, "dictator"),
    ("friedgut", 2, 14, "random"),
    ("kkl", 3, 10, "random"),
    ("friedgut", 3, 9, "random"),
]

def influence_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    tables = {}
    for i, (_, q, k, fn) in enumerate(INFLUENCE_SPECS):
        if fn == "random":
            values = rng.choice([-1.0, 1.0], size=q ** k)
            path = str(workdir / f"f{i}.q{q}.k{k}.function.json")
            _write_json(path, {"k": k, "values": values.tolist()})
            tables[i] = (values, path)
    return {"seed": seed, "tables": tables}


def build_influence(bp, inputs):
    s = str(inputs["seed"])
    ops = []
    for i, (cmd, q, k, fn) in enumerate(INFLUENCE_SPECS):
        graph = "k2" if q == 2 else f"kq:{q}"
        argv = [cmd, "--builtin", graph, "--k", str(k), "--seed", s]
        values = None
        if fn == "random":
            values, path = inputs["tables"][i]
            argv += ["--function", path]
        else:
            argv += ["--fn", fn]
        oracle = lazy(_influence_oracle, q, k, fn, values)
        check = functools.partial(_influence_problems, cmd, q, k, fn, oracle)
        ops.append(cli_op(bp, f"{cmd} q={q} k={k} {fn}", argv, check))
    return ops


def _influence_oracle(q, k, fn, values):
    """Influences, coordinate variances and variance of the function."""
    if q == 2 and fn == "dictator":
        return np.array([2.0] + [0.0] * (k - 1)), np.array([1.0] + [0.0] * (k - 1)), 1.0
    if q == 2 and fn == "parity":
        return np.full(k, 2.0), np.ones(k), 1.0
    if fn == "dictator":
        values = np.where(np.indices((q,) * k)[0].reshape(-1) == 0, 1.0, -1.0)
    infl = orc.hypercube_influences(values, k) if q == 2 else orc.influences(values, q, k)
    var = float(np.mean(values * values) - np.mean(values) ** 2)
    return infl, orc.coordinate_variances(values, q, k), var


def _influence_problems(cmd, q, k, fn, oracle, rep):
    infl, var_j, var = oracle()
    p = Problems()
    res = rep["results"]
    rel = rep["tolerances"]["alpha_chain_rel"]
    if q == 2:
        p.holds("alpha certified", res["alpha"] == 2.0 and res["alpha_label"] == "certified")
    else:
        _alpha_bound(p, "alpha", res["alpha"], orc.alpha_complete(q), rel)
    if cmd == "kkl":
        got = np.array(res["influences"])
        p.holds("influences", got.shape == infl.shape
                and np.allclose(got, infl, rtol=0, atol=CHECK_TOL))
        p.close("max_influence", res["max_influence"], float(infl.max()))
        p.close("mean_influence", res["mean_influence"], float(infl.mean()))
        p.close("variance", res["variance"], var)
        bound = res["alpha"] * var * math.log(k) / k
        p.close("ratio", res["ratio"], float(infl.max()) / bound)
        p.holds("corollary sweep", all(row["ok"] for row in res["corollary"]))
        return p
    p.close("phi", res["phi"], orc.phi_complete(q))
    p.close("dirichlet", res["dirichlet"], float(infl.mean()))
    got = np.array(res["coordinate_variances"])
    p.holds("coordinate variances", got.shape == var_j.shape
            and np.allclose(got, var_j, rtol=0, atol=CHECK_TOL))
    p.holds("distance <= epsilon", res["distance"] <= 0.1 + CHECK_TOL, str(res["distance"]))
    want = [j for j in range(k) if var_j[j] >= res["threshold"]]
    p.holds("junta = coordinates above the threshold", res["junta"] == want,
            f"{res['junta']} vs {want}")
    if fn == "dictator":
        p.holds("dictator junta", res["junta"] == [0] and res["distance"] == 0.0)
    return p


# -- sdp-lift: analyze sdp-lift, generated and file-read solutions ---------------

# (builtin, oracle graph, k, t-level, closed-form lambda1, solutions from files)
SDP_SPECS = [
    ("kq:3", orc.complete(3), 2, 2, orc.lambda1_complete(3), True),
    ("k2", orc.complete(2), 3, 3, orc.lambda1_complete(2), False),
    ("k2", orc.complete(2), 4, 2, orc.lambda1_complete(2), False),
    ("cycle:5", orc.cycle(5), 2, 2, orc.lambda1_cycle(5), False),
    ("cycle:5", orc.cycle(5), 2, 2, orc.lambda1_cycle(5), True),
    ("kq:4", orc.complete(4), 2, 2, orc.lambda1_complete(4), True),
]


def sdp_lift_inputs(seed, workdir):
    """Per file op: the base vectors and the flags naming its files."""
    rng = np.random.default_rng(seed)
    solutions = {}
    for i, (_, g, _, t, _, from_files) in enumerate(SDP_SPECS):
        if not from_files:
            continue
        vectors = _random_feasible(g, rng)
        dist = _cut_mixture(g.n, rng)
        files = {
            "--sdp-file": {"d": vectors.shape[1], "vectors": vectors.tolist()},
            "--sa-file": _sa_dict(dist, g.n, t),
            "--lasserre-file": _lasserre_dict(dist, g.n, t),
        }
        flags = []
        for flag, data in files.items():
            path = str(workdir / f"s{i}{flag[1:]}.json")
            _write_json(path, data)
            flags += [flag, path]
        solutions[i] = (vectors, flags)
    return {"seed": seed, "solutions": solutions}


def build_sdp_lift(bp, inputs):
    s = str(inputs["seed"])
    ops = []
    for i, (name, g, k, t, lam, from_files) in enumerate(SDP_SPECS):
        argv = ["sdp-lift", "--builtin", name, "--k", str(k), "--t-level", str(t),
                "--seed", s]
        vectors = None
        if from_files:
            vectors, flags = inputs["solutions"][i]
            argv += flags
        elif g.n == 2:
            # the gap eigenfunction of K2 is unique up to sign
            vectors = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        triangles = lazy(_triangle_counts, vectors, k) if vectors is not None else None
        objective = lazy(orc.objective, g, vectors) if from_files else None
        label = f"{name} k={k} t={t}" + (" files" if from_files else "")
        check = functools.partial(_sdp_problems, k, lam, objective, triangles)
        ops.append(cli_op(bp, label, argv, check))
    return ops


def _random_feasible(g, rng, dim=3):
    vecs = rng.standard_normal((g.n, dim))
    return vecs / math.sqrt(orc.spread(g, vecs))


def _cut_mixture(n, rng, cuts=3):
    """Global distribution over {-1,+1}^n: a random mixture of cuts, each
    taken with its negation so every vertex marginal is uniform."""
    weights = rng.uniform(0.2, 1.0, size=cuts)
    weights /= weights.sum()
    dist = {}
    for w in weights:
        sigma = tuple(int(x) for x in rng.choice([-1, 1], size=n))
        for lab in (sigma, tuple(-x for x in sigma)):
            dist[lab] = dist.get(lab, 0.0) + w / 2
    return dist


def _subsets(n, t, start=1):
    for size in range(start, t + 1):
        yield from itertools.combinations(range(n), size)


def _sa_dict(dist, n, t):
    dists = []
    for subset in _subsets(n, t):
        probs = {}
        for sigma, p in dist.items():
            key = "".join("+" if sigma[v] > 0 else "-" for v in subset)
            probs[key] = probs.get(key, 0.0) + p
        dists.append({"T": list(subset), "probs": probs})
    return {"t": t, "dists": dists}


def _lasserre_dict(dist, n, t):
    outcomes = sorted(dist)
    sets = []
    for subset in _subsets(n, t, start=0):
        vec = [math.sqrt(dist[s]) * math.prod(s[v] for v in subset) for s in outcomes]
        sets.append({"S": list(subset), "vec": vec})
    return {"t": t, "sets": sets}


def _triangle_counts(vectors, k):
    diff = vectors[:, None, :] - vectors[None, :, :]
    base = orc.triangle_violations(np.sum(diff * diff, axis=2), CHECK_TOL)
    lifted = orc.triangle_violations(orc.lifted_sq_distances(vectors, k), CHECK_TOL)
    return base, lifted


def _sdp_problems(k, lam, objective, triangles, rep):
    p = Problems()
    res = rep["results"]
    if objective is not None:
        p.close("objective_base", res["objective_base"], objective())
        p.holds("objective_base >= lambda1", objective() >= lam - CHECK_TOL)
    else:
        p.close("objective_base = lambda1", res["objective_base"], lam)
    p.close("objective_lifted = base / k", res["objective_lifted"], res["objective_base"] / k)
    p.close("spread_lifted", res["spread_lifted"], 1.0)
    if triangles is not None:
        base, lifted = triangles()
        p.holds("triangle violations (base)", res["triangle_violations_base"] == base,
                f"{res['triangle_violations_base']} vs {base}")
        p.holds("triangle violations (lifted)", res["triangle_violations_lifted"] == lifted,
                f"{res['triangle_violations_lifted']} vs {lifted}")
    for gap in ("sa_marginal_gap", "sa_vector_gap", "lasserre_delta_gap"):
        p.holds(f"{gap} <= {CHECK_TOL}", res[gap] <= CHECK_TOL, f"({res[gap]})")
    return p


# name -> (inputs, build)
WORKLOADS = {
    "scan": (scan_inputs, build_scan),
    "isoperimetry": (isoperimetry_inputs, build_isoperimetry),
    "influence": (influence_inputs, build_influence),
    "sdp-lift": (sdp_lift_inputs, build_sdp_lift),
}
