"""The log-Sobolev descent of one start at a time, the rule the lockstep
estimator must follow row by row, and the saved results of its slow
cases.

``tests/test_isoperimetry.py`` compares the lockstep estimator with this
reference bit for bit: live on the cheap graphs, and against
``data/descent-reference.json`` on the graphs in ``SAVED``, whose
one-start descents take seconds each.  Regenerate that file with

    PYTHONPATH=src python tests/descent_reference.py

which must rewrite it byte for byte unless the descent changed on purpose;
with ``--check`` it writes nothing and exits 1 if the file would change.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

import boxprod as bp
from boxprod import isoperimetry as iso

DATA = Path(__file__).parent / "data" / "descent-reference.json"
# graphs whose reference results are read from DATA, at these seeds
SAVED = ("C5", "K2^2", "P3^2", "necklace:5", "random6", "random9")
SEEDS = (0, 1)


def reference_energy(graph, f):
    d = f[graph.edge_u] - f[graph.edge_v]
    return 0.5 * float(np.sum(graph.edge_w * d * d))


def reference_entropy(pi, f):
    f2 = f * f
    n2 = float(np.sum(pi * f2))
    if n2 <= 0.0:
        return 0.0
    log_f2 = np.zeros_like(f2)
    pos = f2 > 0.0
    log_f2[pos] = np.log(f2[pos])
    return float(np.sum(pi * f2 * log_f2)) - n2 * np.log(n2)


def reference_descend(graph, f0):
    """The descent of one start: Barzilai-Borwein steps, each halved until
    the ratio drops, under the estimator's stopping rules."""
    pi = graph.pi
    f = f0 / math.sqrt(float(pi @ (f0 * f0)))
    energy, ent = reference_energy(graph, f), reference_entropy(pi, f)
    if ent < iso.ENTROPY_FLOOR:
        return math.inf, f
    ratio = 2.0 * energy / ent
    lap = graph.laplacian
    step = 0.1
    move = grad = None
    for _ in range(iso.LS_MAX_ITERS):
        f2 = f * f
        log_f2 = np.zeros_like(f2)
        log_f2[f2 > 0.0] = np.log(f2[f2 > 0.0])
        grad_energy = 2.0 * (lap @ f)
        grad_ent = 2.0 * pi * f * (log_f2 - math.log(float(pi @ f2)))
        new = (2.0 * grad_energy * ent - 2.0 * energy * grad_ent) / (ent * ent)
        if move is not None:
            # Barzilai-Borwein step of the last accepted move
            y = new - grad
            sy = move @ y
            with np.errstate(divide="ignore", invalid="ignore"):
                bb = sy / (y @ y)
            if sy > 0.0 and np.isfinite(bb):
                step = bb
        grad = new
        accepted = False
        for _ in range(60):
            cand = f - step * grad
            cand = cand / math.sqrt(float(pi @ (cand * cand)))
            c_energy, c_ent = reference_energy(graph, cand), reference_entropy(pi, cand)
            if c_ent >= iso.ENTROPY_FLOOR and 2.0 * c_energy / c_ent < ratio - 1e-18:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        new_ratio = 2.0 * c_energy / c_ent
        rel = (ratio - new_ratio) / max(abs(ratio), 1e-30)
        move = cand - f
        f, ratio, energy, ent = cand, new_ratio, c_energy, c_ent
        step *= 1.25
        if rel < iso.LS_TOL:
            break
    return ratio, f


def reference_starts(graph, seed):
    rng = np.random.default_rng(seed)
    n = graph.n
    starts = [np.ones(n) + 0.1 * bp.eigendecompose(graph).eigenfunctions[:, 1]]
    half = iso.LS_RESTARTS // 2
    starts += [np.ones(n) + 0.2 * rng.standard_normal(n) for _ in range(half)]
    starts += [rng.standard_normal(n) for _ in range(iso.LS_RESTARTS - half)]
    return starts


def reference_estimate(graph, seed):
    """Best ratio, witness and start count of the starts run one at a time."""
    starts = reference_starts(graph, seed)
    best, witness = math.inf, None
    for f0 in starts:
        ratio, f = reference_descend(graph, f0)
        if ratio < best:
            best, witness = ratio, f
    return best, witness, len(starts)


def _random_weighted(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(v, v + 1, 1.0) for v in range(n - 1)]
    edges += [(u, v, float(rng.uniform(0.1, 3.0)))
              for u in range(n) for v in range(u + 2, n) if rng.random() < 0.4]
    return bp.build_graph(n, edges)


def _power(g, k):
    return bp.cartesian_power(g, k).to_weighted_graph()


REFERENCE_GRAPHS = {
    "K2": lambda: bp.complete_graph(2),
    "K3": lambda: bp.complete_graph(3),
    "K5": lambda: bp.complete_graph(5),
    "K5-e": lambda: bp.build_graph(5, [(u, v, 1.0) for u in range(5)
                                       for v in range(u + 1, 5) if (u, v) != (0, 1)]),
    "K2^2": lambda: _power(bp.complete_graph(2), 2),
    "K3^2": lambda: _power(bp.complete_graph(3), 2),
    "K4^2": lambda: _power(bp.complete_graph(4), 2),
    "C5": lambda: bp.cycle_graph(5),
    "P3^2": lambda: _power(bp.path_graph(3), 2),
    "necklace:5": lambda: bp.build_necklace(5),
    "random6": lambda: _random_weighted(6, 11),
    "random9": lambda: _random_weighted(9, 12),
}


def generate() -> str:
    """The text of DATA, computed with the reference descent: per graph and
    seed, ``float.hex(alpha_hat)``, the witness bytes as hex and the
    number of starts."""
    data = {}
    for name in SAVED:
        graph = REFERENCE_GRAPHS[name]()
        data[name] = {}
        for seed in SEEDS:
            best, witness, restarts = reference_estimate(graph, seed)
            data[name][str(seed)] = {"alpha_hat": float.hex(best),
                                     "witness": witness.tobytes().hex(),
                                     "restarts": restarts}
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    text = generate()
    if "--check" in sys.argv:
        sys.exit(0 if text == DATA.read_text() else 1)
    DATA.write_text(text)
