"""Graph families and sampling estimators for the tightness experiments.

The necklace graph is the quotient of the R-cube (minus the two
monochromatic strings) by cyclic rotation, with edge masses
proportional to the number of cube edges joining two classes.  The
consecutive-ones predicate on tuples of classes drives the sampled
influence experiments at sizes where dense tables are impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (DENSE_CAP, WeightedGraph, _from_arrays, complete_graph,
                     cycle_graph, path_graph, require_base_within)

NECKLACE_MAX_R = 20


def _rotate1(values: np.ndarray, width: int) -> np.ndarray:
    mask = (1 << width) - 1
    return ((values >> 1) | ((values & 1) << (width - 1))) & mask


def _rotation_classes(width: int):
    """Canonical (minimal) rotation of every width-bit string, and the
    ascending canonical representatives of the classes other than the two
    monochromatic strings (the first and the last)."""
    canon = np.arange(1 << width, dtype=np.int64)
    cur = canon.copy()
    for _ in range(width - 1):
        cur = _rotate1(cur, width)
        canon = np.minimum(canon, cur)
    return canon, np.unique(canon[1:-1])


def necklace_size(r: int) -> int:
    """Vertex count of ``build_necklace(r)``: the binary necklaces of
    length r (Burnside's count) less the two monochromatic strings."""
    if r < 3:
        raise ValueError("necklace needs r >= 3")
    if r > NECKLACE_MAX_R:
        raise ValueError(f"necklace limited to r <= {NECKLACE_MAX_R}")
    return sum(2 ** math.gcd(i, r) for i in range(r)) // r - 2


def build_necklace(r: int) -> WeightedGraph:
    """Quotient of the r-cube minus monochromatic strings by rotation.

    Vertices are rotation classes (canonical representative = minimal
    rotation); the mass of a class pair is proportional to the number of
    cube edges between the classes, and the vertex measure follows from
    consistency.
    """
    n_cls = necklace_size(r)
    canon, classes = _rotation_classes(r)
    # cube edges along bit 0 whose ends both survive: (s, s + 1), s even.
    # A rotation carries the edges along any bit onto those along the next
    # without changing their classes, so every bit adds the same pair
    # counts, and after normalizing, the bit-0 counts are the masses.
    even = np.arange(2, (1 << r) - 2, 2, dtype=np.int64)
    a = np.searchsorted(classes, canon[even])
    c = np.searchsorted(classes, canon[even + 1])
    pairs, mult = np.unique(np.minimum(a, c) * n_cls + np.maximum(a, c),
                            return_counts=True)
    return _from_arrays(n_cls, pairs // n_cls, pairs % n_cls, mult, normalize=True)


def necklace_classes(r: int) -> np.ndarray:
    """Canonical representatives of the rotation classes, ascending."""
    return _rotation_classes(r)[1]


def _has_cyclic_run(values: np.ndarray, r: int, run: int) -> np.ndarray:
    """Whether each r-bit string has >= run cyclically consecutive ones."""
    acc = values.copy()
    cur = values.copy()
    for _ in range(run - 1):
        cur = _rotate1(cur, r)
        acc = acc & cur
    return acc != 0


@dataclass(frozen=True, eq=False)
class ConsecutiveOnesFunction:
    """Boolean predicate on tuples of necklace classes: +1 iff some
    coordinate's class has ceil(log2(k*r)) cyclically consecutive ones."""

    run_length: int
    class_has_run: np.ndarray

    def __post_init__(self):
        self.class_has_run.setflags(write=False)

    def __call__(self, tuples: np.ndarray) -> np.ndarray:
        """+1 or -1 for each row of a (samples, k) array of class indices."""
        hits = self.class_has_run[tuples].any(axis=1)
        return np.where(hits, 1.0, -1.0)


def consecutive_ones_function(r: int, k: int,
                              graph: WeightedGraph) -> ConsecutiveOnesFunction:
    if k * r < 4:
        raise ValueError("need k*r >= 4")
    run = math.ceil(math.log2(k * r))
    reps = necklace_classes(r)
    if len(reps) != graph.n:
        raise ValueError("graph does not match necklace(r)")
    return ConsecutiveOnesFunction(
        run_length=run, class_has_run=_has_cyclic_run(reps, r, run))


# -- sampling estimators ---------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    half_width: float


def influence_monte_carlo(fn, graph: WeightedGraph, k: int, j: int,
                          samples: int, seed: int) -> MonteCarloEstimate:
    """Unbiased sampled estimate of the directional energy along j.

    Draws the off-coordinate tuple from the product vertex measure and a
    base edge from the edge measure; averages half the squared function
    difference across the edge.  ``fn`` maps a (samples, k) array of
    index tuples to an array of {-1,+1} values.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xs = rng.choice(graph.n, size=(samples, k), p=graph.pi)
    edges = rng.choice(graph.num_edges, size=samples, p=graph.edge_w)
    xu = xs.copy()
    xv = xs.copy()
    xu[:, j] = graph.edge_u[edges]
    xv[:, j] = graph.edge_v[edges]
    z = 0.5 * (fn(xu) - fn(xv)) ** 2
    est = float(z.mean())
    spread = float(z.std(ddof=1)) if samples > 1 else 0.0
    return MonteCarloEstimate(estimate=est,
                              half_width=1.96 * spread / math.sqrt(samples))


def probability_minus_one(fn, graph: WeightedGraph, k: int,
                          samples: int, seed: int) -> MonteCarloEstimate:
    """Sampled probability that the predicate evaluates to -1 under the
    product vertex measure; ``fn`` as for ``influence_monte_carlo``."""
    rng = np.random.default_rng(seed)
    xs = rng.choice(graph.n, size=(samples, k), p=graph.pi)
    hits = (fn(xs) < 0).astype(np.float64)
    p = float(hits.mean())
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return MonteCarloEstimate(estimate=p, half_width=se)


# -- builtin registry -------------------------------------------------------------

# family -> (vertex count from the parameter, constructor)
_BUILTINS = {
    "kq": (int, complete_graph),
    "cycle": (int, cycle_graph),
    "path": (int, path_graph),
    "necklace": (necklace_size, build_necklace),
}


def named_graph(spec: str, max_dense: int = DENSE_CAP) -> WeightedGraph:
    """Builtin graphs: k2 | kq:<q> | cycle:<n> | path:<n> | necklace:<R>.
    One whose n x n Laplacian would pass ``max_dense`` entries is refused
    before any edge is built."""
    name, _, arg = spec.partition(":")
    if name == "k2":
        name, arg = "kq", "2"
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin graph {spec!r}")
    size, build = _BUILTINS[name]
    param = int(arg)
    require_base_within(size(param), max_dense)
    return build(param)
