"""Weighted graphs with probability measures and their Cartesian powers.

A graph carries an edge measure ``mu`` (a probability distribution on
unordered vertex pairs) and a vertex measure ``pi`` fixed by the
consistency rule ``2*pi(v) = sum_u mu({u,v})``, which makes ``pi`` the
stationary distribution of the random walk driven by ``mu``.  Function
space inner products are always taken against ``pi``; the Dirichlet
energy ``f.L.f`` of the normalized Laplacian equals half the expected
squared edge difference under ``mu``.

The k-fold Cartesian power is kept implicit: vertices are k-tuples of
base vertices, and all product measures are derived from base data.
Dense operations are only allowed while ``n**k`` stays under a
configurable cap.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

DENSE_CAP = 1 << 22

# slack of every exact-recomputation check; reports state it as check_abs
CHECK_SLACK = 1e-9


class DenseCapError(RuntimeError):
    """Raised when a dense operation would exceed the product-size cap."""


def require_base_within(n: int, cap: int):
    """Refuse a base graph whose n x n Laplacian would pass ``cap``
    entries, before anything of that size is built."""
    if n * n > cap:
        raise DenseCapError(f"a base graph of {n} vertices exceeds the dense cap "
                            f"{cap}: its Laplacian holds n^2 entries")


def power_at_most(n: int, k: int, limit: int) -> bool:
    """``n ** k <= limit`` for a graph size ``n >= 2``, stopping once a
    partial power passes ``limit`` so that a huge ``k`` builds no huge
    integer."""
    power = 1
    for _ in range(k):
        power *= n
        if power > limit:
            return False
    return power <= limit


class Record:
    """Base of the package's records: each ``__init__`` sets the fields
    once through ``vars(self).update``, and assigning or deleting an
    attribute raises AttributeError.  ``cached_property`` writes the
    instance dict directly, so lazy fields still work.  Plain classes, not
    ``dataclasses``: generating their methods took most of the package's
    import time."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


class WeightedGraph(Record):
    """Connected undirected graph with normalized edge/vertex measures.

    Edges are stored as parallel arrays (``edge_u[i] < edge_v[i]``) with
    masses ``edge_w`` summing to one.  The dense Laplacian and the
    spectral basis are built lazily, once, so that large sampled-only
    graphs stay cheap.
    """

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                 edge_w: np.ndarray, pi: np.ndarray):
        for arr in (edge_u, edge_v, edge_w, pi):
            arr.setflags(write=False)
        vars(self).update(n=n, edge_u=edge_u, edge_v=edge_v, edge_w=edge_w, pi=pi)

    @property
    def num_edges(self) -> int:
        return len(self.edge_w)

    @cached_property
    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n, self.n))
        half = self.edge_w / 2.0
        lap[self.edge_u, self.edge_v] = -half
        lap[self.edge_v, self.edge_u] = -half
        lap[np.arange(self.n), np.arange(self.n)] = self.pi
        lap.setflags(write=False)
        return lap

    @cached_property
    def basis(self):
        """The graph's ``spectral.SpectralBasis``, solved once."""
        from . import spectral  # spectral imports this module
        return spectral.eigendecompose(self)

    # -- function-space primitives under the vertex measure -----------------

    def variance(self, f: np.ndarray) -> float:
        m = float(np.sum(self.pi * f))
        return float(np.sum(self.pi * f * f)) - m * m

    def dirichlet(self, f: np.ndarray):
        """Energy form of f, or an array of it for each row of f: half the
        mu-expectation of (f(u)-f(v))^2, each row summed as if alone."""
        d = np.take(f, self.edge_u, axis=-1) - np.take(f, self.edge_v, axis=-1)
        return 0.5 * (self.edge_w * d * d).sum(axis=-1)


def log0(x):
    """Elementwise log with log(0) = 0, for the 0*log(0) = 0 convention."""
    return np.log(x, out=np.zeros(np.shape(x)), where=x > 0.0)


def entropy_sq(pi: np.ndarray, f: np.ndarray):
    """Entropy of f^2, or of each row's square, under pi; 0*log(0) = 0."""
    f2 = f * f
    n2 = (pi * f2).sum(axis=-1)
    return (pi * f2 * log0(f2)).sum(axis=-1) - n2 * log0(n2)


def _connected_components(edge_u, edge_v):
    """Components of the vertices some edge touches, each sorted, in
    sorted order; the work and memory grow with the edges, not with n."""
    touched, ends = np.unique(np.concatenate((edge_u, edge_v)), return_inverse=True)
    parent = list(range(len(touched)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in ends.reshape(2, -1).T.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for a, v in enumerate(touched.tolist()):
        comps.setdefault(find(a), []).append(v)
    return sorted(comps.values())


def _from_arrays(n, edge_u, edge_v, edge_w, *, normalize, check_connected=True):
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    edge_w = np.asarray(edge_w, dtype=np.float64)
    order = np.lexsort((edge_v, edge_u))
    edge_u, edge_v, edge_w = edge_u[order], edge_v[order], edge_w[order]
    if normalize:
        with np.errstate(over="ignore"):
            total = edge_w.sum()
        if not np.isfinite(total):
            raise ValueError("total edge weight overflows")
        edge_w = edge_w / total
    if check_connected:
        comps = _connected_components(edge_u, edge_v)
        isolated = n - sum(map(len, comps))
        if len(comps) != 1 or isolated:
            rest = (f" plus {isolated} isolated vert{'ex' if isolated == 1 else 'ices'}"
                    if isolated else "")
            raise ValueError(f"graph is disconnected; components: {comps}{rest}")
    pi = np.zeros(n)
    np.add.at(pi, edge_u, edge_w / 2.0)
    np.add.at(pi, edge_v, edge_w / 2.0)
    return WeightedGraph(n=n, edge_u=edge_u, edge_v=edge_v, edge_w=edge_w, pi=pi)


def build_graph(n: int, edges) -> WeightedGraph:
    """Build a graph from (u, v, weight) triples.

    Weights are renormalized so the edge masses form a probability
    distribution; the vertex measure is derived from the consistency
    rule.  Self-loops, duplicate pairs, non-finite or nonpositive
    weights and disconnected graphs are rejected.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    seen = set()
    eu, ev, ew = [], [], []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w} on edge ({u}, {v})")
        if w <= 0:
            raise ValueError(f"nonpositive weight {w} on edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        eu.append(key[0])
        ev.append(key[1])
        ew.append(w)
    if not eu:
        raise ValueError("graph has no edges")
    return _from_arrays(n, eu, ev, ew, normalize=True)


# -- builtin families --------------------------------------------------------

def complete_graph(q: int) -> WeightedGraph:
    if q < 2:
        raise ValueError("complete graph needs q >= 2")
    edges = [(u, v, 1.0) for u in range(q) for v in range(u + 1, q)]
    return build_graph(q, edges)


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def path_graph(n: int) -> WeightedGraph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


# -- k-fold Cartesian power --------------------------------------------------

class ProductGraph(Record):
    """Implicit k-fold Cartesian power of a base graph.

    Vertices are k-tuples of base vertices (row-major flat indexing,
    coordinate 0 slowest).  Nothing of size ``n**k x n**k`` is ever
    materialized; the dense cap only gates length-``n**k`` objects.
    """

    def __init__(self, base: WeightedGraph, k: int, dense_cap: int = DENSE_CAP):
        if k < 1:
            raise ValueError("power k must be >= 1")
        vars(self).update(base=base, k=k, dense_cap=dense_cap, _pi_powers=[])

    @property
    def num_vertices(self) -> int:
        return self.base.n ** self.k

    @property
    def shape(self) -> tuple:
        return (self.base.n,) * self.k

    @property
    def within_cap(self) -> bool:
        return power_at_most(self.base.n, self.k, self.dense_cap)

    def require_dense(self):
        if not self.within_cap:
            raise DenseCapError(
                f"n^k = {self.base.n}^{self.k} exceeds the dense cap "
                f"{self.dense_cap}; use the Monte-Carlo estimators instead"
            )

    def _pi_power(self, m: int) -> np.ndarray:
        """Read-only kron power ``pi^{(x)m}``, built once from the power below
        it: entry by entry the left-to-right product of ``np.kron``."""
        powers = self._pi_powers
        while len(powers) <= m:
            out = (np.multiply.outer(powers[-1], self.base.pi).ravel()
                   if powers else np.ones(1))
            out.setflags(write=False)
            powers.append(out)
        return powers[m]

    def pi_product(self) -> np.ndarray:
        """Flat product vertex measure (row-major, read-only, cached)."""
        self.require_dense()
        return self._pi_power(self.k)

    def pi_rest(self) -> np.ndarray:
        """Flat product measure of the k - 1 coordinates besides any one j."""
        if not power_at_most(self.base.n, self.k - 1, self.dense_cap):
            raise DenseCapError("n^(k-1) exceeds the dense cap")
        return self._pi_power(self.k - 1)

    def fibres(self, values: np.ndarray, j: int) -> np.ndarray:
        """The flat table ``values`` as an (n, n^j, n^(k-1-j)) strided view,
        no copy: row u holds the vertices whose coordinate j is u, and
        ``row.reshape(-1)`` lists the other coordinates in ``pi_rest`` order."""
        return values.reshape(self.base.n ** j, self.base.n, -1).swapaxes(0, 1)

    def dense_edges(self):
        """All product edges as flat-index arrays (u, v, mass): coordinate
        by coordinate, base edge by base edge, the other coordinates in
        ``pi_rest`` order."""
        self.require_dense()
        base = self.base
        flat = np.arange(self.num_vertices, dtype=np.int64)
        w = (base.edge_w / self.k)[:, None] * self.pi_rest()
        us, vs = [], []
        for j in range(self.k):
            index = self.fibres(flat, j)
            us.append(index[base.edge_u].ravel())
            vs.append(index[base.edge_v].ravel())
        return np.concatenate(us), np.concatenate(vs), np.tile(w.ravel(), self.k)

    def to_weighted_graph(self, max_vertices: int = 1 << 16) -> WeightedGraph:
        """Materialize the product as an explicit WeightedGraph."""
        if not power_at_most(self.base.n, self.k, max_vertices):
            raise DenseCapError(
                f"refusing to materialize n^k = {self.base.n}^{self.k} vertices "
                f"(limit {max_vertices})"
            )
        if self.k == 1:
            return self.base
        # base edges have u < v, so every product edge keeps eu < ev
        eu, ev, ew = self.dense_edges()
        return _from_arrays(self.num_vertices, eu, ev, ew,
                            normalize=False, check_connected=False)


def cartesian_power(base: WeightedGraph, k: int,
                    dense_cap: int = DENSE_CAP) -> ProductGraph:
    """Implicit handle on the k-fold Cartesian power of ``base``."""
    return ProductGraph(base=base, k=k, dense_cap=dense_cap)


# -- JSON interchange --------------------------------------------------------

def graph_to_dict(graph: WeightedGraph) -> dict:
    return {
        "n": graph.n,
        "edges": [
            [int(u), int(v), float(w)]
            for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w)
        ],
    }


def graph_from_dict(data: dict) -> WeightedGraph:
    return build_graph(json_int(data["n"], "n"), [
        (json_int(u, "an edge endpoint"), json_int(v, "an edge endpoint"),
         json_number(w, "an edge's weight")) for u, v, w in data["edges"]])


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a bool, a real, a string or any
    other value raises TypeError, which ``read_json`` reports."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return value


def json_number(value, what: str) -> float:
    """``value``, a JSON integer or real, as a float; a bool, a string or
    any other value raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, not {value!r}")
    return float(value)


def read_json(path, parse, *args):
    """``parse(document, *args)`` of a JSON file; a document of the wrong
    shape (a list for an object, a missing key, a null or a string for a
    number) or with a number too large for a float raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data, *args)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed document in {path}: "
                         f"{type(exc).__name__}: {exc}") from exc


def json_text(data) -> str:
    """The one file format of reports and written inputs: sorted-key JSON,
    indented by 2, plus a newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json(data, path):
    """Write ``data`` to ``path`` in the ``json_text`` format."""
    with open(path, "w") as fh:
        fh.write(json_text(data))


def load_graph(path) -> WeightedGraph:
    return read_json(path, graph_from_dict)
