"""Sparsest-cut SDP machinery: the spectrally solvable basic relaxation,
direct-sum vector lifting to Cartesian powers, and verified liftings of
local-distribution and parity-set hierarchy solutions.

Every lifting scales direct sums by 1/sqrt(k), the unique normalization
under which inner products average over coordinates, the spread
constraint is preserved exactly, and the lifted objective equals the
base objective divided by k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import CHECK_SLACK, ProductGraph, WeightedGraph, power_at_most

# tolerance of the moment-matrix factorization of level-2 tables
FACTOR_TOL = 1e-7
LIFT_MAX_VERTICES = 1 << 10
LIFT_MAX_SETS = 20000
# rows of x per block of the triangle scan
TRIANGLE_BLOCK = 64
# ordered triples the triangle check scans, or samples beyond
TRIANGLE_BUDGET = 2_000_000
# pairs per block of the batched delta check, which bounds its temporaries
VERIFY_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """One embedding vector per vertex (rows)."""

    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array (vertices x dim)")
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T

    def objective(self, graph: WeightedGraph) -> float:
        """Expected squared edge distance under the edge measure."""
        diff = self.vectors[graph.edge_u] - self.vectors[graph.edge_v]
        return float(np.sum(graph.edge_w * np.sum(diff * diff, axis=1)))

    def spread(self, graph: WeightedGraph) -> float:
        """Expected squared distance between two independent pi-vertices."""
        second = float(graph.pi @ np.sum(self.vectors ** 2, axis=1))
        mean_vec = graph.pi @ self.vectors
        return 2.0 * (second - float(mean_vec @ mean_vec))

    def is_feasible(self, graph: WeightedGraph) -> bool:
        return abs(self.spread(graph) - 1.0) <= CHECK_SLACK

    def unit_norms(self) -> bool:
        norms = np.sum(self.vectors ** 2, axis=1)
        return bool(np.all(np.abs(norms - 1.0) <= CHECK_SLACK))

    def squared_distances(self) -> np.ndarray:
        g = self.gram()
        d = np.diag(g)
        return d[:, None] + d[None, :] - 2.0 * g


def basic_sdp_opt(graph: WeightedGraph):
    """Optimum of the basic spread-normalized relaxation.

    Equals the spectral gap; the witness is the gap eigenfunction as a
    one-dimensional embedding scaled to unit spread.
    """
    opt = graph.basis.lambda1
    vec = graph.basis.eigenfunctions[:, 1].copy()
    sol = SdpSolution(vectors=(vec / math.sqrt(2.0))[:, None])
    if abs(sol.spread(graph) - 1.0) > CHECK_SLACK:
        raise AssertionError("witness embedding misses the spread constraint")
    if abs(sol.objective(graph) - opt) > CHECK_SLACK:
        raise AssertionError("witness objective does not match the optimum")
    return opt, sol


@dataclass(frozen=True, eq=False)
class LiftedSolution(SdpSolution):
    """A direct-sum lift and the objectives and spread its checks computed."""

    objective_base: float
    objective_lifted: float
    spread_lifted: float


def lift_vectors(sol: SdpSolution, product: ProductGraph) -> LiftedSolution:
    """Direct-sum lifting: product vertex x gets (1/sqrt(k)) (+) v_{x_j}.

    Materializes ``product`` under LIFT_MAX_VERTICES, so a larger product
    is refused before the solution is checked, then verifies two lifting
    identities: Gram entries average the coordinate Gram entries, and
    spread stays 1.  The third, that the objective drops by exactly the
    factor k, is the report's to check on the objectives returned.
    """
    dense = product.to_weighted_graph(max_vertices=LIFT_MAX_VERTICES)
    base = product.base
    if not sol.is_feasible(base):
        raise ValueError("input solution violates the spread constraint")
    k = product.k
    coords = np.array(_product_vertices(product))
    out = SdpSolution(vectors=_direct_sum(sol.vectors, coords))

    base_gram = sol.gram()
    want = sum(base_gram[np.ix_(c, c)] for c in coords.T) / k
    if float(np.abs(out.gram() - want).max()) > CHECK_SLACK:
        raise AssertionError("lifted Gram is not the coordinate mean")
    spread = out.spread(dense)
    if abs(spread - 1.0) > CHECK_SLACK:
        raise AssertionError("lifted solution violates the spread constraint")
    objective, base_objective = out.objective(dense), sol.objective(base)
    return LiftedSolution(vectors=out.vectors, objective_base=base_objective,
                          objective_lifted=objective, spread_lifted=spread)


@dataclass(frozen=True, eq=False)
class TriangleReport:
    count: int
    checked: int
    partial: bool


def _product_vertices(product: ProductGraph) -> list:
    """Vertex tuples of the product in flat-index order (sorted)."""
    return list(itertools.product(range(product.base.n), repeat=product.k))


def _subsets(vertices, low: int, level: int) -> list:
    """Every set of ``low..level`` of ``vertices`` as a tuple, by size and
    then lexicographically in the order of ``vertices`` (a sequence).

    Sizes above ``len(vertices)`` hold no set and are skipped, since
    ``combinations`` allocates ``size`` slots even then."""
    return [subset for size in range(low, min(level, len(vertices)) + 1)
            for subset in itertools.combinations(vertices, size)]


def _family_size(n: int, low: int, level: int) -> int:
    """Number of sets ``_subsets`` lists for ``n`` vertices."""
    return sum(math.comb(n, m) for m in range(low, min(level, n) + 1))


def _require_liftable(n: int, low: int, level: int, k: int = 1):
    """Refuse a family of more than ``LIFT_MAX_SETS`` sets of ``low..level``
    of the ``n**k`` vertices of G^k before any set is listed.

    From level 1 on the family holds every singleton, so more vertices than
    the cap are refused without computing n**k; below level 1 the family
    holds at most the empty set."""
    if level >= 1 and not (power_at_most(n, k, LIFT_MAX_SETS)
                           and _family_size(n ** k, low, level) <= LIFT_MAX_SETS):
        raise ValueError("too many product subsets at this level")


def _direct_sum(vectors: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Row i is (1/sqrt(k)) (+)_j vectors[coords[i, j]]."""
    scale = 1.0 / math.sqrt(coords.shape[1])
    return np.concatenate(
        [scale * vectors[coords[:, j]] for j in range(coords.shape[1])], axis=1)


def _triangle_scan(dist) -> int:
    """Count ordered triples (x, y, z) with d(x,z) - d(x,y) - d(y,z) beyond
    CHECK_SLACK."""
    n = dist.shape[0]
    count = 0
    for x0 in range(0, n, TRIANGLE_BLOCK):
        xs = np.arange(x0, min(x0 + TRIANGLE_BLOCK, n))
        slack = dist[xs][:, None, :] - dist[xs][:, :, None] - dist[None, :, :]
        count += int((slack > CHECK_SLACK).sum())
    return count


def check_triangle(sol: SdpSolution, *, seed: int = 0) -> TriangleReport:
    """Scan ordered vertex triples for squared-distance triangle
    violations; samples TRIANGLE_BUDGET triples with a seed when the full
    scan exceeds it."""
    dist = sol.squared_distances()
    n = sol.n
    total = n ** 3
    if total <= TRIANGLE_BUDGET:
        return TriangleReport(count=_triangle_scan(dist), checked=total,
                              partial=False)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, n, size=TRIANGLE_BUDGET)
    ys = rng.integers(0, n, size=TRIANGLE_BUDGET)
    zs = rng.integers(0, n, size=TRIANGLE_BUDGET)
    slack = dist[xs, zs] - dist[xs, ys] - dist[ys, zs]
    return TriangleReport(count=int((slack > CHECK_SLACK).sum()),
                          checked=TRIANGLE_BUDGET, partial=True)


# -- local distributions (Sherali-Adams style) -----------------------------------

def _by_code(rows):
    """The rows end to end, and where each set's row starts, by its ``_parity_codes`` code."""
    width = np.repeat([0] + [r.shape[1] for r in rows], [1] + [len(r) for r in rows])
    return np.concatenate([r.ravel() for r in rows]), np.cumsum(width) - width


def _pair_moments(ld: LocalDistributions):
    """Rows x and y (positions in ``ld.vertices``) of every pair and its
    correlation E[z_x z_y], one left fold over the patterns ++, +-, -+, --."""
    pairs, p = ((ld.sets[1], ld.rows[1].T) if len(ld.rows) > 1
                else (np.zeros((0, 2), dtype=np.int64), np.zeros((4, 0))))
    return pairs[:, 0], pairs[:, 1], ((p[0] - p[1]) - p[2]) + p[3]


@dataclass(frozen=True, eq=False)
class LocalDistributions:
    """Level-t family, complete by construction: ``rows[m - 1]`` holds a
    probability row for each m-set of ``sets[m - 1]`` (positions in the
    sorted ``vertices``, colex order), made zero and filled in place. A
    {-1,+1} assignment sigma sits at sum_i [sigma_i = -1] 2^(m-1-i): the
    file key read as binary, - as 1."""

    level: int
    vertices: list
    rows: tuple = field(init=False)

    def __post_init__(self):
        n = len(self.vertices)
        object.__setattr__(self, "rows", tuple(
            np.zeros((math.comb(n, m), 1 << m)) for m in range(1, min(self.level, n) + 1)))

    @functools.cached_property
    def sets(self) -> list:
        """The m-sets as (C(n, m), m) arrays of sorted rows, row r of colex rank
        r: the lex order of the sets listed from the top vertex down, reversed."""
        n = len(self.vertices)
        return [np.fromiter(itertools.chain.from_iterable(itertools.combinations(
            range(n - 1, -1, -1), m)), dtype=np.int64).reshape(-1, m)[::-1, ::-1]
            for m in range(1, len(self.rows) + 1)]

    @functools.cached_property
    def tables(self) -> dict:
        """The row of each set, keyed by the sorted tuple of its vertices."""
        return {tuple(self.vertices[v] for v in s): row
                for sets, rows in zip(self.sets, self.rows) for s, row in zip(sets.tolist(), rows)}

    def check_tables(self):
        for m, rows in enumerate(self.rows):
            total = rows.sum(axis=1)
            # written so that a NaN fails it
            bad = ~(np.abs(total - 1.0) <= CHECK_SLACK)
            # the first row that fails either check, if one does
            for i in np.flatnonzero(bad | (rows < -CHECK_SLACK).any(axis=1))[:1]:
                name = tuple(self.vertices[v] for v in self.sets[m][i].tolist())
                raise ValueError(f"table for {name} sums to {total[i]}" if bad[i]
                                 else f"negative probability in table for {name}")

    def check_marginal_consistency(self) -> float:
        """Max disagreement of each table's marginals with the rows of its
        proper nonempty sub-sets, found by their codes. The family is
        complete, so this gap g' and the max disagreement g of tables
        meeting in C satisfy g' <= g <= 2g'."""
        worst = 0.0
        flat, start = _by_code(self.rows)
        for sets, rows in zip(self.sets[1:], self.rows[1:]):
            m = sets.shape[1]
            for keep in _subsets(range(m), 1, m - 1):
                other = tuple(1 + i for i in range(m) if i not in keep)
                marginal = rows.reshape((-1,) + (2,) * m).sum(axis=other).reshape(len(rows), -1)
                at = start[_parity_codes(sets[:, keep, None], len(self.vertices))[:, 0]]
                sub = flat[at[:, None] + np.arange(marginal.shape[1])]
                # entries are finite (``check_tables``): the max is that of any order
                worst = max(worst, float(np.abs(marginal - sub).max()))
        return worst

    def check_vector_consistency(self, sol: SdpSolution) -> float:
        """Max gap between Gram entries and pair-correlation moments, the
        vertices taken in the rows of ``_pair_moments``."""
        x, y, corr = _pair_moments(self)
        # no pair table (a level-1 family): no n x n Gram matrix to build
        return float(np.abs(sol.gram()[x, y] - corr).max()) if len(x) else 0.0


def sa_from_distribution(dist: dict, n: int, level: int) -> LocalDistributions:
    """Exact marginals of a global distribution over {-1,+1}^n, each row
    summed over the outcomes in the order of ``dist``.

    A family over ``LIFT_MAX_SETS`` is refused before it is built: its
    lift to any power lists at least as many sets."""
    _require_liftable(n, 1, level)
    minus = np.array(list(dist)) < 0
    ld = LocalDistributions(level, list(range(n)))
    for sets, rows in zip(ld.sets, ld.rows):
        # the pattern of each set under each outcome, - read as 1
        weight = 1 << np.arange(sets.shape[1] - 1, -1, -1)
        for pattern, p in zip(minus[:, sets] @ weight, dist.values()):
            rows[np.arange(len(sets)), pattern] += p
    return ld


def _moment_vector(dist: dict, subset) -> np.ndarray:
    """Character of ``subset`` over the sorted outcomes, weighted by the
    square root of their probabilities."""
    return np.array([math.sqrt(dist[sigma]) * math.prod(sigma[v] for v in subset)
                     for sigma in sorted(dist)])


def vectors_from_distribution(dist: dict) -> SdpSolution:
    """Unit-norm vectors whose Gram matrix realizes the pair moments of a
    global distribution: coordinates indexed by outcomes, entry
    sqrt(p(sigma)) * sigma_x."""
    n = len(next(iter(dist)))
    return SdpSolution(vectors=np.array([_moment_vector(dist, (x,)) for x in range(n)]))


def vectors_from_local_tables(ld: LocalDistributions, n: int) -> SdpSolution:
    """Unit-norm vectors realizing the pair moments of level-2 tables.

    Factors the moment matrix (ones on the diagonal, pair correlations
    off it); fails when the tables admit no consistent vector family,
    i.e. the moment matrix is not positive semidefinite.
    """
    gram = np.eye(n)
    x, y, corr = _pair_moments(ld)
    gram[x, y] = gram[y, x] = corr
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() < -FACTOR_TOL:
        raise ValueError("local tables have no consistent vector family "
                         f"(moment matrix eigenvalue {evals.min():.2e})")
    vecs = evecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]
    if np.abs(vecs @ vecs.T - gram).max() > FACTOR_TOL:
        raise ValueError("moment matrix factorization failed")
    return SdpSolution(vectors=vecs)


def lift_sherali_adams(ld: LocalDistributions, sol: SdpSolution,
                       product: ProductGraph):
    """Lift local distributions and vectors to the product.

    The lifted table for a set T of product vertices is the uniform
    mixture over coordinates j of the base table on the j-th projection
    of T (duplicates collapsed); vectors lift by scaled direct sum.
    Requires unit-norm base vectors so collapsed coordinates stay
    consistent.  Returns the lifted pair plus the verifier gaps.
    """
    ld.check_tables()
    if not sol.unit_norms():
        raise ValueError("base vectors must be unit norm: a coordinate where two product "
                         "vertices agree contributes a correlation of exactly 1")
    n = product.base.n
    if sol.n != n:
        raise ValueError("solution size does not match the base graph")
    k = product.k
    _require_liftable(n, 1, ld.level, k)
    # one listing of the vertices serves the family and the direct sum
    vertices = _product_vertices(product)
    coords = np.array(vertices)
    flat, start = _by_code(ld.rows)
    lifted_ld = LocalDistributions(ld.level, vertices)
    for sets, lifted in zip(lifted_ld.sets, lifted_ld.rows):
        m = sets.shape[1]
        patterns = np.arange(1 << m)
        # the base vertices of each set (rows) in each coordinate (last axis)
        column = coords[sets]
        ranked = np.sort(column, axis=1)
        # each collapsed set, repeats replaced by n so that parity is presence
        distinct = np.where(np.diff(ranked, axis=1, prepend=-1) != 0, ranked, n)
        at = start[_parity_codes(distinct, n)]
        # slot i of a set reads the bit of its collapsed set's patterns that
        # stands for its vertex: bit above[i], the vertices above it counted
        above = ((distinct[:, None] > column[:, :, None]) & (distinct[:, None] < n)).sum(axis=2)
        for j in range(k):
            # base pattern tau fixes the lifted pattern of those bits; the
            # inconsistent lifted patterns stay 0.0
            bits = (patterns[:, None] >> above[:, None, :, j]) & 1
            fixed = bits @ (1 << np.arange(m - 1, -1, -1))
            s, tau = np.nonzero(patterns < (2 << above[:, :, j].max(axis=1, keepdims=True)))
            lifted[s, fixed[s, tau]] += flat[at[s, j] + tau] / k
    lifted_sol = SdpSolution(vectors=_direct_sum(sol.vectors, coords))

    lifted_ld.check_tables()
    marginal_gap = lifted_ld.check_marginal_consistency()
    vector_gap = lifted_ld.check_vector_consistency(lifted_sol)
    return lifted_ld, lifted_sol, marginal_gap, vector_gap


# -- parity-set hierarchy (Lasserre style) ----------------------------------------

@dataclass(frozen=True, eq=False)
class SetVectorSolution:
    """Level-t family of vectors indexed by vertex subsets (including the
    empty set), constrained so inner products depend only on the
    symmetric difference of the index sets."""

    level: int
    vectors: dict

    def subsets(self):
        return sorted(self.vectors.keys(), key=lambda s: (len(s), s))

    def check_delta_consistency(self) -> float:
        """Max inner-product spread within a symmetric-difference class;
        equivalent to checking every quadruple with equal differences.

        The rows are taken in blocks. A block is paired with itself, each
        unordered pair once, and then with every row after it: the pair
        (j, i) would repeat the class and, bit for bit, the value of (i, j).
        Sets share vectors: a block takes its distinct vectors against those
        it or a later row holds (at most rows x n values), gathered by ids.
        ``np.vecdot`` runs the inner loop of ``np.dot``, so every value
        equals the per-pair ``np.dot`` exactly; a GEMM Gram would not.  Each
        block is reduced to per-class extremes, and the reductions are merged
        once they hold as many classes as the merged result, and at the end.
        """
        keys = self.subsets()
        vecs = np.stack([self.vectors[s] for s in keys])
        # each set gets the id of its vector's bytes
        index: dict = {}
        ids = np.array([index.setdefault(v.tobytes(), len(index)) for v in vecs])
        distinct = vecs[np.unique(ids, return_index=True)[1]]
        # symmetric differences as XORs of packed membership words, one array each
        words = list(np.packbits(_membership(keys), axis=1).view(np.uint64).T.copy())
        rows = max(1, VERIFY_BLOCK_ENTRIES // len(keys))
        parts = []
        for r0 in range(0, len(keys), rows):
            r1 = min(r0 + rows, len(keys))
            own, at = np.unique(ids[r0:r1], return_inverse=True)
            # ids number the vectors by first row: columns below the least id from
            # r0 on are never read (all of them before r0 when no vector repeats)
            least = ids[r0:].min()
            gram = np.vecdot(distinct[own, None, :], distinct[None, least:, :])
            i, j = np.triu_indices(r1 - r0)
            parts.append(_class_extremes([w[r0 + i] ^ w[r0 + j] for w in words],
                                         gram[at[i], ids[r0 + j] - least]))
            if r1 < len(keys):
                parts.append(_class_extremes(
                    [(w[r0:r1, None] ^ w[None, r1:]).ravel() for w in words],
                    gram[at][:, ids[r1:] - least].ravel()))
            if len(parts) > 1 and (r1 == len(keys) or sum(
                    len(p[1]) for p in parts[1:]) >= len(parts[0][1])):
                # each concatenation is an argument of its own, freed once sorted
                parts = [_class_extremes(
                    [np.concatenate(c) for c in zip(*(p[0] for p in parts))],
                    np.concatenate([p[1] for p in parts]),
                    np.concatenate([p[2] for p in parts]))]
        _, high, low = parts[0]
        return max(0.0, float((high - low).max()))


def _membership(keys) -> np.ndarray:
    """Boolean (sets x elements) membership rows, the element columns
    padded with zeros to a positive multiple of 64, so they pack into
    whole 64-bit words."""
    column: dict = {}
    cols = [column.setdefault(v, len(column)) for s in keys for v in s]
    width = max(1, -(-len(column) // 64)) * 64
    member = np.zeros((len(keys), width), dtype=bool)
    member[np.repeat(np.arange(len(keys)), [len(s) for s in keys]), cols] = True
    return member


def _class_extremes(words: list, high, low=None):
    """One class per distinct key, given as one array per word: its words,
    the max of ``high`` and the min of ``low`` (default ``high``) over its
    entries.  One word is its own sort key; more are sorted word by word."""
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    words = [w[order] for w in words]
    start = np.flatnonzero(np.concatenate(
        ([True], np.logical_or.reduce([w[1:] != w[:-1] for w in words]))))
    high = high[order]
    low = high if low is None else low[order]
    return ([w[start] for w in words], np.maximum.reduceat(high, start),
            np.minimum.reduceat(low, start))


def _parity_codes(coords: np.ndarray, n: int) -> np.ndarray:
    """Code of the parity set of each column of ``coords`` (sets x slots x
    coordinates, empty slots holding n, which is no base vertex): the base
    vertices met an odd number of times.

    An m-set {v_1 < ... < v_m} gets the number of sets of fewer than m of
    the n vertices plus its colex rank sum_i C(v_i, i). So distinct sets get
    distinct codes, each below the number of sets of at most as many
    vertices as there are slots, a count the set cap bounds."""
    width = coords.shape[1]
    coords = np.sort(coords, axis=1)
    odd = (coords[:, :, None] == coords[:, None, :]).sum(axis=2) % 2 == 1
    first = np.diff(coords, axis=1, prepend=-1) != 0
    keep = odd & first & (coords < n)
    binom = np.array([[math.comb(v, i) for i in range(width + 1)] for v in range(n + 1)])
    below = np.cumsum([0] + [math.comb(n, m) for m in range(width)])
    ranked = np.where(keep, binom[coords, np.cumsum(keep, axis=1)], 0)
    return below[keep.sum(axis=1)] + ranked.sum(axis=1)


def lasserre_from_distribution(dist: dict, n: int, level: int) -> SetVectorSolution:
    """Moment vectors of a global distribution: index-set character values
    weighted by sqrt of the probability.  Capped like
    ``sa_from_distribution``."""
    _require_liftable(n, 0, level)
    vectors = {subset: _moment_vector(dist, subset)
               for subset in _subsets(range(n), 0, level)}
    return SetVectorSolution(level=level, vectors=vectors)


def lift_lasserre(ls: SetVectorSolution, product: ProductGraph,
                  level: int) -> SetVectorSolution:
    """Lift set vectors to the product via coordinate parity sets:
    v_T = (1/sqrt(k)) (+)_j v_{T_j} with T_j the odd-multiplicity base
    vertices among the j-th coordinates."""
    if level > ls.level:
        raise ValueError(
            f"requested level {level} exceeds base solution level {ls.level}")
    k, n = product.k, product.base.n
    _require_liftable(n, 0, level, k)
    # a level-0 family is the empty set alone and lists no vertex
    vertices = _product_vertices(product) if level >= 1 else ()
    subsets = _subsets(vertices, 0, level)
    bases = [s for s in ls.vectors if len(s) <= level]
    # every set padded to ``level`` slots with n, which is no base vertex
    coords = np.array([s + ((n,) * k,) * (level - len(s)) for s in subsets],
                      dtype=np.int64)
    base_coords = np.array([s + (n,) * (level - len(s)) for s in bases], dtype=np.int64)
    codes = _parity_codes(coords.reshape(len(subsets), level, k), n)
    base_codes = _parity_codes(base_coords.reshape(len(bases), level, 1), n)[:, 0]
    order = np.argsort(base_codes)
    at = order[np.minimum(np.searchsorted(base_codes, codes, sorter=order), len(order) - 1)]
    if (base_codes[at] != codes).any():
        raise KeyError("a parity set of the lift has no base vector")
    base = (1.0 / math.sqrt(k)) * np.stack([ls.vectors[s] for s in bases])
    return SetVectorSolution(level=level, vectors=dict(zip(
        subsets, base[at].reshape(len(subsets), -1))))


# -- feasible-solution generators and file formats --------------------------------

def random_feasible_sdp(graph: WeightedGraph, dim: int, seed: int) -> SdpSolution:
    """Random embedding scaled onto the spread constraint."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((graph.n, dim))
    sol = SdpSolution(vectors=vecs)
    s = sol.spread(graph)
    if s <= 0:
        raise RuntimeError("degenerate random embedding")
    return SdpSolution(vectors=vecs / math.sqrt(s))


def random_cut_combination(graph: WeightedGraph, cuts: int, seed: int) -> SdpSolution:
    """Nonnegative combination of cut embeddings, scaled to unit spread.

    Each coordinate is a scaled {-1,+1} labelling, so all squared
    distances form an L1 metric and satisfy every triangle inequality.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(cuts):
        labels = rng.choice([-1.0, 1.0], size=graph.n)
        while np.all(labels == labels[0]):
            labels = rng.choice([-1.0, 1.0], size=graph.n)
        cols.append(labels * math.sqrt(rng.uniform(0.1, 1.0)))
    sol = SdpSolution(vectors=np.stack(cols, axis=1))
    s = sol.spread(graph)
    if s < 1e-9:
        raise RuntimeError("degenerate cut combination; reseed")
    return SdpSolution(vectors=sol.vectors / math.sqrt(s))


def uniform_cut_distribution(n: int, subset) -> dict:
    """Distribution putting half the mass on a cut labelling and half on
    its negation (so all single-vertex marginals are uniform)."""
    inside = set(subset)
    sigma = tuple(1 if v in inside else -1 for v in range(n))
    neg = tuple(-z for z in sigma)
    return {sigma: 0.5, neg: 0.5}


def sdp_to_dict(sol: SdpSolution) -> dict:
    return {"d": sol.dim, "vectors": [[float(x) for x in row] for row in sol.vectors]}


def sdp_from_dict(data: dict) -> SdpSolution:
    vecs = np.asarray(data["vectors"], dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != int(data["d"]):
        raise ValueError("malformed SDP solution file")
    return SdpSolution(vectors=vecs.copy())


def sa_to_dict(ld: LocalDistributions) -> dict:
    """The file of a family; a pattern of probability exactly 0.0 is left out."""
    return {"t": ld.level, "dists": [
        {"T": list(subset), "probs": {
            format(i, f"0{len(subset)}b").replace("0", "+").replace("1", "-"): p
            for i, p in enumerate(row.tolist()) if p != 0.0}}
        for subset, row in sorted(ld.tables.items())]}


def _require_family(subsets: list, n: int, low: int, level: int, kind: str):
    """Every subset of ``range(n)`` with ``low..level`` elements, each once,
    and no other: as many distinct valid sets as the family holds."""
    if level < low:
        raise ValueError(f"{kind} file must hold every subset of {low}..t "
                         f"vertices for a level t >= {low}, not {level}")
    if not len(subsets) == len(set(subsets)) == _family_size(n, low, level) or not all(
            len(set(s)) == len(s) and low <= len(s) <= level
            and all(0 <= v < n for v in s) for s in subsets):
        raise ValueError(f"{kind} file must hold every subset of {low}..{level} "
                         f"of the {n} vertices, and no other")


def sa_from_dict(data: dict, n: int) -> LocalDistributions:
    level = int(data["t"])
    subsets = [tuple(sorted(int(v) for v in entry["T"])) for entry in data["dists"]]
    _require_family(subsets, n, 1, level, "SA")
    ld = LocalDistributions(level, list(range(n)))
    # a code counts every smaller set, the empty one too, before the colex rank
    below = np.cumsum([1] + [len(r) for r in ld.rows]).tolist()
    padded = np.array([s + (n,) * (len(ld.rows) - len(s)) for s in subsets], dtype=np.int64)
    codes = _parity_codes(padded[:, :, None], n)[:, 0].tolist()
    for subset, code, entry in zip(subsets, codes, data["dists"]):
        row = ld.rows[len(subset) - 1][code - below[len(subset) - 1]]
        for key, p in entry["probs"].items():
            if len(key) != len(subset) or not set(key) <= {"+", "-"}:
                raise ValueError(f"SA assignment key {key!r} needs one sign + or - "
                                 f"per vertex of its {len(subset)}-set")
            # the key read as binary, - as 1
            row[int(key.replace("+", "0").replace("-", "1"), 2)] = float(p)
    return ld


def lasserre_to_dict(ls: SetVectorSolution) -> dict:
    return {
        "t": ls.level,
        "sets": [
            {"S": list(subset), "vec": [float(x) for x in ls.vectors[subset]]}
            for subset in ls.subsets()
        ],
    }


def lasserre_from_dict(data: dict, n: int) -> SetVectorSolution:
    subsets = [tuple(sorted(int(v) for v in entry["S"])) for entry in data["sets"]]
    _require_family(subsets, n, 0, int(data["t"]), "Lasserre")
    vectors = {subset: np.asarray(entry["vec"], dtype=np.float64)
               for subset, entry in zip(subsets, data["sets"])}
    if len({vec.shape for vec in vectors.values()}) != 1 or not all(
            vec.ndim == 1 and np.isfinite(vec).all() for vec in vectors.values()):
        raise ValueError("Lasserre file must give every set a finite vector "
                         "of one common length")
    # finite squared norms keep every inner product finite (Cauchy-Schwarz),
    # so no delta class can meet inf - inf
    with np.errstate(over="ignore"):
        huge = [s for s, vec in vectors.items() if not math.isfinite(vec @ vec)]
    if huge:
        raise ValueError(f"Lasserre vector of S = {list(huge[0])} has a squared "
                         "norm that overflows")
    return SetVectorSolution(level=int(data["t"]), vectors=vectors)
