"""Conductance, log-Sobolev estimation and product scaling laws.

Conductance is computed exactly: a meet-in-the-middle scan of the
proper vertex subsets keeps the near-minimal candidates, and one
canonical formula, applied to the candidates in a batch, picks the
minimum and its witness, so the witness always reproduces the reported
value.  The log-Sobolev constant is estimated by multi-start projected
descent of the ratio 2*energy / entropy on the unit sphere of the vertex
measure.  In exact arithmetic the ratio of any function bounds the
constant from above; computed in floats it can fall below it (1.99998
on K2, whose constant is 2), so the estimate is not a certified bound.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import ProductGraph, Record, WeightedGraph, entropy_sq, log0, power_at_most

BRUTE_FORCE_MAX_VERTICES = 25
SCAN_SLACK = 1e-11
CANDIDATE_CAP = 1 << 16
# largest temporary of the subset scan, in entries
SCAN_BLOCK_ENTRIES = 1 << 20
# the log-Sobolev descent: vertex limit, starts, iterations per start and
# the relative improvement below which a start stops
LS_MAX_VERTICES = 200
LS_RESTARTS = 12
LS_MAX_ITERS = 4000
LS_TOL = 1e-12
ENTROPY_FLOOR = 1e-11


def scannable(graph_or_product) -> WeightedGraph:
    """The graph, a product materialized, once its vertices are known to
    be few enough for the exhaustive scan."""
    is_product = isinstance(graph_or_product, ProductGraph)
    n, k = ((graph_or_product.base.n, graph_or_product.k) if is_product
            else (graph_or_product.n, 1))
    if not power_at_most(n, k, BRUTE_FORCE_MAX_VERTICES):
        raise ValueError(
            f"{f'n^k = {n}^{k}' if is_product else n} vertices is beyond exhaustive "
            "enumeration; use conductance_functional on candidate cuts instead")
    return graph_or_product.to_weighted_graph() if is_product else graph_or_product


def _row_sums(values: np.ndarray, select: np.ndarray) -> np.ndarray:
    """``np.sum(values[row])`` for each boolean row of ``select``, bit for
    bit: numpy's pairwise summation depends only on the length of what
    it adds.  So when all of ``values`` are one float, each count is
    summed once; otherwise the rows of equal count are compressed into
    one matrix and summed along its rows."""
    counts = select.sum(axis=1)
    occurring = np.flatnonzero(np.bincount(counts))
    if np.all(values == values[:1]):
        per_count = np.empty(select.shape[1] + 1)
        per_count[occurring] = [np.sum(np.repeat(values[:1], c)) for c in occurring]
        return per_count[counts]
    out = np.empty(len(select))
    for count in occurring:
        rows = counts == count
        group = select[rows]
        picked = np.broadcast_to(values, group.shape)[group]
        out[rows] = picked.reshape(len(group), count).sum(axis=1)
    return out


def cut_ratios(graph: WeightedGraph, masks) -> np.ndarray:
    """Canonical set-form ratio 0.25 * cut mass / (vol(S) * vol(~S)) of
    each subset mask."""
    try:
        masks = np.asarray(masks, dtype=np.int64)
    except OverflowError:
        raise ValueError("cut-ratio masks are int64: 63 vertices at most") from None
    if not np.all((masks > 0) & (masks < (1 << graph.n) - 1)):
        raise ValueError("a cut ratio needs a proper nonempty vertex subset")
    bits = ((masks[:, None] >> np.arange(graph.n, dtype=np.int64)) & 1) == 1
    cut = _row_sums(graph.edge_w, bits[:, graph.edge_u] != bits[:, graph.edge_v])
    return 0.25 * cut / (_row_sums(graph.pi, bits) * _row_sums(graph.pi, ~bits))


def cut_ratio(graph: WeightedGraph, mask: int) -> float:
    """Canonical set-form ratio of one subset mask (see ``cut_ratios``)."""
    return float(cut_ratios(graph, [mask])[0])


# -- subset cut scan ----------------------------------------------------------

def _subset_bits(k):
    """Row i holds the indicator of subset mask i of k vertices."""
    masks = np.arange(1 << k, dtype=np.int64)
    return ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)


def _ratio_blocks(graph):
    """Yield (masks, ratios) for every subset holding vertex 0, a block
    of rows at a time, by meet in the middle (Horowitz & Sahni 1974).

    With L = 2 * graph.laplacian, the weighted combinatorial Laplacian,
    the cut of an indicator b is b^T L b.  Splitting b into the low
    vertices A and the high vertices C gives, for all subsets at once,
    cut = qA[:, None] + qC[None, :] + b_A^T (2 L_AC) b_C, and the
    volumes of S and of its complement separate the same way.  Rows are
    the low-half subsets holding vertex 0, columns all high-half subsets.
    """
    n = graph.n
    h = (n + 1) // 2
    lap = 2.0 * graph.laplacian
    low = _subset_bits(h)[1::2]
    high = _subset_bits(n - h)
    low_masks = np.arange(1, 1 << h, 2, dtype=np.int64)
    high_masks = np.arange(1 << (n - h), dtype=np.int64) << h
    q_low = np.einsum("ij,jk,ik->i", low, lap[:h, :h], low)
    q_high = np.einsum("ij,jk,ik->i", high, lap[h:, h:], high)
    cross = low @ (2.0 * lap[:h, h:])
    vol_low, vol_high = low @ graph.pi[:h], high @ graph.pi[h:]
    rest_low, rest_high = (1.0 - low) @ graph.pi[:h], (1.0 - high) @ graph.pi[h:]
    step = max(1, SCAN_BLOCK_ENTRIES // len(high_masks))
    for start in range(0, len(low_masks), step):
        rows = slice(start, start + step)
        cut = cross[rows] @ high.T
        cut += q_low[rows, None]
        cut += q_high
        den = vol_low[rows, None] + vol_high
        den *= rest_low[rows, None] + rest_high
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(cut, den, out=cut)
        cut *= 0.25
        if start + step >= len(low_masks):
            # the full vertex set: its complement has no volume
            cut[-1, -1] = np.inf
        yield low_masks[rows, None] | high_masks, cut


def _collect(graph, threshold):
    """Masks holding vertex 0 whose scanned ratio is at most threshold."""
    hits = []
    count = 0
    for masks, ratio in _ratio_blocks(graph):
        hits.append(masks[ratio <= threshold])
        count += len(hits[-1])
        if 2 * count > CANDIDATE_CAP:
            raise RuntimeError("degenerate cut-ratio plateau; too many candidates")
    return np.concatenate(hits)


def _subset_scan(graph):
    """Candidate minimizers of the cut ratio: the masks holding vertex 0
    whose scanned ratio is within SCAN_SLACK of the scanned minimum.

    A subset and its complement have bitwise-equal canonical ratios, and
    the one holding vertex 0 is lexicographically smaller, so scanning
    half of the subsets loses no witness.  Raises RuntimeError when more
    than CANDIDATE_CAP subsets, complements counted, tie.  The scan may
    round differently from ``cut_ratios``, which re-checks the candidates,
    so only its candidate set matters.
    """
    best = np.inf
    kept_masks, kept_ratios = np.zeros(0, dtype=np.int64), np.zeros(0)
    plateau = None
    for masks, ratio in _ratio_blocks(graph):
        best = min(best, float(ratio.min()))
        if plateau is not None:
            continue
        near = ratio <= best + SCAN_SLACK
        masks = np.concatenate((kept_masks, masks[near]))
        ratio = np.concatenate((kept_ratios, ratio[near]))
        near = ratio <= best + SCAN_SLACK
        kept_masks, kept_ratios = masks[near], ratio[near]
        if 2 * len(kept_masks) > CANDIDATE_CAP:
            # stop collecting; rescan if a later block lowers the minimum
            plateau = best
    if plateau is None:
        return kept_masks
    if best == plateau:
        raise RuntimeError("degenerate cut-ratio plateau; too many candidates")
    return _collect(graph, best + SCAN_SLACK)


def _lex_min(masks: np.ndarray) -> int:
    """The mask, of a non-empty array, whose sorted vertex list is
    lexicographically smallest.

    Before pass v the survivors agree on every vertex below v.  The ones
    holding v come first, if any do; a survivor that holds no vertex
    from v on is a prefix of the others, hence the smallest.
    """
    for v in range(64):
        rest = masks >> v
        if not rest.all():
            break
        holds = (rest & 1) == 1
        if holds.any():
            masks = masks[holds]
    return int(masks[rest == 0][0])


def conductance_bruteforce(graph_or_product):
    """Exact conductance with a witness set (lexicographically smallest
    among the minimizers).  Limited to 25 vertices."""
    graph = scannable(graph_or_product)
    candidates = _subset_scan(graph)
    ratios = cut_ratios(graph, candidates)
    best = ratios.min()
    best_mask = _lex_min(candidates[ratios == best])
    witness = tuple(v for v in range(graph.n) if (best_mask >> v) & 1)
    return float(best), witness


def conductance_functional(graph: WeightedGraph, f: np.ndarray) -> float:
    """Cut-function form: energy / (2 * variance) for a {-1,+1} function."""
    f = np.asarray(f, dtype=np.float64)
    if not np.all(np.abs(np.abs(f) - 1.0) < 1e-12):
        raise ValueError("conductance_functional needs a {-1,+1}-valued function")
    var = graph.variance(f)
    if var <= 0.0:
        raise ValueError("constant function has zero variance")
    return float(graph.dirichlet(f) / (2.0 * var))


# -- log-Sobolev estimation ----------------------------------------------------

class LogSobolevEstimate(Record):
    """Best found ratio (in floats, so possibly below the true constant),
    its witness and the number of descent starts."""

    def __init__(self, alpha_hat: float, witness: np.ndarray, restarts: int):
        witness.setflags(write=False)
        vars(self).update(alpha_hat=alpha_hat, witness=witness, restarts=restarts)


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``row @ other`` of each row, against one vector or the matching
    row of ``other``, bit for bit as for single vectors."""
    return np.matmul(rows[:, None, :], other[..., None])[:, 0, 0]


@np.errstate(all="ignore")  # dead rows run through every round
def _lockstep_descent(graph, starts):
    """Projected descent of 2*energy/entropy from each row of ``starts``,
    in lockstep on whole arrays and bit for bit as from each start alone
    (see README).  Each row's step is the Barzilai-Borwein step s.y / y.y
    of its last accepted move s and the gradient change y over it, or its
    last step times 1.25 where that ratio is not finite and positive.
    Returns each row's final ratio (inf where its start's entropy is
    below ENTROPY_FLOOR) and function."""
    pi = graph.pi
    f = starts / np.sqrt(_row_dots(starts * starts, pi))[:, None]
    energy, ent = graph.dirichlet(f), entropy_sq(pi, f)
    live = ent >= ENTROPY_FLOOR
    ratio = np.where(live, 2.0 * energy / ent, np.inf)
    step = np.full(len(f), 0.1)
    iters, tries = np.zeros((2, len(f)), dtype=np.int64)
    # each row's gradient and last accepted move; a row that has not moved
    # gets its gradient again bit for bit: y = 0, so s.y = 0 keeps its step
    grad, move = np.zeros_like(f), np.zeros_like(f)
    moved = True
    while live.any():
        if moved:
            f2 = f * f
            # libm's log: np.log may round differently; math.log refuses
            # the zero norm a dead row may have
            log_n2 = np.array([math.log(x) if x > 0.0 else 0.0
                               for x in _row_dots(f2, pi).tolist()])
            grad_energy = 2.0 * np.matmul(graph.laplacian, f[:, :, None])[:, :, 0]
            grad_ent = 2.0 * pi * f * (log0(f2) - log_n2[:, None])
            e, h = energy[:, None], ent[:, None]
            new = (2.0 * grad_energy * h - 2.0 * e * grad_ent) / (h * h)
            y = new - grad
            sy = _row_dots(move, y)
            bb = sy / _row_dots(y, y)
            np.copyto(step, bb, where=live & (sy > 0.0) & np.isfinite(bb))
            grad = new
        raw = f - step[:, None] * grad
        cand = raw / np.sqrt(_row_dots(raw * raw, pi))[:, None]
        c_energy, c_ent = graph.dirichlet(cand), entropy_sq(pi, cand)
        c_ratio = 2.0 * c_energy / c_ent
        ok = live & (c_ent >= ENTROPY_FLOOR) & (c_ratio < ratio - 1e-18)
        rel = (ratio - c_ratio) / np.maximum(np.abs(ratio), 1e-30)
        # a rejected row whose step no longer moves f stops at once: rounding
        # is monotone, so each halved step leaves f as it is and is rejected
        stuck = (raw == f).all(axis=1)
        np.copyto(move, cand - f, where=ok[:, None])
        np.copyto(f, cand, where=ok[:, None])
        for state, value in ((ratio, c_ratio), (energy, c_energy), (ent, c_ent)):
            np.copyto(state, value, where=ok)
        np.copyto(step, step * np.where(ok, 1.25, 0.5), where=live)
        iters += ok
        np.copyto(tries, np.where(ok, 0, tries + 1), where=live)
        live &= ~np.where(ok, (rel < LS_TOL) | (iters == LS_MAX_ITERS),
                          (tries == 60) | stuck)
        moved = (ok & live).any()
    return ratio, f


def log_sobolev_estimate(graph: WeightedGraph, *,
                         seed: int = 0) -> LogSobolevEstimate:
    """Multi-start projected descent of 2*energy/entropy over the unit
    sphere.  The witness reproduces ``alpha_hat``.  Its exact ratio bounds
    the log-Sobolev constant from above, but the float ratio can fall
    below the constant where the entropy cancels near the constant
    function: 1.99998 on K2, whose constant is 2."""
    if graph.n > LS_MAX_VERTICES:
        raise ValueError(
            f"log-Sobolev estimation is limited to n <= {LS_MAX_VERTICES}")
    rng = np.random.default_rng(seed)
    n = graph.n
    starts = [np.ones(n) + 0.1 * graph.basis.eigenfunctions[:, 1]]
    half = LS_RESTARTS // 2
    starts += [np.ones(n) + 0.2 * rng.standard_normal(n) for _ in range(half)]
    starts += [rng.standard_normal(n) for _ in range(LS_RESTARTS - half)]
    ratio, f = _lockstep_descent(graph, np.array(starts))
    best = int(np.argmin(ratio))  # the first start of the smallest ratio
    if not math.isfinite(ratio[best]):
        raise RuntimeError("all descent restarts were entropy-degenerate")
    return LogSobolevEstimate(alpha_hat=float(ratio[best]), witness=f[best],
                              restarts=len(starts))


def witness_ratio(graph: WeightedGraph, f: np.ndarray) -> float:
    """Recompute the log-Sobolev ratio certified by a witness function."""
    f = np.asarray(f, dtype=np.float64)
    energy, ent = graph.dirichlet(f), entropy_sq(graph.pi, f)
    if ent <= 0.0:
        raise ValueError("witness has zero entropy")
    return float(2.0 * energy / ent)


# -- product scaling -------------------------------------------------------------

class Measures(Record):
    """A graph with its ``(phi, witness)`` scan and its log-Sobolev
    estimate, each None where its exhaustive or dense computation is
    infeasible."""

    def __init__(self, graph: WeightedGraph, scan: tuple | None,
                 estimate: LogSobolevEstimate | None):
        vars(self).update(graph=graph, scan=scan, estimate=estimate)


def _measures(graph: WeightedGraph, seed: int) -> Measures:
    return Measures(
        graph,
        conductance_bruteforce(graph) if graph.n <= BRUTE_FORCE_MAX_VERTICES else None,
        log_sobolev_estimate(graph, seed=seed) if graph.n <= LS_MAX_VERTICES else None)


def product_scaling_report(product: ProductGraph, *, seed: int = 0):
    """``(base, power)``: the measures of the base graph and of its k-fold
    power ``product`` materialized, the latter None where G^k is over the
    product's dense cap or beyond the descent.  At k = 1 the materialized
    product is the base graph itself, so both are one record."""
    base = _measures(product.base, seed)
    if not (product.within_cap and power_at_most(product.base.n, product.k,
                                                 LS_MAX_VERTICES)):
        return base, None
    dense = product.to_weighted_graph()
    return base, base if dense is product.base else _measures(dense, seed)
