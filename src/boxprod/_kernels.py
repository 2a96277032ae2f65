"""Hot numeric kernels, in numpy.

Two loops dominate runtime: the exhaustive cut scan over all 2^n vertex
subsets and the exhaustive scan of ordered vertex triples for
squared-distance triangle violations.

The subset scan is approximate by design: it only has to keep every
exact minimizer among its candidates.  The caller re-evaluates the
candidates with one canonical formula, so the reported value and
witness do not depend on the scan's rounding.
"""

from __future__ import annotations

import numpy as np

SCAN_SLACK = 1e-11
CANDIDATE_CAP = 1 << 16
# largest temporary of the subset scan, in entries
SCAN_BLOCK_ENTRIES = 1 << 20


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


def subset_scan(graph):
    """Candidate minimizers of the cut ratio: the masks holding vertex 0
    whose scanned ratio is within SCAN_SLACK of the scanned minimum.

    A subset and its complement have bitwise-equal canonical ratios, and
    the one holding vertex 0 is lexicographically smaller, so scanning
    half of the subsets loses no witness.  Raises RuntimeError when more
    than CANDIDATE_CAP subsets, complements counted, tie.
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


# -- triangle inequality scan --------------------------------------------------

def triangle_scan(dist, tol, max_report=64, block=64):
    """Count ordered triples (x, y, z) with d(x,z) - d(x,y) - d(y,z) > tol;
    returns (count, worst slack, up to max_report violating triples)."""
    n = dist.shape[0]
    count = 0
    worst = 0.0
    rows = []
    for x0 in range(0, n, block):
        xs = np.arange(x0, min(x0 + block, n))
        slack = dist[xs][:, None, :] - dist[xs][:, :, None] - dist[None, :, :]
        bad = slack > tol
        c = int(bad.sum())
        if c:
            w = float(slack[bad].max())
            worst = max(worst, w)
            if len(rows) < max_report:
                xi, yi, zi = np.nonzero(bad)
                take = min(max_report - len(rows), len(xi))
                for t in range(take):
                    rows.append((int(xs[xi[t]]), int(yi[t]), int(zi[t])))
        count += c
    trips = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return count, worst, trips
