"""The meet-in-the-middle subset scan and the batched exact re-check,
against plain enumeration and against the scalar reference loop."""

import math

import numpy as np
import pytest

import boxprod as bp
from boxprod import isoperimetry
from boxprod.isoperimetry import _lex_min
from conftest import naive_conductance


def _relabel(graph, seed):
    perm = np.random.default_rng(seed).permutation(graph.n)
    edges = zip(perm[graph.edge_u], perm[graph.edge_v], graph.edge_w)
    return bp.build_graph(graph.n, edges)


def _small_graphs():
    k2, k3 = bp.complete_graph(2), bp.complete_graph(3)
    p3, c5 = bp.path_graph(3), bp.cycle_graph(5)
    out = {"K2": k2, "K3": k3, "P3": p3, "C5": c5,
           "K3^2": bp.cartesian_power(k3, 2).to_weighted_graph(),
           "P3^2": bp.cartesian_power(p3, 2).to_weighted_graph(),
           "K2^3": bp.cartesian_power(k2, 3).to_weighted_graph()}
    out.update({f"{name} relabelled": _relabel(g, i)
                for i, (name, g) in enumerate(list(out.items()))})
    out["weighted 6"] = bp.build_graph(6, [
        (0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.5), (3, 4, 1.0), (4, 5, 4.0),
        (5, 0, 0.5), (1, 4, 2.0), (0, 3, 1.5)])
    out["weighted 7"] = bp.build_graph(7, [
        (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 3.0), (4, 5, 1.0),
        (5, 6, 2.0), (6, 0, 1.0), (2, 5, 0.5)])
    return out


SMALL_GRAPHS = _small_graphs()


def _scalar_cut_ratio(graph, mask):
    """The set-form ratio as one scalar numpy evaluation per mask."""
    bits = (mask >> np.arange(graph.n, dtype=np.int64)) & 1
    crossed = bits[graph.edge_u] != bits[graph.edge_v]
    cut = float(np.sum(graph.edge_w[crossed]))
    vol_s = float(np.sum(graph.pi[bits == 1]))
    vol_c = float(np.sum(graph.pi[bits == 0]))
    return 0.25 * cut / (vol_s * vol_c)


def _lex_less(a, b):
    """Sorted-vertex-list lexicographic order on subset masks."""
    d = a ^ b
    if d == 0:
        return False
    bit = d & (-d)
    above = ~((bit << 1) - 1)
    if a & bit:
        return (b & above) != 0
    return (a & above) == 0


def _reference_conductance(graph):
    """Minimum of the scalar ratio over every proper subset, ties broken
    towards the lexicographically smallest sorted vertex list."""
    best_ratio, best_mask = math.inf, None
    for mask in range(1, (1 << graph.n) - 1):
        ratio = _scalar_cut_ratio(graph, mask)
        if ratio < best_ratio or (ratio == best_ratio and _lex_less(mask, best_mask)):
            best_ratio, best_mask = ratio, mask
    return best_ratio, tuple(v for v in range(graph.n) if (best_mask >> v) & 1)


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_scan_matches_naive_enumeration(name):
    g = SMALL_GRAPHS[name]
    phi, witness = bp.conductance_bruteforce(g)
    naive_phi, _ = naive_conductance(g)
    assert math.isclose(phi, naive_phi, abs_tol=1e-12)
    assert bp.cut_ratio(g, sum(1 << v for v in witness)) == phi


@pytest.mark.parametrize("block", [1, isoperimetry.SCAN_BLOCK_ENTRIES])
@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_scan_matches_scalar_reference_bitwise(name, block, monkeypatch):
    # block = 1 scans one row of low-half subsets at a time
    monkeypatch.setattr(isoperimetry, "SCAN_BLOCK_ENTRIES", block)
    g = SMALL_GRAPHS[name]
    assert bp.conductance_bruteforce(g) == _reference_conductance(g)


def _dense_two_weights():
    """Every pair of 20 vertices joined, at one of two weights: neither
    the edge masses nor the vertex masses are all equal."""
    rng = np.random.default_rng(5)
    return bp.build_graph(20, [(u, v, 1.0 + 2.0 * rng.integers(2))
                               for u in range(20) for v in range(u + 1, 20)])


BATCH_GRAPHS = {
    **{name: SMALL_GRAPHS[name] for name in ["C5", "K3^2", "weighted 6", "weighted 7"]},
    # equal masses: each count is summed once
    "K12": bp.complete_graph(12),
    "C12": bp.cycle_graph(12),
    "K4^2": bp.cartesian_power(bp.complete_graph(4), 2).to_weighted_graph(),
    "K2^4": bp.cartesian_power(bp.complete_graph(2), 4).to_weighted_graph(),
    # cut counts past numpy's pairwise blocks of 8 and 128 summands
    "K17": bp.complete_graph(17),
    "K25": bp.complete_graph(25),
    "dense 20, two weights": _dense_two_weights(),
}


@pytest.mark.parametrize("name", sorted(BATCH_GRAPHS))
def test_batched_ratios_match_scalar_bitwise(name):
    g = BATCH_GRAPHS[name]
    if g.n <= 12:
        masks = np.arange(1, (1 << g.n) - 1)
    else:
        masks = np.random.default_rng(g.n).integers(1, (1 << g.n) - 1, size=3000)
    batched = bp.cut_ratios(g, masks)
    assert batched.tolist() == [_scalar_cut_ratio(g, int(m)) for m in masks]


@pytest.mark.parametrize("g", [bp.complete_graph(8), bp.complete_graph(12),
                               _relabel(BATCH_GRAPHS["K2^4"], 3)],
                         ids=["K8", "K12", "K2^4 relabelled"])
def test_witness_on_a_full_plateau(g):
    # every proper subset ties on the complete graphs, so the witness is
    # the lexicographic minimum of the widest tie
    assert bp.conductance_bruteforce(g) == _reference_conductance(g)


def test_cut_ratios_of_no_masks(c5):
    for masks in ([], np.zeros(0, dtype=np.int64)):
        ratios = bp.cut_ratios(c5, masks)
        assert ratios.shape == (0,) and ratios.dtype == np.float64
    assert bp.cut_ratios(BATCH_GRAPHS["dense 20, two weights"], []).shape == (0,)


@pytest.fixture
def tiny_cap(monkeypatch):
    """One row of low-half subsets per block and a cap of two tied
    subsets; returns the thresholds of the rescans the scan makes."""
    monkeypatch.setattr(isoperimetry, "SCAN_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(isoperimetry, "CANDIDATE_CAP", 2)
    rescans = []
    collect = isoperimetry._collect
    monkeypatch.setattr(isoperimetry, "_collect",
                        lambda g, t: rescans.append(t) or collect(g, t))
    return rescans


def test_plateau_rescan_after_a_lower_minimum(tiny_cap):
    # the first row's ties overflow the cap before a later row lowers the
    # minimum, so the candidates are collected again
    g = bp.build_graph(4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1),
                           (1, 3, 1), (2, 3, 2)])
    assert bp.conductance_bruteforce(g) == _reference_conductance(g)
    assert len(tiny_cap) == 1


def test_plateau_rescan_still_over_the_cap(tiny_cap):
    g = bp.build_graph(6, [(0, 1, 1), (1, 2, 2), (1, 3, 2), (2, 4, 1),
                           (2, 5, 2), (3, 4, 2), (3, 5, 1), (4, 5, 1)])
    with pytest.raises(RuntimeError, match="plateau"):
        bp.conductance_bruteforce(g)
    assert len(tiny_cap) == 1


def test_cut_ratio_refuses_empty_and_full_sets(c5):
    for mask in (0, (1 << c5.n) - 1):
        with pytest.raises(ValueError, match="proper"):
            bp.cut_ratio(c5, mask)


def test_cut_ratio_refuses_masks_beyond_int64():
    g = bp.cycle_graph(70)
    with pytest.raises(ValueError, match="63 vertices"):
        bp.cut_ratio(g, 1 << 69)
    with pytest.raises(ValueError, match="63 vertices"):
        bp.cut_ratios(g, [1, 1 << 63])
    # one vertex of C70: a cut of 2 of 70 edges over the volumes 1/70 and 69/70
    assert math.isclose(bp.cut_ratio(g, 1), 35 / 69, rel_tol=1e-15)
    assert math.isclose(bp.cut_ratio(g, (1 << 62) - 1), 0.25 * (2 / 70) / (62 / 70 * 8 / 70),
                        rel_tol=1e-14)


def test_plateau_raises_runtime_error():
    # every proper subset of K17 ties
    with pytest.raises(RuntimeError, match="plateau"):
        bp.conductance_bruteforce(bp.complete_graph(17))


def test_lex_tiebreak_prefers_smallest_sorted_set():
    def lex_min(*masks):
        return _lex_min(np.array(masks, dtype=np.int64))

    assert lex_min(0b010, 0b001) == 0b001          # {0} < {1}
    assert lex_min(0b011, 0b001) == 0b001          # {0} < {0,1}
    assert lex_min(0b010, 0b011) == 0b011          # {0,1} < {1}
    assert lex_min(0b000101, 0b100011) == 0b100011  # {0,1,5} < {0,2}
    assert lex_min(0b011, 0b011) == 0b011
