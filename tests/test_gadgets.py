"""Necklace quotient, q-ary cube, consecutive-ones predicate, sampling."""

import math

import numpy as np
import pytest

import boxprod as bp
from boxprod import gadgets
from boxprod.gadgets import necklace_size
from boxprod.graphs import DenseCapError


def orbit_count(r):
    """Independent orbit enumeration over raw strings."""
    seen = set()
    count = 0
    for s in range(1, (1 << r) - 1):
        if s in seen:
            continue
        count += 1
        cur = s
        for _ in range(r):
            cur = ((cur >> 1) | ((cur & 1) << (r - 1))) & ((1 << r) - 1)
            seen.add(cur)
    return count


@pytest.mark.parametrize("r,expected", [(3, 2), (4, 4), (5, 6)])
def test_necklace_class_counts(r, expected):
    g = bp.build_necklace(r)
    assert g.n == expected
    assert g.n == orbit_count(r)


def test_necklace_measures_consistent():
    # 2 pi(v) = sum_u mu({u,v}) and the edge masses sum to one
    for r in (3, 4, 5, 8):
        g = bp.build_necklace(r)
        row = np.zeros(g.n)
        np.add.at(row, g.edge_u, g.edge_w)
        np.add.at(row, g.edge_v, g.edge_w)
        assert np.allclose(row, 2.0 * g.pi, rtol=0.0, atol=1e-12)
        assert math.isclose(g.edge_w.sum(), 1.0, abs_tol=1e-12)


def test_necklace3_structure():
    g = bp.build_necklace(3)
    # two classes (weight-1 and weight-2 orbits) joined by every edge
    assert g.n == 2
    assert g.edge_w.tolist() == [1.0]
    assert g.pi.tolist() == [0.5, 0.5]


def test_necklace_rejects_extremes():
    with pytest.raises(ValueError):
        bp.build_necklace(2)
    with pytest.raises(ValueError):
        bp.build_necklace(24)


def test_qary_cube_matches_square(k2):
    # K2^3 is the 3-cube: strings joined when they differ in one bit
    dense_a = bp.cartesian_power(k2, 3).to_weighted_graph()
    dense_b = bp.build_graph(8, [(s, s ^ (1 << b), 1.0)
                                 for s in range(8) for b in range(3) if s < s ^ (1 << b)])
    assert dense_a.n == dense_b.n == 8
    assert np.allclose(dense_a.pi, dense_b.pi)
    assert np.allclose(
        bp.eigendecompose(dense_a).eigenvalues,
        bp.eigendecompose(dense_b).eigenvalues, atol=1e-9)


def test_consecutive_ones_trivial_values():
    g = bp.build_necklace(4)
    fn = bp.consecutive_ones_function(4, 2, g)
    assert fn.run_length == 3
    # class of 0111 (canonical 0b0111=7) has a cyclic run of 3
    from boxprod.gadgets import necklace_classes

    reps = necklace_classes(4)
    has = {int(rep): bool(flag) for rep, flag in zip(reps, fn.class_has_run)}
    assert has[0b0111] is True
    assert has[0b0101] is False
    assert has[0b0001] is False
    no_run = [i for i, flag in enumerate(fn.class_has_run) if not flag]
    run_cls = int(np.flatnonzero(fn.class_has_run)[0])
    tuples = np.array([[no_run[0]] * 2, [run_cls, no_run[0]]])
    assert fn(tuples).tolist() == [-1.0, 1.0]


def test_consecutive_ones_batch_matches_scalar():
    g = bp.build_necklace(6)
    fn = bp.consecutive_ones_function(6, 3, g)
    rng = np.random.default_rng(0)
    tuples = rng.integers(0, g.n, size=(50, 3))
    scalar = np.array([1.0 if fn.class_has_run[row].any() else -1.0 for row in tuples])
    assert np.array_equal(fn(tuples), scalar)


def test_monte_carlo_constant_function(k3):
    est = bp.influence_monte_carlo(lambda tuples: np.ones(len(tuples)), k3, 3, 0, 500,
                                   seed=0)
    assert est.estimate == 0.0
    assert est.half_width == 0.0


def test_monte_carlo_matches_exact_dictator(k2):
    prod = bp.cartesian_power(k2, 4)
    exact = bp.directional_form(bp.dictator(prod, 0), 0)

    def fn(tuples):
        return np.where(tuples[:, 0] == 0, 1.0, -1.0)

    est = bp.influence_monte_carlo(fn, k2, 4, 0, 100_000, seed=1)
    assert est.half_width < 0.05
    assert abs(est.estimate - exact) <= 3 * max(est.half_width, 1e-12)
    # dictator flips across every sampled edge: exact value is 2
    assert math.isclose(exact, 2.0, abs_tol=1e-12)


def test_monte_carlo_deterministic(k3):
    def fn(tuples):
        return np.where(tuples.sum(axis=1) % 2 == 0, 1.0, -1.0)

    a = bp.influence_monte_carlo(fn, k3, 3, 1, 2000, seed=42)
    b = bp.influence_monte_carlo(fn, k3, 3, 1, 2000, seed=42)
    assert a.estimate == b.estimate
    assert a.half_width == b.half_width


def test_probability_minus_one_against_exact():
    # exact probability by direct expectation over the class measure
    g = bp.build_necklace(8)
    fn = bp.consecutive_ones_function(8, 2, g)
    flags = fn.class_has_run
    p_run = float(g.pi[flags].sum())
    exact = (1.0 - p_run) ** 2
    est = bp.probability_minus_one(fn, g, 2, 50_000, seed=3)
    assert abs(est.estimate - exact) <= 4 * est.half_width + 1e-3


def test_named_graph_builtins():
    assert bp.named_graph("k2").n == 2
    assert bp.named_graph("kq:4").n == 4
    assert bp.named_graph("cycle:6").n == 6
    assert bp.named_graph("path:3").n == 3
    assert bp.named_graph("necklace:4").n == 4
    with pytest.raises(ValueError):
        bp.named_graph("torus:3")


def test_necklace_size_counts_the_classes():
    for r in range(3, 13):
        assert necklace_size(r) == orbit_count(r) == bp.build_necklace(r).n
    assert necklace_size(20) == 52486


def test_named_graph_refuses_a_base_over_the_cap_before_building(monkeypatch):
    # n^2 Laplacian entries against the cap: n <= 2,048 under 2^22
    assert bp.named_graph("path:2048").n == 2048
    with pytest.raises(DenseCapError, match="a base graph of 2049 vertices"):
        bp.named_graph("path:2049")
    with pytest.raises(DenseCapError, match="a base graph of 3 vertices"):
        bp.named_graph("kq:3", max_dense=8)

    def unbuilt(width):
        raise AssertionError("necklace classes built")

    monkeypatch.setattr(gadgets, "_rotation_classes", unbuilt)
    with pytest.raises(DenseCapError, match="a base graph of 52486 vertices"):
        bp.named_graph("necklace:20")
