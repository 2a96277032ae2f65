"""Entropy lemma chain, influence reports and junta extraction."""

import math

import numpy as np
import pytest

import boxprod as bp
from boxprod.cli import T_SWEEP
from boxprod.influence import SLACK, CorollaryRow, _entropy_rhs

T_MAX = math.exp(-2.0)


def test_lemma_zero_function(k2):
    prod = bp.cartesian_power(k2, 2)
    h = bp.from_values(prod, np.zeros(4))
    chk = bp.main_lemma_check(h, T_MAX, 2.0)
    assert chk.lhs == 0.0
    assert chk.rhs == 0.0
    assert chk.ok


def test_lemma_dictator_component(k2):
    # hand-evaluated: lhs = 1, rhs = -(1 + 1/e)
    prod = bp.cartesian_power(k2, 2)
    basis = bp.eigendecompose(k2)
    dec = bp.decompose(bp.dictator(prod, 0), basis)
    chk = bp.main_lemma_check(dec.parts[0], T_MAX, 2.0)
    assert math.isclose(chk.lhs, 1.0, abs_tol=1e-9)
    assert math.isclose(chk.rhs, -(1.0 + 1.0 / math.e), abs_tol=1e-9)
    assert chk.ok


def test_lemma_rejects_bad_t(k2):
    prod = bp.cartesian_power(k2, 2)
    h = bp.from_values(prod, np.zeros(4))
    with pytest.raises(ValueError):
        bp.main_lemma_check(h, 0.2, 2.0)
    with pytest.raises(ValueError):
        bp.main_lemma_check(h, 0.0, 2.0)


def test_lemma_random_grid(k2):
    prod = bp.cartesian_power(k2, 3)
    rng = np.random.default_rng(0)
    for _ in range(80):
        h = bp.from_values(prod, rng.standard_normal(8))
        for t in (T_MAX, 0.05, 0.01):
            chk = bp.main_lemma_check(h, t, 2.0)
            assert chk.lhs >= chk.rhs - 1e-9


def test_corollary_dictator_and_parity(k2):
    prod = bp.cartesian_power(k2, 2)
    for f in (bp.dictator(prod, 0), bp.parity(prod)):
        for t in (T_MAX, 0.05, 0.01):
            rows = bp.corollary_check(f, t, 2.0)
            assert all(r.ok for r in rows)


def test_corollary_random_sweep(k2):
    prod = bp.cartesian_power(k2, 3)
    basis = bp.eigendecompose(k2)
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = bp.random_boolean(prod, rng)
        for t in (T_MAX, 0.05, 0.01):
            rows = bp.corollary_check(f, t, 2.0, basis=basis)
            assert all(r.ok for r in rows)


def _reference_rows(f, t, alpha, basis):
    """Rows for one t, every term computed afresh from a new decomposition."""
    rows = []
    for j, part in enumerate(bp.decompose(f, basis).parts):
        lhs = bp.dirichlet_form(part)
        rhs = _entropy_rhs(alpha, f.k, t, f.variance_along(j), part.norm2_sq())
        rows.append(CorollaryRow(j=j, lhs=lhs, rhs=rhs, ok=bool(lhs >= rhs - SLACK)))
    return rows


def test_corollary_sweep_matches_fresh_decompositions(k2, k3):
    rng = np.random.default_rng(17)
    for g, k, alpha in ((k2, 5, 2.0), (k3, 3, 1.3)):
        prod = bp.cartesian_power(g, k)
        basis = bp.eigendecompose(g)
        for _ in range(4):
            f = bp.random_boolean(prod, rng)
            sweep = bp.corollary_sweep(f, T_SWEEP, alpha, basis=basis)
            assert len(sweep) == len(T_SWEEP)
            for t, rows in zip(T_SWEEP, sweep):
                fresh = bp.corollary_check(f, t, alpha, dec=bp.decompose(f, basis))
                assert rows == fresh
                assert rows == _reference_rows(f, t, alpha, basis)


def test_corollary_sweep_rejects_any_bad_t(k2):
    f = bp.dictator(bp.cartesian_power(k2, 2), 0)
    with pytest.raises(ValueError, match="t must lie"):
        bp.corollary_sweep(f, (0.05, 0.5), 2.0)


def test_corollary_rejects_non_boolean(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.from_values(prod, [0.3, 1.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        bp.corollary_check(f, 0.05, 2.0)


def test_kkl_report_dictator_constant_in_k(k2):
    for k in (2, 4, 6):
        prod = bp.cartesian_power(k2, k)
        rep = bp.kkl_report(bp.dictator(prod, 0), 2.0)
        assert math.isclose(rep.max_influence, 2.0, abs_tol=1e-12)


def test_kkl_report_parity(k2):
    prod = bp.cartesian_power(k2, 2)
    rep = bp.kkl_report(bp.parity(prod), 2.0)
    assert np.allclose(rep.influences, 2.0, atol=1e-12)


def test_kkl_report_rejects_constant(k2):
    prod = bp.cartesian_power(k2, 2)
    with pytest.raises(ValueError):
        bp.kkl_report(bp.from_values(prod, np.ones(4)), 2.0)


def test_kkl_max_ge_mean_random(k2):
    prod = bp.cartesian_power(k2, 4)
    rng = np.random.default_rng(2)
    for _ in range(60):
        f = bp.random_boolean(prod, rng)
        if f.variance() <= 0:
            continue
        rep = bp.kkl_report(f, 2.0)
        assert rep.max_influence >= rep.mean_influence - 1e-12
        assert math.isclose(rep.mean_influence, bp.dirichlet_form(f),
                            abs_tol=1e-12)


def test_friedgut_dictator(k2):
    prod = bp.cartesian_power(k2, 4)
    res = bp.friedgut_extract(bp.dictator(prod, 0), 0.1, 2.0, 1.0)
    assert res.junta == (0,)
    assert res.distance == 0.0
    assert np.array_equal(res.g_tilde.values, bp.dictator(prod, 0).values)


def test_friedgut_constant(k2):
    prod = bp.cartesian_power(k2, 4)
    res = bp.friedgut_extract(bp.from_values(prod, -np.ones(16)), 0.1, 2.0, 1.0)
    assert res.junta == ()
    assert res.distance == 0.0
    assert np.all(res.g_tilde.values == -1.0)


def test_friedgut_noisy_dictator(k2):
    prod = bp.cartesian_power(k2, 8)
    f = bp.dictator(prod, 0)
    rng = np.random.default_rng(3)
    vals = f.values.copy()
    flips = rng.choice(256, size=3, replace=False)
    vals[flips] *= -1.0
    noisy = bp.from_values(prod, vals)
    res = bp.friedgut_extract(noisy, 0.2, 2.0, 1.0)
    assert res.distance <= 0.2 + 1e-9
    assert 0 in res.junta
    assert (len(res.junta) == 0
            or math.log(len(res.junta)) <= res.size_bound_log + 1e-9)
    assert bp.is_junta_on(res.g_tilde, res.junta)


def test_friedgut_junta_independence_by_permutation(k2):
    prod = bp.cartesian_power(k2, 5)
    rng = np.random.default_rng(4)
    # function of coordinates 0 and 2 only
    tens = np.zeros((2,) * 5)
    pattern = rng.choice([-1.0, 1.0], size=(2, 2))
    for a in range(2):
        for c in range(2):
            tens[a, :, c, :, :] = pattern[a, c]
    f = bp.from_values(prod, tens.reshape(-1))
    res = bp.friedgut_extract(f, 0.05, 2.0, 1.0)
    assert set(res.junta) <= {0, 2}
    g = res.g_tilde.as_tensor()
    for axis in (1, 3, 4):
        flipped = np.flip(g, axis=axis)
        assert np.array_equal(g, flipped)


def test_friedgut_rejects_bad_epsilon(k2):
    prod = bp.cartesian_power(k2, 2)
    with pytest.raises(ValueError):
        bp.friedgut_extract(bp.dictator(prod, 0), 0.0, 2.0, 1.0)


def test_friedgut_intermediate_bounds_random(k2):
    # spot-check the two proof-side bounds the extractor asserts internally
    prod = bp.cartesian_power(k2, 3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = bp.random_boolean(prod, rng)
        res = bp.friedgut_extract(f, 0.5, 2.0, 1.0)
        assert res.distance <= 0.5 + 1e-9


def test_sign_rounding_factor_four(k2):
    prod = bp.cartesian_power(k2, 6)
    rng = np.random.default_rng(6)
    pi = prod.pi_product()
    for _ in range(20):
        f = bp.random_boolean(prod, rng)
        res = bp.friedgut_extract(f, 0.9, 2.0, 1.0)
        real_dist = float(np.sum(pi * (f.values - res.g_real.values) ** 2))
        assert res.distance <= 4.0 * real_dist + 1e-9
