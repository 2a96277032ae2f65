"""Function tables: variances, entropy, decomposition, norm bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxprod as bp
from boxprod import functions
from boxprod.functions import function_to_dict, load_function
from boxprod.graphs import entropy_sq, write_json
from conftest import naive_component, naive_variance_along, product_pi


def test_dictator_variances(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.dictator(prod, 0)
    assert math.isclose(f.variance(), 1.0, abs_tol=1e-12)
    assert math.isclose(f.variance_along(0), 1.0, abs_tol=1e-12)
    assert math.isclose(f.variance_along(1), 0.0, abs_tol=1e-12)


def test_parity_variances(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.parity(prod)
    assert math.isclose(f.variance_along(0), 1.0, abs_tol=1e-12)
    assert math.isclose(f.variance_along(1), 1.0, abs_tol=1e-12)


def test_constant_variances(k3):
    prod = bp.cartesian_power(k3, 2)
    f = bp.from_values(prod, np.full(9, 2.0))
    assert f.variance() == 0.0
    assert f.variance_along(0) == 0.0


def test_variance_along_two_routes(k3, p3):
    rng = np.random.default_rng(0)
    for g in (k3, p3):
        prod = bp.cartesian_power(g, 2)
        for _ in range(20):
            f = bp.from_values(prod, rng.standard_normal(9))
            for j in range(2):
                assert math.isclose(f.variance_along(j), naive_variance_along(f, j),
                                    abs_tol=1e-12)


def test_boolean_entropy_is_zero(k2):
    prod = bp.cartesian_power(k2, 3)
    rng = np.random.default_rng(1)
    f = bp.random_boolean(prod, rng)
    assert entropy_sq(product_pi(f), f.values) == 0.0


def test_entropy_point_mass(k2):
    prod = bp.cartesian_power(k2, 1)
    f = bp.from_values(prod, [math.sqrt(2.0), 0.0])
    assert math.isclose(entropy_sq(product_pi(f), f.values), math.log(2.0),
                        abs_tol=1e-12)


def test_entropy_scaling_identity(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(2)
    f = bp.from_values(prod, rng.standard_normal(9))
    pi = product_pi(f)
    assert math.isclose(entropy_sq(pi, 3.0 * f.values), 9.0 * entropy_sq(pi, f.values),
                        rel_tol=1e-12)


def test_decompose_dictator(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.dictator(prod, 0)
    dec = bp.decompose(f)
    assert np.allclose(dec.parts[0].values, f.values, atol=1e-12)
    assert np.allclose(dec.parts[1].values, 0.0, atol=1e-12)


def test_decompose_parity_lands_in_last_slot(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.parity(prod)
    dec = bp.decompose(f)
    assert np.allclose(dec.parts[0].values, 0.0, atol=1e-12)
    assert np.allclose(dec.parts[1].values, f.values, atol=1e-12)


def test_decompose_constant(k3):
    prod = bp.cartesian_power(k3, 2)
    f = bp.from_values(prod, np.full(9, -1.0))
    dec = bp.decompose(f)
    for part in dec.parts:
        assert np.allclose(part.values, 0.0, atol=1e-12)
    assert np.allclose(dec.constant.values, -1.0, atol=1e-12)


def test_decompose_matches_dense_oracle(k3):
    prod = bp.cartesian_power(k3, 3)
    rng = np.random.default_rng(3)
    f = bp.from_values(prod, rng.standard_normal(27))
    dec = bp.decompose(f)
    for j in range(3):
        oracle = naive_component(f, j)
        assert np.allclose(dec.parts[j].values, oracle, atol=1e-9)


def test_decompose_invariants_random_boolean(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(4)
    for _ in range(30):
        f = bp.random_boolean(prod, rng)
        dec = bp.decompose(f)
        total = sum(part.norm2_sq() for part in dec.parts)
        assert math.isclose(total, f.variance(), abs_tol=1e-9)
        pi = product_pi(f)
        for a in range(2):
            for b in range(a + 1, 2):
                assert abs(pi @ (dec.parts[a].values * dec.parts[b].values)) < 1e-9
        recon = dec.constant.values + sum(part.values for part in dec.parts)
        assert np.allclose(recon, f.values, atol=1e-9)


def test_l2_l1_bounds_dictator(k2):
    # the dictator is its own part 0, which meets the 2-norm bound with
    # equality
    prod = bp.cartesian_power(k2, 2)
    f = bp.dictator(prod, 0)
    part0 = bp.decompose(f).parts[0]
    var0 = f.variance_along(0)
    assert math.isclose(part0.norm2_sq(), var0, abs_tol=1e-12)
    assert part0.norm1() <= var0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(min_value=0, max_value=2 ** 9 - 1),
       kk=st.sampled_from([1, 2]))
def test_l2_l1_bounds_random_boolean(bits, kk):
    # for Boolean f, both norms of part j are bounded by the coordinate-j
    # variance
    base = bp.complete_graph(3)
    prod = bp.cartesian_power(base, kk)
    size = 3 ** kk
    vals = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(size)])
    f = bp.from_values(prod, vals)
    for j, part in enumerate(bp.decompose(f).parts):
        var_j = f.variance_along(j)
        assert part.norm2_sq() <= var_j + 1e-9
        assert part.norm1() <= var_j + 1e-9


def efron_stein(f):
    """(sum of coordinate variances, variance): the sum dominates."""
    return sum(f.variance_along(j) for j in range(f.k)), f.variance()


def test_efron_stein_additive_equality(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(3)
    h = rng.standard_normal(3)
    vals = (g[:, None] + h[None, :]).reshape(-1)
    lhs, rhs = efron_stein(bp.from_values(prod, vals))
    assert math.isclose(lhs, rhs, abs_tol=1e-12)


def test_efron_stein_parity(k2):
    prod = bp.cartesian_power(k2, 2)
    lhs, rhs = efron_stein(bp.parity(prod))
    assert math.isclose(lhs, 2.0, abs_tol=1e-12)
    assert math.isclose(rhs, 1.0, abs_tol=1e-12)


def test_efron_stein_random(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(6)
    for _ in range(100):
        f = bp.from_values(prod, rng.standard_normal(9))
        lhs, rhs = efron_stein(f)
        assert lhs >= rhs - 1e-9


def test_variance_sandwich(k2):
    # max_j var_j <= var <= k * max_j var_j for Boolean tables
    prod = bp.cartesian_power(k2, 3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = bp.random_boolean(prod, rng)
        vs = [f.variance_along(j) for j in range(3)]
        top = max(vs)
        assert top <= f.variance() + 1e-12
        assert f.variance() <= 3 * top + 1e-12


def test_function_json_roundtrip(tmp_path, k2):
    prod = bp.cartesian_power(k2, 3)
    f = bp.dictator(prod, 1)
    path = tmp_path / "f.json"
    write_json(function_to_dict(f), path)
    loaded = load_function(path, prod)
    assert np.array_equal(loaded.values, f.values)


class _NoDraws:
    """An rng that fails the test when asked for any draw."""

    def __getattr__(self, name):
        pytest.fail(f"rng.{name} called before the dense cap check")


def test_constructors_check_the_cap_before_allocating(k2, monkeypatch):
    # 32 vertices over a cap of 16: small, so the check's order is what counts
    prod = bp.cartesian_power(k2, 5, dense_cap=16)
    monkeypatch.setattr(functions, "from_values", lambda *a: pytest.fail(
        "values built before the dense cap check"))
    for build in (lambda: bp.dictator(prod, 2), lambda: bp.parity(prod),
                  lambda: bp.random_boolean(prod, _NoDraws())):
        with pytest.raises(bp.DenseCapError):
            build()
