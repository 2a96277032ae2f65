"""Eigenbasis, Fourier transform and Dirichlet forms."""

import math

import numpy as np
import pytest

import boxprod as bp
from boxprod.spectral import component_energies
from conftest import WEIGHTED4, naive_mode_apply, naive_multi_eigenvalues


def test_k2_eigenpairs(k2):
    basis = bp.eigendecompose(k2)
    assert np.allclose(basis.eigenvalues, [0.0, 2.0])
    assert basis.eigenfunctions[:, 0].tolist() == [1.0, 1.0]
    assert np.allclose(basis.eigenfunctions[:, 1], [1.0, -1.0])


def test_basis_is_solved_once_per_graph():
    g = bp.cycle_graph(5)
    assert g.basis is g.basis
    fresh = bp.eigendecompose(g)
    for name in ("eigenvalues", "eigenfunctions"):
        cached = getattr(g.basis, name)
        assert not cached.flags.writeable
        assert cached.tobytes() == getattr(fresh, name).tobytes()
    with pytest.raises(ValueError):
        g.basis.eigenvalues[0] = 1.0


def test_k3_eigenvalues(k3):
    basis = bp.eigendecompose(k3)
    assert np.allclose(basis.eigenvalues, [0.0, 1.5, 1.5])


def test_pi_orthonormal(p3, c5):
    for g in (p3, c5):
        basis = bp.eigendecompose(g)
        gram = basis.eigenfunctions.T @ (g.pi[:, None] * basis.eigenfunctions)
        assert np.allclose(gram, np.eye(g.n), atol=1e-9)


def test_generalized_eigen_residual(c5):
    basis = bp.eigendecompose(c5)
    lhs = c5.laplacian @ basis.eigenfunctions
    rhs = (c5.pi[:, None] * basis.eigenfunctions) * basis.eigenvalues[None, :]
    assert np.abs(lhs - rhs).max() < 1e-9


def test_product_eigenvalue_averages(k2):
    # the weights of spectral.component_energies: mean coordinate eigenvalue
    prod = bp.cartesian_power(k2, 2)
    lam = bp.fourier_transform(bp.dictator(prod, 0)).multi_eigenvalues()
    assert lam[0, 0] == 0.0
    assert np.allclose(lam, [[0.0, 1.0], [1.0, 2.0]], rtol=0.0, atol=1e-12)


def test_dictator_fourier_support(k2):
    prod = bp.cartesian_power(k2, 2)
    coeffs = bp.fourier_transform(bp.dictator(prod, 0)).coeffs
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_parity_fourier_support(k2):
    prod = bp.cartesian_power(k2, 2)
    coeffs = bp.fourier_transform(bp.parity(prod)).coeffs
    expected = np.zeros((2, 2))
    expected[1, 1] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_constant_fourier_support(k3):
    prod = bp.cartesian_power(k3, 2)
    f = bp.from_values(prod, np.ones(9))
    coeffs = bp.fourier_transform(f).coeffs
    assert math.isclose(coeffs[0, 0], 1.0, abs_tol=1e-12)
    assert np.abs(coeffs).sum() == pytest.approx(1.0, abs=1e-12)


def test_transform_roundtrip_and_parseval(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = bp.from_values(prod, rng.standard_normal(9))
        coeffs = bp.fourier_transform(f)
        back = bp.inverse_transform(coeffs)
        assert np.allclose(back.values, f.values, atol=1e-9)
        assert math.isclose(float(np.sum(coeffs.coeffs ** 2)), f.norm2_sq(),
                            abs_tol=1e-9)


def test_transform_matches_per_axis_loop_bit_for_bit(k2, k3, p3, c5):
    # the k chained GEMMs of the transforms and the outer sums of the
    # eigenvalue tensor against one tensordot (one broadcast sum) per axis.
    # A block sum of component_energies adds in the memory order of the
    # coefficients, so they keep the loop's layout and kkl's corollary
    # rows keep their bits
    cases = [(k2, k) for k in range(1, 7)]
    cases += [(k3, 4), (k3, 6), (p3, 3), (c5, 3), (bp.graph_from_dict(WEIGHTED4), 3)]
    rng = np.random.default_rng(5)
    for g, k in cases:
        prod = bp.cartesian_power(g, k)
        funcs = g.basis.eigenfunctions
        for _ in range(4):
            f = bp.from_values(prod, rng.standard_normal(prod.num_vertices))
            coeffs = bp.fourier_transform(f)
            want = naive_mode_apply(funcs.T * g.pi[None, :], f.as_tensor(), k)
            assert np.array_equal(coeffs.coeffs, want)
            assert coeffs.coeffs.strides == want.strides
            back = naive_mode_apply(funcs, want, k).reshape(-1)
            assert np.array_equal(bp.inverse_transform(coeffs).values, back)
            naive = bp.FourierCoefficients(product=prod, coeffs=want)
            for a, b in zip(component_energies(coeffs), component_energies(naive)):
                assert a.tobytes() == b.tobytes()
        assert np.array_equal(coeffs.multi_eigenvalues(), naive_multi_eigenvalues(prod))


def test_dictator_directional_forms(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.dictator(prod, 0)
    assert math.isclose(bp.directional_form(f, 0), 2.0, abs_tol=1e-12)
    assert math.isclose(bp.directional_form(f, 1), 0.0, abs_tol=1e-12)
    assert math.isclose(bp.dirichlet_form(f), 1.0, abs_tol=1e-12)


def test_parity_directional_forms(k2):
    prod = bp.cartesian_power(k2, 2)
    f = bp.parity(prod)
    assert math.isclose(bp.directional_form(f, 0), 2.0, abs_tol=1e-12)
    assert math.isclose(bp.directional_form(f, 1), 2.0, abs_tol=1e-12)
    assert math.isclose(bp.dirichlet_form(f), 2.0, abs_tol=1e-12)


def test_constant_directional_forms(k3):
    prod = bp.cartesian_power(k3, 2)
    f = bp.from_values(prod, np.full(9, 3.7))
    assert bp.dirichlet_form(f) == 0.0


def test_dirichlet_matches_materialized_product(p3):
    prod = bp.cartesian_power(p3, 2)
    dense = prod.to_weighted_graph()
    rng = np.random.default_rng(2)
    for _ in range(10):
        vals = rng.standard_normal(9)
        f = bp.from_values(prod, vals)
        assert math.isclose(bp.dirichlet_form(f), dense.dirichlet(vals),
                            abs_tol=1e-12)


def test_average_of_directional_is_dirichlet(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(3)
    f = bp.from_values(prod, rng.standard_normal(9))
    profile = bp.influence_profile(f)
    assert math.isclose(profile.mean(), bp.dirichlet_form(f), abs_tol=1e-12)


def test_spectral_identity_random_functions(p3):
    prod = bp.cartesian_power(p3, 2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = bp.from_values(prod, rng.standard_normal(9))
        coeffs = bp.fourier_transform(f)
        spectral = float(np.sum(coeffs.coeffs ** 2 * coeffs.multi_eigenvalues()))
        assert math.isclose(spectral, bp.dirichlet_form(f), abs_tol=1e-9)


def test_tensor_basis_orthonormal(p3):
    prod = bp.cartesian_power(p3, 2)
    basis = bp.eigendecompose(p3)
    pi = prod.pi_product()
    columns = []
    for i in range(3):
        for j in range(3):
            columns.append(np.kron(basis.eigenfunctions[:, i],
                                   basis.eigenfunctions[:, j]))
    mat = np.stack(columns, axis=1)
    gram = mat.T @ (pi[:, None] * mat)
    assert np.allclose(gram, np.eye(9), atol=1e-9)


def test_product_lambda1_is_base_over_k(k2, k3, p3, c5):
    for g in (k2, k3, p3, c5):
        lam1 = bp.eigendecompose(g).lambda1
        for k in (2, 3):
            dense = bp.cartesian_power(g, k).to_weighted_graph(
                max_vertices=200)
            lam_prod = bp.eigendecompose(dense).lambda1
            assert math.isclose(lam_prod, lam1 / k, abs_tol=1e-9)
