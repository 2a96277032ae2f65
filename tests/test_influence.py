"""Entropy lemma chain, influence reports and junta extraction."""

import itertools
import math

import numpy as np
import pytest

import boxprod as bp
from boxprod import influence, spectral
from boxprod.cli import T_SWEEP
from boxprod.graphs import CHECK_SLACK
from boxprod.influence import CorollaryRow, _entropy_rhs, _truncate_to_junta
from conftest import WEIGHTED4, naive_component

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
    dec = bp.decompose(bp.dictator(prod, 0))
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
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = bp.random_boolean(prod, rng)
        for t in (T_MAX, 0.05, 0.01):
            rows = bp.corollary_check(f, t, 2.0)
            assert all(r.ok for r in rows)


def _reference_terms(f):
    """Energy and squared norm of each part of a fresh decomposition, the
    parts built as tables and their energies summed over the edges."""
    return [(bp.dirichlet_form(part), part.norm2_sq()) for part in bp.decompose(f).parts]


def _reference_rows(f, t, alpha):
    """Rows for one t, every term computed afresh from a new decomposition."""
    rows = []
    for j, (lhs, l2_sq) in enumerate(_reference_terms(f)):
        rhs = _entropy_rhs(alpha, f.k, t, f.variance_along(j), l2_sq)
        rows.append(CorollaryRow(j=j, lhs=lhs, rhs=rhs, ok=bool(lhs >= rhs - CHECK_SLACK)))
    return rows


def test_corollary_sweep_matches_fresh_decompositions(k2, k3, c5, p3):
    # C5 and P3 have repeated eigenvalues, and P3 a non-uniform pi
    rng = np.random.default_rng(17)
    for g, k, alpha in ((k2, 5, 2.0), (k3, 3, 1.3), (c5, 3, 0.6), (p3, 4, 0.5)):
        prod = bp.cartesian_power(g, k)
        for _ in range(4):
            f = bp.random_boolean(prod, rng)
            energies, norms = spectral.component_energies(bp.fourier_transform(f))
            for (lhs, l2_sq), energy, norm in zip(_reference_terms(f), energies, norms):
                assert math.isclose(energy, lhs, rel_tol=1e-12, abs_tol=0.0)
                assert math.isclose(norm, l2_sq, rel_tol=1e-12, abs_tol=0.0)
            sweep = bp.corollary_sweep(f, T_SWEEP, alpha)
            assert len(sweep) == len(T_SWEEP)
            for t, rows in zip(T_SWEEP, sweep):
                assert rows == bp.corollary_check(f, t, alpha)
                reference = _reference_rows(f, t, alpha)
                assert [r.j for r in rows] == [r.j for r in reference]
                assert [r.ok for r in rows] == [r.ok for r in reference]
                for row, ref in zip(rows, reference):
                    assert math.isclose(row.lhs, ref.lhs, rel_tol=1e-12, abs_tol=0.0)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(spectral, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        for module in (spectral, influence):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_corollary_sweep_reads_one_transform(k2, k3, monkeypatch):
    calls = _count_calls(monkeypatch, ("fourier_transform", "inverse_transform",
                                       "directional_form"))
    rng = np.random.default_rng(5)
    for f in (bp.random_boolean(bp.cartesian_power(k2, 6), rng),
              bp.random_boolean(bp.cartesian_power(k3, 3), rng)):
        energy = bp.dirichlet_form(f)
        for given, edge_passes in ((None, f.k), (energy, 0)):
            calls.update(dict.fromkeys(calls, 0))
            bp.corollary_sweep(f, T_SWEEP, 1.0, given)
            assert calls == {"fourier_transform": 1, "inverse_transform": 0,
                             "directional_form": edge_passes}


def test_kkl_sums_the_edges_once(monkeypatch, capsys):
    from boxprod.cli import run

    calls = _count_calls(monkeypatch, ("fourier_transform", "inverse_transform",
                                       "directional_form"))
    assert run(["kkl", "--builtin", "k2", "--k", "5", "--fn", "random"]) == 0
    capsys.readouterr()
    # the k edge sums of the influence profile, shared with the sweep
    assert calls == {"fourier_transform": 1, "inverse_transform": 0,
                     "directional_form": 5}


def test_corollary_sweep_raises_when_energies_do_not_add_up():
    # a basis whose eigenvalue disagrees with its eigenfunction: the
    # coefficients then weigh the components wrongly, and the edge sums do not
    g = bp.complete_graph(3)
    evals = np.array(g.basis.eigenvalues)
    evals[1] *= 1.001
    g.__dict__["basis"] = spectral.SpectralBasis(
        eigenvalues=evals, eigenfunctions=np.array(g.basis.eigenfunctions))
    f = bp.random_boolean(bp.cartesian_power(g, 3), np.random.default_rng(2))
    with pytest.raises(AssertionError, match="component energies"):
        bp.corollary_sweep(f, T_SWEEP, 1.3)
    # and an energy handed in that is not f's
    f = bp.random_boolean(bp.cartesian_power(bp.complete_graph(3), 3),
                          np.random.default_rng(2))
    with pytest.raises(AssertionError, match="component energies"):
        bp.corollary_sweep(f, T_SWEEP, 1.3, bp.dirichlet_form(f) + 1e-6)


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


def test_is_junta_on_matches_explicit_tuples(k3, p3):
    # f is a junta on S when tuples that agree on S agree on f; each f is
    # built from a table over a support, and every coordinate set is asked,
    # the empty and the full one included
    rng = np.random.default_rng(0)
    outcomes = set()
    for g, k in ((k3, 3), (p3, 2), (bp.graph_from_dict(WEIGHTED4), 3)):
        prod = bp.cartesian_power(g, k)
        tuples = list(itertools.product(range(g.n), repeat=k))
        subsets = [s for size in range(k + 1) for s in itertools.combinations(range(k), size)]
        for support in subsets:
            table = rng.integers(0, 3, size=(g.n,) * len(support))
            values = [float(table[tuple(x[i] for i in support)]) for x in tuples]
            f = bp.from_values(prod, values)
            for coords in subsets:
                seen = {}
                for x, v in zip(tuples, values):
                    seen.setdefault(tuple(x[i] for i in coords), set()).add(v)
                want = all(len(vs) == 1 for vs in seen.values())
                assert bp.is_junta_on(f, coords) == want, (k, support, coords)
                outcomes.add(want)
    assert outcomes == {True, False}


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
    assert res.distance <= 0.05 + 1e-9
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
    # spot-check the two proof-side bounds the report checks: the distance
    # to the rounded junta and the junta-size bound
    prod = bp.cartesian_power(k2, 3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = bp.random_boolean(prod, rng)
        res = bp.friedgut_extract(f, 0.5, 2.0, 1.0)
        assert res.distance <= 0.5 + 1e-9
        assert len(res.junta) == 0 or math.log(len(res.junta)) <= res.size_bound_log + 1e-9


def test_sign_rounding_factor_four(k2):
    prod = bp.cartesian_power(k2, 6)
    rng = np.random.default_rng(6)
    pi = prod.pi_product()
    for _ in range(20):
        f = bp.random_boolean(prod, rng)
        res = bp.friedgut_extract(f, 0.9, 2.0, 1.0)
        assert res.distance <= 0.9 + 1e-9
        real_dist = float(np.sum(pi * (f.values - res.g_real.values) ** 2))
        assert res.distance <= 4.0 * real_dist + 1e-9


def _off_junta_oracle(f, junta, order):
    """Sum and total energy of the components off ``junta`` when the
    coordinates are taken in ``order``, by the dense oracle."""
    parts = [np.array(naive_component(f, j, order)) for j in range(f.k) if j not in junta]
    total = sum(parts) if parts else np.zeros(f.product.num_vertices)
    return total, sum(bp.dirichlet_form(bp.from_values(f.product, p)) for p in parts)


def test_off_junta_energy_is_the_energy_of_f_minus_g_real(k2, k3, p3):
    # with the junta coordinates first in the order, the components whose
    # support leaves the junta sum to f - g_real, and their energies add
    weighted = bp.build_graph(4, [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 0.7), (0, 3, 1.3)])
    rng = np.random.default_rng(11)
    for g, k in ((k3, 3), (p3, 3), (k2, 5), (weighted, 3)):
        prod = bp.cartesian_power(g, k)
        for size in (0, 1, k - 1, k):
            f = bp.random_boolean(prod, rng)
            junta = [int(j) for j in rng.permutation(k)[:size]]
            order = junta + [int(j) for j in rng.permutation(k) if j not in junta]
            real_diff = f.values - _truncate_to_junta(f, set(junta)).values
            total, energy = _off_junta_oracle(f, junta, order)
            assert np.allclose(total, real_diff, atol=1e-12)
            assert math.isclose(bp.dirichlet_form(bp.from_values(f.product, real_diff)),
                                energy, abs_tol=1e-12)


def test_friedgut_junta_leads_the_variance_order(k2, k3):
    # the extractor's self-check rests on its junta being a prefix of the
    # coordinates sorted by decreasing variance
    rng = np.random.default_rng(12)
    # a random function of coordinates 1 and 3 of K3^4 only
    pattern = rng.choice([-1.0, 1.0], size=(1, 3, 1, 3))
    on_two = np.broadcast_to(pattern, (3,) * 4).reshape(-1)
    cases = [(bp.from_values(bp.cartesian_power(k3, 4), on_two), 0.1, 1.44, 0.75),
             (bp.dictator(bp.cartesian_power(k2, 6), 2), 0.1, 2.0, 1.0),
             (bp.random_boolean(bp.cartesian_power(k3, 3), rng), 0.1, 1.44, 0.75)]
    partial = 0
    for f, eps, alpha, phi in cases:
        res = bp.friedgut_extract(f, eps, alpha, phi)
        order = [int(j) for j in np.argsort(-res.coordinate_variances, kind="stable")]
        assert sorted(order[:len(res.junta)]) == list(res.junta)
        partial += 0 < len(res.junta) < f.k
        total, energy = _off_junta_oracle(f, res.junta, order)
        assert np.allclose(total, f.values - res.g_real.values, atol=1e-12)
        assert math.isclose(bp.dirichlet_form(bp.from_values(f.product, total)), energy,
                            abs_tol=1e-12)
    assert partial >= 2


def test_friedgut_transforms_once_each_way(k2, k3, monkeypatch):
    calls = _count_calls(monkeypatch, ("fourier_transform", "inverse_transform"))
    rng = np.random.default_rng(13)
    for f, alpha, phi in ((bp.dictator(bp.cartesian_power(k2, 4), 0), 2.0, 1.0),
                          (bp.random_boolean(bp.cartesian_power(k3, 3), rng), 1.44, 0.75)):
        for name in calls:
            calls[name] = 0
        bp.friedgut_extract(f, 0.1, alpha, phi)
        assert calls == {"fourier_transform": 1, "inverse_transform": 1}
