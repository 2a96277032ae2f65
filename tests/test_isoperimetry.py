"""Conductance, log-Sobolev estimation and the inequality chain."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxprod as bp
from boxprod import isoperimetry as iso
from conftest import checks_by_name, isoperimetry_report, naive_conductance
from descent_reference import (DATA, REFERENCE_GRAPHS, SAVED, SEEDS, reference_descend,
                               reference_estimate, reference_starts)


def test_phi_k2(k2):
    phi, witness = bp.conductance_bruteforce(k2)
    assert phi == 1.0
    assert witness == (0,)


def test_phi_k3(k3):
    phi, witness = bp.conductance_bruteforce(k3)
    assert math.isclose(phi, 0.75, abs_tol=1e-12)
    assert witness == (0,)


def test_phi_c5(c5):
    phi, _ = bp.conductance_bruteforce(c5)
    assert math.isclose(phi, 5.0 / 12.0, abs_tol=1e-12)


def test_phi_matches_naive_enumeration(p3, c5, k3):
    for g in (p3, c5, k3):
        phi, witness = bp.conductance_bruteforce(g)
        naive_phi, _ = naive_conductance(g)
        assert math.isclose(phi, naive_phi, abs_tol=1e-12)
        assert math.isclose(bp.cut_ratio(g, sum(1 << v for v in witness)), phi,
                            abs_tol=1e-15)


def test_phi_k2_square(k2):
    prod = bp.cartesian_power(k2, 2)
    phi, witness = bp.conductance_bruteforce(prod)
    assert math.isclose(phi, 0.5, abs_tol=1e-12)
    assert witness == (0, 1)


def test_phi_refuses_large_graphs(k2, c5, monkeypatch):
    # refused before the product is materialized
    def unbuilt(self, *args, **kwargs):
        raise AssertionError("product materialized")

    monkeypatch.setattr(bp.ProductGraph, "to_weighted_graph", unbuilt)
    for k in (6, 9, 12):
        with pytest.raises(ValueError, match="enumeration"):
            bp.conductance_bruteforce(bp.cartesian_power(k2, k))
    monkeypatch.undo()
    # the 25 vertices of C5^2 are still scanned
    assert iso.scannable(bp.cartesian_power(c5, 2)).n == 25


def test_functional_form_k2(k2):
    assert math.isclose(
        bp.conductance_functional(k2, np.array([1.0, -1.0])), 1.0,
        abs_tol=1e-12)


def test_functional_form_k3(k3):
    val = bp.conductance_functional(k3, np.array([1.0, -1.0, -1.0]))
    assert math.isclose(val, 0.75, abs_tol=1e-12)


def test_functional_form_dictator_on_square(k2):
    prod = bp.cartesian_power(k2, 2)
    dense = prod.to_weighted_graph()
    f = bp.dictator(prod, 0)
    assert math.isclose(bp.conductance_functional(dense, f.values), 0.5,
                        abs_tol=1e-12)


def test_functional_rejects_constant(k2):
    with pytest.raises(ValueError, match="variance"):
        bp.conductance_functional(k2, np.array([1.0, 1.0]))


def test_set_and_functional_forms_agree_exhaustively(p3, c5):
    for g in (p3, c5):
        for mask in range(1, (1 << g.n) - 1):
            f = np.array([1.0 if (mask >> v) & 1 else -1.0
                          for v in range(g.n)])
            assert math.isclose(bp.cut_ratio(g, mask),
                                bp.conductance_functional(g, f),
                                abs_tol=1e-12)


def test_boolean_energy_dominated_by_conductance(c5):
    phi, _ = bp.conductance_bruteforce(c5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.choice([-1.0, 1.0], size=5)
        if np.all(f == f[0]):
            continue
        assert c5.dirichlet(f) >= 2.0 * phi * c5.variance(f) - 1e-12


def test_log_sobolev_k2(k2):
    est = bp.log_sobolev_estimate(k2, seed=0)
    assert abs(est.alpha_hat - 2.0) <= 0.02
    assert math.isclose(bp.witness_ratio(k2, est.witness), est.alpha_hat,
                        rel_tol=1e-12)


def test_log_sobolev_upper_bound_witness(k2):
    # the point-mass function certifies alpha <= 2/log(2)
    ratio = bp.witness_ratio(k2, np.array([math.sqrt(2.0), 0.0]))
    assert math.isclose(ratio, 2.0 / math.log(2.0), rel_tol=1e-12)
    est = bp.log_sobolev_estimate(k2, seed=1)
    assert est.alpha_hat <= ratio + 1e-9


def test_log_sobolev_k2_square(k2):
    dense = bp.cartesian_power(k2, 2).to_weighted_graph()
    est = bp.log_sobolev_estimate(dense, seed=0)
    assert abs(est.alpha_hat - 1.0) <= 0.05


def test_hypercube_alpha_anchor(k2):
    # hard anchor for single-edge powers: constant is 2/k
    for k in (1, 2, 3):
        dense = bp.cartesian_power(k2, k).to_weighted_graph()
        est = bp.log_sobolev_estimate(dense, seed=0)
        assert abs(est.alpha_hat - 2.0 / k) <= 0.05


def chain_of(g, tmp_path):
    """The ``chain_base`` check ``analyze isoperimetry`` reports for ``g``:
    at k = 1 the product is the base graph."""
    return checks_by_name(isoperimetry_report(g, 1, tmp_path))["chain_base"]


def test_chain_check(k2, k3, p3, tmp_path):
    for g in (k2, k3, p3):
        chain = chain_of(g, tmp_path)
        assert chain["passed"]
        assert chain["detail"]["lambda1"] <= 2.0 * chain["detail"]["phi"] + 1e-9


def test_chain_witnesses_reproduce_values(k3, c5):
    for g in (k3, c5):
        base, power = bp.product_scaling_report(bp.cartesian_power(g, 1), seed=0)
        assert power is base
        phi, witness = base.scan
        mask = sum(1 << v for v in witness)
        assert math.isclose(bp.cut_ratio(g, mask), phi, abs_tol=1e-12)
        assert math.isclose(bp.witness_ratio(g, base.estimate.witness),
                            base.estimate.alpha_hat, rel_tol=1e-12)


def test_chain_k3_values(k3, tmp_path):
    detail = chain_of(k3, tmp_path)["detail"]
    assert math.isclose(detail["lambda1"], 1.5, abs_tol=1e-9)
    assert math.isclose(detail["phi"], 0.75, abs_tol=1e-12)
    assert detail["alpha_hat"] <= 1.5 + 1e-6


def test_scaling_report_k2(k2, tmp_path):
    checks = checks_by_name(isoperimetry_report(k2, 2, tmp_path))
    assert math.isclose(checks["phi_ratio_is_1_over_k"]["detail"]["phi_ratio"], 0.5,
                        abs_tol=1e-9)
    assert math.isclose(checks["lambda1_ratio_is_1_over_k"]["detail"]["lambda1_ratio"],
                        0.5, abs_tol=1e-15)
    assert abs(checks["alpha_ratio_near_1_over_k"]["detail"]["alpha_ratio"] - 0.5) <= 0.05


def test_scaling_report_k3(k3, tmp_path):
    results = isoperimetry_report(k3, 2, tmp_path)["results"]
    assert math.isclose(results["phi_product"], 0.375, abs_tol=1e-9)
    assert not results["partial"]


def test_scaling_report_partial_when_big(c5, tmp_path):
    report = isoperimetry_report(c5, 4, tmp_path)
    assert report["results"]["partial"]
    assert report["results"]["phi_product"] is None
    lambda1_check = checks_by_name(report)["lambda1_ratio_is_1_over_k"]
    assert math.isclose(lambda1_check["detail"]["lambda1_ratio"], 0.25, abs_tol=1e-15)


def test_scaling_report_partial_base(tmp_path):
    # 30 classes: subset enumeration infeasible at the base level too
    neck = bp.build_necklace(8)
    report = isoperimetry_report(neck, 2, tmp_path)
    checks = checks_by_name(report)
    assert report["results"]["partial"]
    assert report["results"]["phi_base"] is None
    assert "phi_ratio_is_1_over_k" not in checks
    assert report["results"]["alpha_base"] is not None
    assert math.isclose(checks["lambda1_ratio_is_1_over_k"]["detail"]["lambda1_ratio"],
                        0.5, abs_tol=1e-15)


def test_phi_product_scaling_family(k2, k3, p3):
    for g in (k2, k3, p3):
        phi_base, _ = bp.conductance_bruteforce(g)
        phi_prod, _ = bp.conductance_bruteforce(bp.cartesian_power(g, 2))
        assert math.isclose(phi_prod * 2, phi_base, abs_tol=1e-9)


def _descent_rounds(monkeypatch, graph, seed):
    # the descent evaluates the energy once at its starts and once a round
    calls = []
    dirichlet = bp.WeightedGraph.dirichlet

    def counted(self, f):
        calls.append(None)
        return dirichlet(self, f)

    monkeypatch.setattr(bp.WeightedGraph, "dirichlet", counted)
    bp.log_sobolev_estimate(graph, seed=seed)
    monkeypatch.undo()
    return len(calls) - 1


@pytest.mark.parametrize("name, cap", [("C5", iso.LS_MAX_ITERS // 10),
                                       ("P3^2", iso.LS_MAX_ITERS)])
def test_descent_stops_before_the_iteration_cap(monkeypatch, name, cap):
    # with a fixed step growth every start of C5 and P3^2 ran to the cap,
    # over 5,000 rounds; each accepted round is one iteration
    graph = REFERENCE_GRAPHS[name]()
    for seed in (0, 1):
        assert _descent_rounds(monkeypatch, graph, seed) < cap


def test_rows_stop_once_their_step_no_longer_moves_them(monkeypatch):
    # with 60 halvings of a step that leaves f unchanged, K2 took 130
    # rounds at seed 0 and 140 at seed 1
    graph = REFERENCE_GRAPHS["K2"]()
    assert _descent_rounds(monkeypatch, graph, 0) <= 84
    assert _descent_rounds(monkeypatch, graph, 1) <= 93


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(fg=st.integers(min_value=1, max_value=8).flatmap(
           lambda n: st.tuples(st.lists(_finite, min_size=n, max_size=n),
                               st.lists(_finite, min_size=n, max_size=n))),
       s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_a_step_that_leaves_f_unchanged_does_so_when_halved(fg, s):
    # why a rejected row whose candidate f - s*g equals f may stop: rounding
    # is monotone, so a smaller step moves f no more.  s is halved until it
    # no longer moves f, which puts it on the edge where that first holds.
    f, g = (np.array(v) for v in fg)
    with np.errstate(over="ignore"):
        while not np.array_equal(f - s * g, f):
            s *= 0.5
    halved = s
    for j in range(1, 61):
        halved *= 0.5
        assert np.array_equal(f - halved * g, f)
        assert np.array_equal(f - (s * 0.5 ** j) * g, f)


def _alpha_complete(q):
    # Diaconis & Saloff-Coste 1996, in the package's normalization
    return 2.0 * (q - 2) / ((q - 1) * math.log(q - 1))


@pytest.mark.parametrize("q, k", [(3, 1), (4, 1), (3, 2), (4, 2)])
def test_log_sobolev_estimate_near_closed_form(q, k):
    # alpha(K_q^k) = alpha(K_q) / k; over seeds 0-59 the estimates lay
    # within -1.4e-15 and +6.9e-13 of it, relative
    graph = bp.cartesian_power(bp.complete_graph(q), k).to_weighted_graph()
    alpha = _alpha_complete(q) / k
    for seed in range(4):
        est = bp.log_sobolev_estimate(graph, seed=seed)
        assert abs(est.alpha_hat - alpha) <= 1e-12 * alpha


# -- lockstep descent against the one-start-at-a-time reference -----------------

SAVED_RESULTS = json.loads(DATA.read_text())


def _assert_matches_reference(graph, seed):
    est = bp.log_sobolev_estimate(graph, seed=seed)
    best, witness, restarts = reference_estimate(graph, seed)
    assert float.hex(float(est.alpha_hat)) == float.hex(best)
    assert est.witness.tobytes() == witness.tobytes()
    assert est.restarts == restarts


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_lockstep_descent_matches_reference_bits(name):
    # the slow cases compare with the reference's saved results
    graph = REFERENCE_GRAPHS[name]()
    for seed in SEEDS:
        if name not in SAVED:
            _assert_matches_reference(graph, seed)
            continue
        saved = SAVED_RESULTS[name][str(seed)]
        est = bp.log_sobolev_estimate(graph, seed=seed)
        assert float.hex(float(est.alpha_hat)) == saved["alpha_hat"]
        assert est.witness.tobytes().hex() == saved["witness"]
        assert est.restarts == saved["restarts"]


@pytest.mark.parametrize("max_iters", [1, 7])
def test_lockstep_descent_matches_reference_at_iteration_cap(monkeypatch, max_iters):
    monkeypatch.setattr(iso, "LS_MAX_ITERS", max_iters)
    for name in ("K3", "C5", "P3^2", "random9"):
        for seed in (0, 3):
            _assert_matches_reference(REFERENCE_GRAPHS[name](), seed)


def test_entropy_degenerate_start_leaves_other_rows_running():
    # a constant start has zero entropy; the rows around it descend on
    graph = REFERENCE_GRAPHS["random6"]()
    starts = reference_starts(graph, 2)
    starts[3] = np.full(graph.n, 0.7)
    ratios, rows = iso._lockstep_descent(graph, np.array(starts))
    assert ratios[3] == math.inf
    for i, f0 in enumerate(starts):
        ratio, f = reference_descend(graph, f0)
        assert float.hex(float(ratios[i])) == float.hex(ratio)
        assert rows[i].tobytes() == f.tobytes()
    assert np.isfinite(np.delete(ratios, 3)).all()
