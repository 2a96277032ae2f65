"""Conductance, log-Sobolev estimation and the inequality chain."""

import math

import numpy as np
import pytest

import boxprod as bp
from boxprod import isoperimetry as iso
from conftest import naive_conductance


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


def test_phi_refuses_large_graphs(k2):
    prod = bp.cartesian_power(k2, 6)
    with pytest.raises(ValueError, match="enumeration"):
        bp.conductance_bruteforce(prod)


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


def test_chain_check(k2, k3, p3):
    for g in (k2, k3, p3):
        rep = bp.chain_check(g, seed=0)
        assert rep.chain_ok
        assert rep.lambda1 <= 2.0 * rep.phi + 1e-9


def test_chain_witnesses_reproduce_values(k3, c5):
    for g in (k3, c5):
        rep = bp.chain_check(g, seed=0)
        mask = sum(1 << v for v in rep.phi_witness)
        assert math.isclose(bp.cut_ratio(g, mask), rep.phi, abs_tol=1e-12)
        assert math.isclose(bp.witness_ratio(g, rep.alpha_witness),
                            rep.alpha_hat, rel_tol=1e-12)


def test_chain_k3_values(k3):
    rep = bp.chain_check(k3, seed=0)
    assert math.isclose(rep.lambda1, 1.5, abs_tol=1e-9)
    assert math.isclose(rep.phi, 0.75, abs_tol=1e-12)
    assert rep.alpha_hat <= 1.5 + 1e-6


def test_scaling_report_k2(k2):
    rep = bp.product_scaling_report(k2, 2, seed=0)
    assert math.isclose(rep.phi_ratio, 0.5, abs_tol=1e-9)
    assert math.isclose(rep.lambda1_ratio, 0.5, abs_tol=1e-15)
    assert abs(rep.alpha_ratio - 0.5) <= 0.05


def test_scaling_report_k3(k3):
    rep = bp.product_scaling_report(k3, 2, seed=0)
    assert math.isclose(rep.phi_product, 0.375, abs_tol=1e-9)
    assert not rep.partial


def test_scaling_report_partial_when_big(c5):
    rep = bp.product_scaling_report(c5, 4, seed=0)
    assert rep.partial
    assert rep.phi_product is None
    assert math.isclose(rep.lambda1_ratio, 0.25, abs_tol=1e-15)


def test_scaling_report_partial_base():
    # 30 classes: subset enumeration infeasible at the base level too
    neck = bp.build_necklace(8)
    rep = bp.product_scaling_report(neck, 2, seed=0)
    assert rep.partial
    assert rep.phi_base is None
    assert rep.phi_ratio is None
    assert rep.alpha_base is not None
    assert math.isclose(rep.lambda1_ratio, 0.5, abs_tol=1e-15)


def test_phi_product_scaling_family(k2, k3, p3):
    for g in (k2, k3, p3):
        phi_base, _ = bp.conductance_bruteforce(g)
        phi_prod, _ = bp.conductance_bruteforce(bp.cartesian_power(g, 2))
        assert math.isclose(phi_prod * 2, phi_base, abs_tol=1e-9)


# -- lockstep descent against the one-start-at-a-time reference -----------------

def _reference_energy(graph, f):
    d = f[graph.edge_u] - f[graph.edge_v]
    return 0.5 * float(np.sum(graph.edge_w * d * d))


def _reference_entropy(pi, f):
    f2 = f * f
    n2 = float(np.sum(pi * f2))
    if n2 <= 0.0:
        return 0.0
    log_f2 = np.zeros_like(f2)
    pos = f2 > 0.0
    log_f2[pos] = np.log(f2[pos])
    return float(np.sum(pi * f2 * log_f2)) - n2 * np.log(n2)


def _reference_descend(graph, f0):
    """The descent of one start, as the estimator ran each start before
    its starts advanced in lockstep."""
    pi = graph.pi
    f = f0 / math.sqrt(float(pi @ (f0 * f0)))
    energy, ent = _reference_energy(graph, f), _reference_entropy(pi, f)
    if ent < iso.ENTROPY_FLOOR:
        return math.inf, f
    ratio = 2.0 * energy / ent
    lap = graph.laplacian
    step = 0.1
    for _ in range(iso.LS_MAX_ITERS):
        f2 = f * f
        log_f2 = np.zeros_like(f2)
        log_f2[f2 > 0.0] = np.log(f2[f2 > 0.0])
        grad_energy = 2.0 * (lap @ f)
        grad_ent = 2.0 * pi * f * (log_f2 - math.log(float(pi @ f2)))
        grad = (2.0 * grad_energy * ent - 2.0 * energy * grad_ent) / (ent * ent)
        accepted = False
        for _ in range(60):
            cand = f - step * grad
            cand = cand / math.sqrt(float(pi @ (cand * cand)))
            c_energy, c_ent = _reference_energy(graph, cand), _reference_entropy(pi, cand)
            if c_ent >= iso.ENTROPY_FLOOR and 2.0 * c_energy / c_ent < ratio - 1e-18:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        new_ratio = 2.0 * c_energy / c_ent
        rel = (ratio - new_ratio) / max(abs(ratio), 1e-30)
        f, ratio, energy, ent = cand, new_ratio, c_energy, c_ent
        step *= 1.25
        if rel < iso.LS_TOL:
            break
    return ratio, f


def _reference_starts(graph, seed):
    rng = np.random.default_rng(seed)
    n = graph.n
    starts = [np.ones(n) + 0.1 * bp.eigendecompose(graph).eigenfunctions[:, 1]]
    half = iso.LS_RESTARTS // 2
    starts += [np.ones(n) + 0.2 * rng.standard_normal(n) for _ in range(half)]
    starts += [rng.standard_normal(n) for _ in range(iso.LS_RESTARTS - half)]
    return starts


def _reference_estimate(graph, seed):
    """Best ratio, witness and start count of the starts run one at a time."""
    starts = _reference_starts(graph, seed)
    best, witness = math.inf, None
    for f0 in starts:
        ratio, f = _reference_descend(graph, f0)
        if ratio < best:
            best, witness = ratio, f
    return best, witness, len(starts)


def _assert_matches_reference(graph, seed):
    est = bp.log_sobolev_estimate(graph, seed=seed)
    best, witness, restarts = _reference_estimate(graph, seed)
    assert float.hex(float(est.alpha_hat)) == float.hex(best)
    assert est.witness.tobytes() == witness.tobytes()
    assert est.restarts == restarts


def _random_weighted(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(v, v + 1, 1.0) for v in range(n - 1)]
    edges += [(u, v, float(rng.uniform(0.1, 3.0)))
              for u in range(n) for v in range(u + 2, n) if rng.random() < 0.4]
    return bp.build_graph(n, edges)


def _power(g, k):
    return bp.cartesian_power(g, k).to_weighted_graph()


REFERENCE_GRAPHS = {
    "K2": lambda: bp.complete_graph(2),
    "K3": lambda: bp.complete_graph(3),
    "K5": lambda: bp.complete_graph(5),
    "K5-e": lambda: bp.build_graph(5, [(u, v, 1.0) for u in range(5)
                                       for v in range(u + 1, 5) if (u, v) != (0, 1)]),
    "K2^2": lambda: _power(bp.complete_graph(2), 2),
    "K3^2": lambda: _power(bp.complete_graph(3), 2),
    "K4^2": lambda: _power(bp.complete_graph(4), 2),
    "C5": lambda: bp.cycle_graph(5),
    "P3^2": lambda: _power(bp.path_graph(3), 2),
    "necklace:5": lambda: bp.build_necklace(5),
    "random6": lambda: _random_weighted(6, 11),
    "random9": lambda: _random_weighted(9, 12),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_lockstep_descent_matches_reference_bits(name):
    graph = REFERENCE_GRAPHS[name]()
    for seed in (0, 1):
        _assert_matches_reference(graph, seed)


@pytest.mark.parametrize("max_iters", [1, 7])
def test_lockstep_descent_matches_reference_at_iteration_cap(monkeypatch, max_iters):
    monkeypatch.setattr(iso, "LS_MAX_ITERS", max_iters)
    for name in ("K3", "C5", "P3^2", "random9"):
        for seed in (0, 3):
            _assert_matches_reference(REFERENCE_GRAPHS[name](), seed)


def test_entropy_degenerate_start_leaves_other_rows_running():
    # a constant start has zero entropy; the rows around it descend on
    graph = REFERENCE_GRAPHS["random6"]()
    starts = _reference_starts(graph, 2)
    starts[3] = np.full(graph.n, 0.7)
    ratios, rows = iso._lockstep_descent(graph, np.array(starts))
    assert ratios[3] == math.inf
    for i, f0 in enumerate(starts):
        ratio, f = _reference_descend(graph, f0)
        assert float.hex(float(ratios[i])) == float.hex(ratio)
        assert rows[i].tobytes() == f.tobytes()
    assert np.isfinite(np.delete(ratios, 3)).all()
