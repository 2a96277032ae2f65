"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

import boxprod as bp
from boxprod.cli import run as cli_run
from conftest import checks_by_name, isoperimetry_report

T_SWEEP = (math.exp(-2.0), 0.05, 0.01)


def _verdict(tag, passed, detail, started):
    elapsed = time.time() - started
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {tag}: {status} ({elapsed:.1f}s) - {detail}")
    assert passed, f"{tag} failed: {detail}"


def _family():
    return {
        "k2": bp.complete_graph(2),
        "k3": bp.complete_graph(3),
        "p3": bp.path_graph(3),
        "c5": bp.cycle_graph(5),
    }


def test_criterion_01_conductance_scaling():
    started = time.time()
    cases = [(g, 2) for g in _family().values()]
    k2 = bp.complete_graph(2)
    cases += [(k2, 3), (k2, 4)]
    worst = 0.0
    for g, k in cases:
        phi_base, _ = bp.conductance_bruteforce(g)
        phi_prod, _ = bp.conductance_bruteforce(bp.cartesian_power(g, k))
        worst = max(worst, abs(phi_prod - phi_base / k))
    _verdict("criterion 1 (conductance scaling)", worst <= 1e-9,
             f"max |phi(G^k) - phi(G)/k| = {worst:.2e}", started)


def test_criterion_02_spectral_scaling():
    started = time.time()
    cases = [(g, 2) for g in _family().values()]
    k2 = bp.complete_graph(2)
    cases += [(k2, 3), (k2, 4)]
    worst = 0.0
    for g, k in cases:
        lam_base = bp.eigendecompose(g).lambda1
        dense = bp.cartesian_power(g, k).to_weighted_graph(max_vertices=256)
        lam_prod = bp.eigendecompose(dense).lambda1
        worst = max(worst, abs(lam_prod - lam_base / k))
    _verdict("criterion 2 (spectral scaling)", worst <= 1e-9,
             f"max |lambda1(G^k) - lambda1(G)/k| = {worst:.2e}", started)


def test_criterion_03_log_sobolev_scaling(tmp_path):
    started = time.time()
    k2 = bp.complete_graph(2)
    a_base = bp.log_sobolev_estimate(k2, seed=0).alpha_hat
    square = bp.cartesian_power(k2, 2).to_weighted_graph()
    a_square = bp.log_sobolev_estimate(square, seed=0).alpha_hat
    ok = abs(a_base - 2.0) <= 0.02 and abs(a_square - 1.0) <= 0.05

    def chain_passed(g, k, name):
        return checks_by_name(isoperimetry_report(g, k, tmp_path))[name]["passed"]

    # the chains analyze isoperimetry reports; at k = 1 the product is the base
    chains = [(name, chain_passed(g, 1, "chain_base")) for name, g in _family().items()]
    chains.append(("k2^2", chain_passed(k2, 2, "chain_product")))
    ok = ok and all(flag for _, flag in chains)
    _verdict("criterion 3 (log-Sobolev scaling + chain)", ok,
             f"alpha(K2)={a_base:.4f}, alpha(K2^2)={a_square:.4f}, "
             f"chains={chains}", started)


def test_criterion_04_lemma_suite():
    started = time.time()
    rng = np.random.default_rng(0)
    k2 = bp.complete_graph(2)
    k3 = bp.complete_graph(3)
    setups = [(k2, 1, 2.0), (k2, 2, 2.0), (k2, 3, 2.0),
              (k3, 2, bp.log_sobolev_estimate(k3, seed=0).alpha_hat)]
    violations = 0
    total = 0
    for base, k, alpha in setups:
        prod = bp.cartesian_power(base, k)
        for _ in range(60):
            f = bp.random_boolean(prod, rng)
            dec = bp.decompose(f)
            total += 1
            var = f.variance()
            parts_norm = sum(p.norm2_sq() for p in dec.parts)
            if abs(parts_norm - var) > 1e-9:
                violations += 1
            pi = prod.pi_product()
            for a in range(k):
                for b in range(a + 1, k):
                    if abs(pi @ (dec.parts[a].values * dec.parts[b].values)) > 1e-9:
                        violations += 1
            for j, part in enumerate(dec.parts):
                vj = f.variance_along(j)
                if part.norm2_sq() > vj + 1e-9 or part.norm1() > vj + 1e-9:
                    violations += 1
            for t in T_SWEEP:
                rows = bp.corollary_check(f, t, alpha)
                violations += sum(0 if r.ok else 1 for r in rows)
    _verdict("criterion 4 (component lemma suite)",
             violations == 0 and total >= 200,
             f"{total} random Boolean functions, {violations} violations",
             started)


def test_criterion_05_variance_subadditivity():
    started = time.time()
    rng = np.random.default_rng(1)
    prod = bp.cartesian_power(bp.complete_graph(3), 2)
    violations = 0
    for _ in range(500):
        f = bp.from_values(prod, rng.standard_normal(9))
        lhs = sum(f.variance_along(j) for j in range(f.k))
        if lhs < f.variance() - 1e-9:
            violations += 1
    _verdict("criterion 5 (variance subadditivity)", violations == 0,
             f"500 random tables, {violations} violations", started)


def test_criterion_06_junta_extraction():
    started = time.time()
    k2 = bp.complete_graph(2)
    prod = bp.cartesian_power(k2, 8)
    clean = bp.friedgut_extract(bp.dictator(prod, 0), 0.1, 2.0, 1.0)
    ok_a = clean.junta == (0,) and clean.distance == 0.0

    rng = np.random.default_rng(2)
    vals = bp.dictator(prod, 0).values.copy()
    flips = rng.choice(256, size=round(0.01 * 256), replace=False)
    vals[flips] *= -1.0
    noisy = bp.friedgut_extract(bp.from_values(prod, vals), 0.2, 2.0, 1.0)
    ok_b = (noisy.distance <= 0.2 + 1e-9 and 0 in noisy.junta
            and (len(noisy.junta) == 0
                 or math.log(len(noisy.junta)) <= noisy.size_bound_log + 1e-9))

    # permutation independence of the rounded junta
    ok_c = True
    for res in (clean, noisy):
        tens = res.g_tilde.as_tensor()
        for axis in range(8):
            if axis in res.junta:
                continue
            if not np.array_equal(tens, np.flip(tens, axis=axis)):
                ok_c = False
    ok_c = ok_c and bp.is_junta_on(clean.g_tilde, clean.junta)
    _verdict("criterion 6 (junta extraction)", ok_a and ok_b and ok_c,
             f"dictator junta={clean.junta}, noisy distance="
             f"{noisy.distance:.4f}, junta size={len(noisy.junta)}", started)


def test_criterion_07_max_influence_trend():
    started = time.time()
    rng = np.random.default_rng(3)
    k2 = bp.complete_graph(2)
    floors = {}
    for k in (4, 8, 16):
        prod = bp.cartesian_power(k2, k)
        ratios = []
        for _ in range(50):
            # a balanced table: half the vertices -1, in a shuffled order
            vals = np.ones(prod.num_vertices)
            vals[: prod.num_vertices // 2] = -1.0
            rng.shuffle(vals)
            f = bp.from_values(prod, vals)
            rep = bp.kkl_report(f, 2.0)
            if rep.max_influence < rep.mean_influence - 1e-12:
                floors[k] = 0.0
            ratios.append(rep.ratio)
        floors[k] = min(ratios)
    values = [floors[k] for k in (4, 8, 16)]
    ok = all(v >= 0.5 for v in values)
    ok = ok and values[1] >= values[0] * 0.9 and values[2] >= values[1] * 0.9
    _verdict("criterion 7 (max-influence ratio trend)", ok,
             f"per-k minimum ratios {values}", started)


def test_criterion_08_sdp_lifting():
    started = time.time()
    k2 = bp.complete_graph(2)
    prod = bp.cartesian_power(k2, 2)
    dense = prod.to_weighted_graph()
    opt, sol = bp.basic_sdp_opt(k2)
    ok = abs(opt - 2.0) <= 1e-9
    lifted = bp.lift_vectors(sol, prod)
    ok = ok and abs(lifted.objective(dense) - 1.0) <= 1e-9
    ok = ok and abs(lifted.spread(dense) - 1.0) <= 1e-9

    # triangle preservation on bases up to 4 vertices, k = 2
    for base in (k2, bp.path_graph(3), bp.path_graph(4)):
        cuts = bp.random_cut_combination(base, cuts=3, seed=7)
        assert bp.check_triangle(cuts).count == 0
        prod2 = bp.cartesian_power(base, 2)
        rep = bp.check_triangle(bp.lift_vectors(cuts, prod2))
        ok = ok and rep.count == 0 and not rep.partial

    dist = bp.uniform_cut_distribution(2, (0,))
    ls = bp.lasserre_from_distribution(dist, 2, 2)
    lifted_ls = bp.lift_lasserre(ls, prod, 2)
    delta_gap = lifted_ls.check_delta_consistency()
    ok = ok and delta_gap <= 1e-9

    ld = bp.sa_from_distribution(dist, 2, 2)
    vecs = bp.vectors_from_distribution(dist)
    _, _, marginal_gap, vector_gap = bp.lift_sherali_adams(ld, vecs, prod)
    ok = ok and marginal_gap <= 1e-9 and vector_gap <= 1e-9
    _verdict("criterion 8 (SDP lifting)", ok,
             f"opt={opt:.6f}, delta_gap={delta_gap:.2e}, "
             f"sa gaps=({marginal_gap:.2e}, {vector_gap:.2e})", started)


def test_criterion_09a_necklace_orbit_counts():
    started = time.time()
    counts = {r: bp.build_necklace(r).n for r in (3, 4, 5)}
    ok = counts == {3: 2, 4: 4, 5: 6}
    _verdict("criterion 9a (necklace orbit counts)", ok, f"{counts}", started)


def test_criterion_09b_consecutive_ones_probability():
    # As stated this pins the sampled Pr[f=-1] to (1-1/k)^k within three
    # Monte-Carlo standard errors.  The run-probability behind that target
    # is a first-moment estimate; the measured probability of a cyclic run
    # sits well below 1/k, so the criterion fails by construction.  It is
    # kept faithful rather than loosened; see the verdict detail.
    started = time.time()
    neck = bp.build_necklace(16)
    gaps = {}
    ok = True
    for k in (4, 8):
        fn = bp.consecutive_ones_function(16, k, neck)
        est = bp.probability_minus_one(fn, neck, k, 100_000, seed=9)
        target = (1.0 - 1.0 / k) ** k
        gaps[k] = (est.estimate, target, 3.0 * est.half_width)
        ok = ok and abs(est.estimate - target) <= 3.0 * est.half_width
    _verdict("criterion 9b (consecutive-ones probability)", ok,
             f"(estimate, target, 3se) by k: {gaps}", started)


def test_criterion_09c_influence_trend():
    started = time.time()
    grid = [(2, 8), (4, 8), (4, 16), (8, 16)]
    estimates = []
    for k, r in grid:
        neck = bp.build_necklace(r)
        fn = bp.consecutive_ones_function(r, k, neck)
        est = bp.influence_monte_carlo(fn, neck, k, 0, 100_000, seed=13)
        estimates.append((k * r, est.estimate, est.half_width))
    ok = all(
        estimates[i + 1][1] + estimates[i + 1][2]
        < estimates[i][1] - estimates[i][2]
        for i in range(len(estimates) - 1)
    )
    _verdict("criterion 9c (influence decreasing in k*R)", ok,
             f"(kR, estimate, halfwidth): {estimates}", started)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.time()
    commands = (
        ["isoperimetry", "--builtin", "k2", "--k", "2", "--seed", "3"],
        ["kkl", "--builtin", "k2", "--k", "3", "--fn", "random", "--seed", "3"],
        ["friedgut", "--builtin", "k2", "--k", "4", "--fn", "dictator",
         "--seed", "3"],
        ["sdp-lift", "--builtin", "k2", "--k", "2", "--seed", "3"],
    )
    ok = True
    for argv in commands:
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        ok = ok and cli_run(argv + ["--out", str(a)]) == 0
        ok = ok and cli_run(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _verdict("criterion 10 (CLI determinism)", ok,
             f"{len(commands)} commands byte-stable", started)
