"""SDP relaxation value, liftings and their feasibility verifiers."""

import itertools
import math

import numpy as np
import pytest

import boxprod as bp
from boxprod import sdp


def test_basic_opt_k2(k2):
    opt, sol = bp.basic_sdp_opt(k2)
    assert math.isclose(opt, 2.0, abs_tol=1e-9)
    assert math.isclose(sol.spread(k2), 1.0, abs_tol=1e-9)
    assert math.isclose(sol.objective(k2), opt, abs_tol=1e-9)


def test_basic_opt_k3(k3):
    opt, _ = bp.basic_sdp_opt(k3)
    assert math.isclose(opt, 1.5, abs_tol=1e-9)


def test_basic_opt_k2_square(k2):
    dense = bp.cartesian_power(k2, 2).to_weighted_graph()
    opt, _ = bp.basic_sdp_opt(dense)
    assert math.isclose(opt, 1.0, abs_tol=1e-9)


def test_basic_opt_is_rayleigh_minimum(c5):
    # no random feasible embedding beats the spectral optimum
    opt, _ = bp.basic_sdp_opt(c5)
    for seed in range(40):
        sol = bp.random_feasible_sdp(c5, dim=3, seed=seed)
        assert sol.objective(c5) >= opt - 1e-9


def test_basic_opt_brute_force_1d(k2):
    # dense scan over 1-d embeddings on a grid cannot beat the optimum
    opt, _ = bp.basic_sdp_opt(k2)
    grid = np.linspace(-2, 2, 41)
    best = math.inf
    for a in grid:
        for b in grid:
            sol = bp.SdpSolution(vectors=np.array([[a], [b]]))
            s = sol.spread(k2)
            if s < 1e-9:
                continue
            best = min(best, sol.objective(k2) / s)
    assert best >= opt - 1e-9
    assert math.isclose(best, opt, abs_tol=1e-6)


def test_lift_vectors_k2(k2):
    prod = bp.cartesian_power(k2, 2)
    dense = prod.to_weighted_graph()
    _, sol = bp.basic_sdp_opt(k2)
    lifted = bp.lift_vectors(sol, prod)
    assert math.isclose(lifted.objective(dense), 1.0, abs_tol=1e-9)
    assert math.isclose(lifted.spread(dense), 1.0, abs_tol=1e-9)


def test_lift_vectors_k1_identity(k3):
    prod = bp.cartesian_power(k3, 1)
    _, sol = bp.basic_sdp_opt(k3)
    lifted = bp.lift_vectors(sol, prod)
    assert math.isclose(lifted.objective(k3), sol.objective(k3), abs_tol=1e-12)


def test_lift_vectors_k3_objective(k3):
    prod = bp.cartesian_power(k3, 2)
    dense = prod.to_weighted_graph()
    _, sol = bp.basic_sdp_opt(k3)
    lifted = bp.lift_vectors(sol, prod)
    assert math.isclose(lifted.objective(dense), 0.75, abs_tol=1e-9)


def test_lift_vectors_random_feasible(p3):
    prod = bp.cartesian_power(p3, 2)
    for seed in range(10):
        sol = bp.random_feasible_sdp(p3, dim=2, seed=seed)
        lifted = bp.lift_vectors(sol, prod)  # Gram and spread checks must pass
        assert abs(lifted.objective_lifted - lifted.objective_base / 2) <= 1e-9


def test_lift_vectors_rejects_infeasible(k2):
    prod = bp.cartesian_power(k2, 2)
    bad = bp.SdpSolution(vectors=np.array([[1.0], [-1.0]]))
    with pytest.raises(ValueError, match="spread"):
        bp.lift_vectors(bad, prod)


def test_lift_vectors_returns_the_values_it_checked(k2, k3, p3, c5):
    from boxprod.sdp import LIFT_MAX_VERTICES

    cases = [(k2, 2, bp.basic_sdp_opt(k2)[1]), (k3, 1, bp.basic_sdp_opt(k3)[1]),
             (p3, 2, bp.random_feasible_sdp(p3, dim=2, seed=4)),
             (c5, 2, bp.random_cut_combination(c5, cuts=3, seed=5)),
             (k2, 10, bp.basic_sdp_opt(k2)[1])]
    for base, k, sol in cases:
        prod = bp.cartesian_power(base, k)
        lifted = bp.lift_vectors(sol, prod)
        assert isinstance(lifted, bp.SdpSolution) and lifted.n == base.n ** k
        dense = prod.to_weighted_graph(max_vertices=LIFT_MAX_VERTICES)
        assert lifted.objective_base == sol.objective(base)
        assert lifted.objective_lifted == lifted.objective(dense)
        assert lifted.spread_lifted == lifted.spread(dense)
        assert abs(lifted.objective_lifted - lifted.objective_base / k) <= 1e-9


def test_lift_vectors_refuses_a_large_product_before_the_solution(k2):
    # an infeasible solution on 2^11 vertices meets the vertex cap first
    bad = bp.SdpSolution(vectors=np.array([[1.0], [-1.0]]))
    with pytest.raises(bp.DenseCapError, match="limit 1024"):
        bp.lift_vectors(bad, bp.cartesian_power(k2, 11))


def test_triangle_cut_metric_clean(k2):
    sol = bp.SdpSolution(vectors=np.array([[0.5], [-0.5]]))
    rep = bp.check_triangle(sol)
    assert rep.count == 0
    assert not rep.partial


def test_triangle_flags_violation():
    # 1-d three-point line metric: (0, 1, 2) squared distances violate
    sol = bp.SdpSolution(vectors=np.array([[0.0], [1.0], [2.0]]))
    rep = bp.check_triangle(sol)
    assert rep.count > 0


def test_triangle_preserved_by_lifting(p3, k2):
    for base, k in [(k2, 2), (p3, 2)]:
        prod = bp.cartesian_power(base, k)
        sol = bp.random_cut_combination(base, cuts=3, seed=11)
        assert bp.check_triangle(sol).count == 0
        lifted = bp.lift_vectors(sol, prod)
        rep = bp.check_triangle(lifted)
        assert rep.count == 0
        assert not rep.partial


def test_triangle_sampled_mode(monkeypatch):
    monkeypatch.setattr(sdp, "TRIANGLE_BUDGET", 10_000)
    rng = np.random.default_rng(0)
    sol = bp.SdpSolution(vectors=rng.standard_normal((60, 2)))
    rep = bp.check_triangle(sol, seed=1)
    assert rep.partial
    assert rep.checked == 10_000


def test_sa_lift_exact_cut(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ld = bp.sa_from_distribution(dist, 2, 2)
    sol = bp.vectors_from_distribution(dist)
    lifted_ld, lifted_sol, marginal_gap, vector_gap = bp.lift_sherali_adams(
        ld, sol, prod)
    assert marginal_gap <= 1e-9
    assert vector_gap <= 1e-9
    for tup in itertools.product(range(2), repeat=2):
        # the row of a singleton holds + and then -
        plus, minus = lifted_ld.tables[(tup,)].tolist()
        assert math.isclose(plus, 0.5, abs_tol=1e-12)
        assert math.isclose(minus, 0.5, abs_tol=1e-12)


def test_sa_lift_collapsed_coordinates(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ld = bp.sa_from_distribution(dist, 2, 2)
    sol = bp.vectors_from_distribution(dist)
    lifted_ld, _, _, _ = bp.lift_sherali_adams(ld, sol, prod)
    # (0,0) and (0,1) share coordinate 0; that mixture component is a
    # point-mass correlation, so the pair table has extreme diagonal mass
    table = lifted_ld.tables[((0, 0), (0, 1))]
    agree = table[_index((1, 1))] + table[_index((-1, -1))]
    assert agree >= 0.5 - 1e-12


def test_sa_lift_gram_identity(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ld = bp.sa_from_distribution(dist, 2, 2)
    sol = bp.vectors_from_distribution(dist)
    _, lifted_sol, _, _ = bp.lift_sherali_adams(ld, sol, prod)
    gram = sol.gram()
    lifted_gram = lifted_sol.gram()
    # itertools.product lists the tuples in flat order
    tuples = list(itertools.product(range(2), repeat=2))
    for i, ti in enumerate(tuples):
        for j, tj in enumerate(tuples):
            want = np.mean([gram[a, b] for a, b in zip(ti, tj)])
            assert math.isclose(lifted_gram[i, j], want, abs_tol=1e-12)


def test_sa_lift_random_distributions(k3):
    prod = bp.cartesian_power(k3, 2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        outcomes = list(itertools.product((-1, 1), repeat=3))
        weights = rng.dirichlet(np.ones(len(outcomes)))
        dist = {sigma: float(w) for sigma, w in zip(outcomes, weights)}
        ld = bp.sa_from_distribution(dist, 3, 2)
        sol = bp.vectors_from_distribution(dist)
        _, _, marginal_gap, vector_gap = bp.lift_sherali_adams(ld, sol, prod)
        assert marginal_gap <= 1e-9
        assert vector_gap <= 1e-9


def test_vectors_from_local_tables_roundtrip(k3):
    rng = np.random.default_rng(9)
    outcomes = list(itertools.product((-1, 1), repeat=3))
    weights = rng.dirichlet(np.ones(len(outcomes)))
    dist = {sigma: float(w) for sigma, w in zip(outcomes, weights)}
    ld = bp.sa_from_distribution(dist, 3, 2)
    sol = bp.vectors_from_local_tables(ld, 3)
    assert np.all(np.abs(np.sum(sol.vectors ** 2, axis=1) - 1.0) <= 1e-7)
    assert ld.check_vector_consistency(sol) <= 1e-7


def test_vectors_from_local_tables_rejects_infeasible():
    # pairwise correlations of -1 among three vertices have no Gram
    tables = {(v,): {(1,): 0.5, (-1,): 0.5} for v in range(3)}
    for pair in itertools.combinations(range(3), 2):
        tables[pair] = {(1, -1): 0.5, (-1, 1): 0.5}
    ld = _family(2, 3, tables)
    with pytest.raises(ValueError, match="no consistent vector family"):
        bp.vectors_from_local_tables(ld, 3)


def test_sa_rejects_non_unit_vectors(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ld = bp.sa_from_distribution(dist, 2, 2)
    _, sol = bp.basic_sdp_opt(k2)  # vectors have norm 1/sqrt(2)
    with pytest.raises(ValueError, match="unit norm"):
        bp.lift_sherali_adams(ld, sol, prod)


def parity_projection(subset, j: int):
    """Base vertices appearing an odd number of times among the j-th
    coordinates of a set of product vertices."""
    counts: dict = {}
    for tup in subset:
        counts[tup[j]] = counts.get(tup[j], 0) + 1
    return frozenset(v for v, c in counts.items() if c % 2 == 1)


def test_parity_projection_examples():
    assert parity_projection([(0, 1), (1, 1)], 1) == frozenset()
    assert parity_projection([(0, 1), (1, 1)], 0) == frozenset({0, 1})
    assert parity_projection([(0, 0)], 0) == frozenset({0})


def test_parity_projection_commutes_with_delta():
    vertices = list(itertools.product(range(2), repeat=2))
    for s1 in itertools.combinations(vertices, 2):
        for s2 in itertools.combinations(vertices, 2):
            delta = set(s1) ^ set(s2)
            for j in range(2):
                lhs = parity_projection(sorted(delta), j)
                rhs = (parity_projection(s1, j)
                       ^ parity_projection(s2, j))
                assert lhs == rhs


def test_lasserre_lift_delta_consistency(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ls = bp.lasserre_from_distribution(dist, 2, 2)
    assert ls.check_delta_consistency() <= 1e-12
    lifted = bp.lift_lasserre(ls, prod, 2)
    assert lifted.check_delta_consistency() <= 1e-9


def test_lasserre_lift_quadruple_enumeration(k2):
    # literal quadruple check on K_2, k=2, t=2
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ls = bp.lasserre_from_distribution(dist, 2, 2)
    vectors = _by_set(bp.lift_lasserre(ls, prod, 2))
    keys = list(vectors)
    inner = {
        (a, b): float(np.dot(vectors[a], vectors[b]))
        for a in keys for b in keys
    }
    quads = 0
    for s1 in keys:
        for s2 in keys:
            d1 = tuple(sorted(set(s1) ^ set(s2)))
            for t1 in keys:
                for t2 in keys:
                    if tuple(sorted(set(t1) ^ set(t2))) != d1:
                        continue
                    quads += 1
                    assert abs(inner[(s1, s2)] - inner[(t1, t2)]) <= 1e-9
    assert quads > len(keys) ** 2  # nontrivial coincidences were checked


def test_lasserre_singleton_objective_scaling(k2):
    prod = bp.cartesian_power(k2, 2)
    dense = prod.to_weighted_graph()
    dist = bp.uniform_cut_distribution(2, (0,))
    ls = bp.lasserre_from_distribution(dist, 2, 2)
    lifted = _by_set(bp.lift_lasserre(ls, prod, 2))
    base_vecs = np.stack([_by_set(ls)[(v,)] for v in range(2)])
    base_obj = bp.SdpSolution(vectors=base_vecs).objective(k2)
    lifted_vecs = np.stack([
        lifted[(tup,)] for tup in itertools.product(range(2), repeat=2)
    ])
    lifted_obj = bp.SdpSolution(vectors=lifted_vecs).objective(dense)
    assert math.isclose(lifted_obj, base_obj / 2.0, abs_tol=1e-9)


def test_lasserre_singleton_projection(k2):
    ls = bp.lasserre_from_distribution(bp.uniform_cut_distribution(2, (0,)), 2, 1)
    lifted = bp.lift_lasserre(ls, bp.cartesian_power(k2, 3), 1)
    assert parity_projection([(0, 1, 1)], 2) == frozenset({1})
    want = np.concatenate([(1.0 / math.sqrt(3)) * _by_set(ls)[(v,)] for v in (0, 1, 1)])
    assert _by_set(lifted)[((0, 1, 1),)].tolist() == want.tolist()


def test_lasserre_level_mismatch(k2):
    prod = bp.cartesian_power(k2, 2)
    dist = bp.uniform_cut_distribution(2, (0,))
    ls = bp.lasserre_from_distribution(dist, 2, 1)
    with pytest.raises(ValueError, match="level"):
        bp.lift_lasserre(ls, prod, 2)


def test_sdp_file_roundtrip(tmp_path, k2):
    from boxprod.sdp import (lasserre_to_dict, lasserre_from_dict, sa_to_dict,
                             sa_from_dict, sdp_to_dict, sdp_from_dict)

    _, sol = bp.basic_sdp_opt(k2)
    assert np.allclose(sdp_from_dict(sdp_to_dict(sol)).vectors, sol.vectors)
    dist = bp.uniform_cut_distribution(2, (0,))
    ld = bp.sa_from_distribution(dist, 2, 2)
    ld2 = sa_from_dict(sa_to_dict(ld), 2)
    assert ld2.level == 2
    assert ld2.tables[(0, 1)].tolist() == ld.tables[(0, 1)].tolist()
    # K2 at level 2, and 5 vertices at level 3, where the lex listing of the
    # rows is not the colex one: the same sets, and rows with the same bits
    for ls in (bp.lasserre_from_distribution(dist, 2, 2),
               _random_set_vectors(np.random.default_rng(9), 5, 3, 4)):
        n = len(ls.vertices)
        data = lasserre_to_dict(ls)
        assert [tuple(e["S"]) for e in data["sets"]] == list(_by_set(ls)) \
            == [s for m in range(ls.level + 1) for s in itertools.combinations(range(n), m)]
        ls2 = lasserre_from_dict(data, n)
        assert ls2.level == ls.level
        assert [(s, v.tobytes()) for s, v in _by_set(ls2).items()] \
            == [(s, v.tobytes()) for s, v in _by_set(ls).items()]


def test_sdp_malformed_file_rejected(tmp_path):
    from boxprod.sdp import sdp_from_dict

    with pytest.raises(ValueError, match="malformed"):
        sdp_from_dict({"d": 3, "vectors": [[1.0, 2.0]]})


@pytest.mark.parametrize("subsets", [
    [[0]],                      # (1,) and (0, 1) missing
    [[0], [1], [0, 2]],         # vertex 2 of a 2-vertex graph
    [[0], [1], [0, 0]],         # a repeated vertex is no subset
    [[0], [0], [0, 1]],         # (0,) twice, (1,) missing: the count is right
])
def test_incomplete_sa_family_rejected(subsets):
    from boxprod.sdp import sa_from_dict

    data = {"t": 2, "dists": [{"T": s, "probs": {"+" * len(s): 1.0}} for s in subsets]}
    with pytest.raises(ValueError, match="SA file must hold every subset"):
        sa_from_dict(data, 2)


def test_incomplete_lasserre_family_rejected():
    from boxprod.sdp import lasserre_from_dict

    sets = [{"S": s, "vec": [1.0, 0.0]} for s in ([], [0], [1])]
    lasserre_from_dict({"t": 1, "sets": sets}, 2)
    with pytest.raises(ValueError, match="Lasserre file must hold every subset"):
        lasserre_from_dict({"t": 2, "sets": sets}, 2)
    with pytest.raises(ValueError, match="Lasserre file must hold every subset"):
        lasserre_from_dict({"t": 1, "sets": sets[1:]}, 2)
    with pytest.raises(ValueError, match="level t >= 0, not -1"):
        lasserre_from_dict({"t": -1, "sets": []}, 2)
    # [0] twice and [1] missing: as many entries as the family has sets
    with pytest.raises(ValueError, match="Lasserre file must hold every subset"):
        lasserre_from_dict({"t": 1, "sets": sets[:2] + sets[1:2]}, 2)


@pytest.mark.parametrize("data, match", [
    ({"t": -1, "dists": []}, "level t >= 1, not -1"),
    # a key needs one sign per vertex of its set, each + or -
    ({"t": 2, "dists": [{"T": [0], "probs": {"+": 0.5, "-": 0.5}},
                        {"T": [1], "probs": {"+": 0.5, "-": 0.5}},
                        {"T": [0, 1], "probs": {"+": 1.0}}]}, "key '\\+'"),
    ({"t": 1, "dists": [{"T": [0], "probs": {"x": 0.5, "-": 0.5}},
                        {"T": [1], "probs": {"+": 0.5, "-": 0.5}}]}, "key 'x'"),
], ids=["level", "short-key", "non-sign-key"])
def test_malformed_sa_file_rejected(data, match):
    from boxprod.sdp import sa_from_dict

    with pytest.raises(ValueError, match=match):
        sa_from_dict(data, 2)


def test_non_finite_families_rejected():
    from boxprod.sdp import lasserre_from_dict

    ld = _family(1, 1, {(0,): {(1,): float("nan"), (-1,): 0.5}})
    with pytest.raises(ValueError, match=r"table for \(0,\) sums to nan"):
        ld.check_tables()
    for bad in (float("nan"), float("inf")):
        sets = [{"S": [], "vec": [1.0]}, {"S": [0], "vec": [bad]}]
        with pytest.raises(ValueError, match="finite vector"):
            lasserre_from_dict({"t": 1, "sets": sets}, 1)
    sets = [{"S": [], "vec": [1.0]}, {"S": [0], "vec": [1.0, 0.0]}]
    with pytest.raises(ValueError, match="common length"):
        lasserre_from_dict({"t": 1, "sets": sets}, 1)


def test_family_without_a_sub_set_refused():
    # tables on (0,) and (0, 1) only: the family is complete or not loaded,
    # so every table has the rows of its sub-sets
    from boxprod.sdp import sa_from_dict

    with pytest.raises(ValueError, match="SA file must hold every subset"):
        sa_from_dict(_file(2, {(0,): {(1,): 0.5, (-1,): 0.5},
                               (0, 1): dict.fromkeys(itertools.product((1, -1), repeat=2),
                                                     0.25)}), 2)


def test_sa_rows_read_file_keys_as_binary():
    # slot 0 is the most significant bit, and - is 1
    from boxprod.sdp import sa_from_dict, sa_to_dict

    probs = {"++": 0.125, "+-": 0.25, "-+": 0.625}
    data = {"t": 2, "dists": [{"T": [0], "probs": {"+": 0.375, "-": 0.625}},
                              {"T": [1], "probs": {"+": 0.75, "-": 0.25}},
                              {"T": [1, 0], "probs": probs}]}
    ld = sa_from_dict(data, 2)
    assert ld.tables[(0, 1)].tolist() == [0.125, 0.25, 0.625, 0.0]
    assert [len(rows) for rows in ld.rows] == [2, 1]
    # the missing pattern is 0.0 in the row and left out of the file
    assert sa_to_dict(ld)["dists"][1] == {"T": [0, 1], "probs": probs}


# -- verifiers against the pairwise loops they replaced ------------------------

def _index(assign):
    """Position of a {-1,+1} assignment in its row: - is 1, slot 0 the most
    significant bit."""
    return sum(1 << (len(assign) - 1 - i) for i, z in enumerate(assign) if z < 0)


def _assignment(index, size):
    return tuple(-1 if index >> (size - 1 - i) & 1 else 1 for i in range(size))


def _file(level, tables):
    """SA file of per-set tables of {assignment: probability}."""
    return {"t": level, "dists": [
        {"T": list(subset),
         "probs": {"".join("+" if z > 0 else "-" for z in a): p for a, p in table.items()}}
        for subset, table in tables.items()]}


def _family(level, n, tables):
    from boxprod.sdp import sa_from_dict

    return sa_from_dict(_file(level, tables), n)


def _plain_project(row, pos):
    """Marginal of ``row`` onto the slots ``pos``, summed in pattern order:
    the projection of the verifier, written out entry by entry."""
    size = len(row).bit_length() - 1
    out = [0.0] * (1 << len(pos))
    for index, p in enumerate(row):
        assign = _assignment(index, size)
        out[_index([assign[i] for i in pos])] += p
    return out


def _marginal_gap_loop(ld, nested=False):
    """Max disagreement of the marginals of tables meeting in a nonempty C;
    with ``nested``, only of the pairs where C is one of the two sets."""

    def marginal(subset, onto):
        return _plain_project(ld.tables[subset].tolist(), [subset.index(v) for v in onto])

    worst = 0.0
    for t1, t2 in itertools.combinations(sorted(ld.tables), 2):
        common = tuple(sorted(set(t1) & set(t2)))
        if not common or nested and len(common) < min(len(t1), len(t2)):
            continue
        for p1, p2 in zip(marginal(t1, common), marginal(t2, common)):
            worst = max(worst, abs(p1 - p2))
    return worst


def _by_set(ls):
    """Each row of a Lasserre family, keyed by the sorted tuple of its set's
    vertices, in row order."""
    sets = [tuple(ls.vertices[v] for v in s) for sizes in ls.sets for s in sizes.tolist()]
    return dict(zip(sets, ls.vectors))


def _delta_gap_loop(ls):
    groups = {}
    rows = _by_set(ls).items()
    for s1, v1 in rows:
        for s2, v2 in rows:
            delta = tuple(sorted(set(s1) ^ set(s2)))
            val = float(np.dot(v1, v2))
            groups.setdefault(delta, []).append(val)
    worst = 0.0
    for vals in groups.values():
        worst = max(worst, max(vals) - min(vals))
    return worst


def _random_tables(rng, n, level):
    """Independent random tables, so marginals of overlapping sets disagree."""
    tables = {}
    for size in range(1, level + 1):
        for subset in itertools.combinations(range(n), size):
            assigns = list(itertools.product((-1, 1), repeat=size))
            # drop one assignment now and then, so keys go missing
            if size > 1 and rng.random() < 0.3:
                assigns.pop(int(rng.integers(len(assigns))))
            probs = rng.dirichlet(np.ones(len(assigns)))
            tables[subset] = dict(zip(assigns, (float(p) for p in probs)))
    return _family(level, n, tables)


def _random_set_vectors(rng, n, level, length):
    rows = [rng.standard_normal(length)
            for size in range(level + 1)
            for subset in itertools.combinations(range(n), size)]
    return bp.SetVectorSolution(level, list(range(n)), np.array(rows))


@pytest.fixture(params=[None, 1], ids=["blocked", "one-row-blocks"])
def block_entries(request, monkeypatch):
    from boxprod import sdp

    if request.param is not None:
        monkeypatch.setattr(sdp, "VERIFY_BLOCK_ENTRIES", request.param)


def _sub_table_bounds(ld):
    """The gap g' of the sub-table check and the pairwise gap g of the
    loop it replaced: g' is the loop over nested pairs, to the bit, and a
    pair meeting in C is compared through C's table."""
    gap, pairwise = ld.check_marginal_consistency(), _marginal_gap_loop(ld)
    assert gap > 0.0
    assert gap == _marginal_gap_loop(ld, nested=True)
    assert gap <= pairwise <= 2.0 * gap
    return gap, pairwise


# block_entries reaches only the delta check; it stays on the two marginal
# tests below so that their ids are unchanged
@pytest.mark.parametrize("seed", range(4))
def test_marginal_gap_equals_pairwise_loop(block_entries, seed):
    rng = np.random.default_rng(seed)
    for n, level in ((3, 2), (4, 3), (5, 2)):
        _sub_table_bounds(_random_tables(rng, n, level))


@pytest.mark.parametrize("seed", range(2))
def test_lifted_marginal_gap_equals_pairwise_loop(block_entries, seed, k2, k3):
    rng = np.random.default_rng(10 + seed)
    for base, k, level in ((k2, 3, 3), (k3, 2, 2)):
        ld = _random_tables(rng, base.n, level)
        dist = bp.uniform_cut_distribution(base.n, (0,))
        lifted, _, gap, _ = bp.lift_sherali_adams(
            ld, bp.vectors_from_distribution(dist), bp.cartesian_power(base, k))
        assert isinstance(next(iter(lifted.tables))[0], tuple)
        assert gap == _sub_table_bounds(lifted)[0]


def test_marginal_gap_reads_each_table_against_its_sub_tables():
    # the pair tables push the marginal on (0,) by +d and -d: each is d
    # from the table of (0,), and 2d from the other pair table
    d = 1.0 / 16
    half = {(1,): 0.5, (-1,): 0.5}
    quarter = dict.fromkeys(itertools.product((1, -1), repeat=2), 0.25)
    ld = _family(2, 3, {
        (0,): half, (1,): half, (2,): half,
        (0, 1): {**quarter, (1, 1): 0.25 + d, (-1, 1): 0.25 - d},
        (0, 2): {**quarter, (1, 1): 0.25 - d, (-1, 1): 0.25 + d},
        (1, 2): quarter})
    ld.check_tables()
    assert _sub_table_bounds(ld) == (d, 2 * d)


@pytest.mark.parametrize("length", [1, 7, 33])
def test_delta_gap_equals_pairwise_loop(block_entries, length):
    rng = np.random.default_rng(length)
    for n, level in ((3, 1), (4, 2), (5, 3)):
        ls = _random_set_vectors(rng, n, level, length)
        gap = ls.check_delta_consistency()
        assert gap > 0.0
        assert gap == _delta_gap_loop(ls)


@pytest.mark.parametrize("length", [1, 7, 33])
def test_lifted_delta_gap_equals_pairwise_loop(block_entries, length, k2, k3):
    rng = np.random.default_rng(100 + length)
    for base, k, level in ((k2, 3, 2), (k3, 2, 2)):
        ls = _random_set_vectors(rng, base.n, level, length)
        lifted = bp.lift_lasserre(ls, bp.cartesian_power(base, k), level)
        gap = lifted.check_delta_consistency()
        assert isinstance(lifted.vertices[-1], tuple)
        assert gap > 0.0
        assert gap == _delta_gap_loop(lifted)


def test_delta_gap_near_consistent_vectors(block_entries):
    # moment vectors perturbed by 1e-12: gaps at the rounding scale
    rng = np.random.default_rng(7)
    dist = bp.uniform_cut_distribution(3, (0, 2))
    ls = bp.lasserre_from_distribution(dist, 3, 2)
    for row in ls.vectors:
        row += 1e-12 * rng.standard_normal(row.shape)
    lifted = bp.lift_lasserre(ls, bp.cartesian_power(bp.complete_graph(3), 2), 2)
    gap = lifted.check_delta_consistency()
    assert 0.0 < gap < 1e-9
    assert gap == _delta_gap_loop(lifted)


def test_delta_gap_over_two_membership_words(block_entries):
    # the sets of at most one of 70 vertices: a difference {a, b} with
    # a < 64 <= b spans both packed words. Norms within 1e-9 of 1 keep the
    # gap of the one class of many pairs (the empty difference) tiny, so
    # two classes merged across the word boundary would show
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((71, 5))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True) / (1.0 + 1e-9 * rng.random((71, 1)))
    ls = bp.SetVectorSolution(1, list(range(70)), vecs / norms)
    gap = ls.check_delta_consistency()
    assert 0.0 < gap < 1e-8
    assert gap == _delta_gap_loop(ls)


@pytest.mark.parametrize("entries", [1, 64, 256, None])
def test_delta_gram_stays_within_the_block_budget(monkeypatch, entries, k3):
    # the Gram of a block's distinct vectors holds at most rows x n entries;
    # one row against every set is the floor
    from boxprod import sdp

    if entries is not None:
        monkeypatch.setattr(sdp, "VERIFY_BLOCK_ENTRIES", entries)
    sizes = []
    vecdot = np.vecdot

    def counted(*args, **kwargs):
        out = vecdot(*args, **kwargs)
        sizes.append(out.size)
        return out

    rng = np.random.default_rng(5)
    shared = bp.lift_lasserre(_random_set_vectors(rng, 3, 2, 3), bp.cartesian_power(k3, 2), 2)
    distinct = _random_set_vectors(rng, 6, 3, 4)
    assert len({v.tobytes() for v in shared.vectors}) < len(shared.vectors)
    assert len({v.tobytes() for v in distinct.vectors}) == len(distinct.vectors)
    for ls in (shared, distinct):
        sizes.clear()
        monkeypatch.setattr(np, "vecdot", counted)
        gap = ls.check_delta_consistency()
        monkeypatch.setattr(np, "vecdot", vecdot)
        assert 0 < max(sizes) <= max(sdp.VERIFY_BLOCK_ENTRIES, len(ls.vectors))
        assert gap > 0.0
        assert gap == _delta_gap_loop(ls)


def _vector_gap_loop(ld, sol, vertex_index):
    gram = sol.gram()
    worst = 0.0
    for subset, row in ld.tables.items():
        if len(subset) != 2:
            continue
        x, y = subset
        # in the declared pattern order ++, +-, -+, --
        corr = sum(p * z[0] * z[1] for z, p in zip(
            (_assignment(i, 2) for i in range(4)), row.tolist()))
        worst = max(worst, abs(gram[vertex_index(x), vertex_index(y)] - corr))
    return worst


def _unit_vectors(rng, n, dim):
    vecs = rng.standard_normal((n, dim))
    return bp.SdpSolution(vectors=vecs / np.linalg.norm(vecs, axis=1, keepdims=True))


@pytest.mark.parametrize("seed", range(4))
def test_vector_gap_equals_pairwise_loop(seed):
    rng = np.random.default_rng(20 + seed)
    for n, level in ((3, 2), (4, 3), (5, 2)):
        ld = _random_tables(rng, n, level)
        sol = _unit_vectors(rng, n, 3)
        gap = ld.check_vector_consistency(sol)
        assert gap > 0.0
        assert gap == _vector_gap_loop(ld, sol, lambda v: v)
        # vectors factored from the moments of a global distribution: a gap
        # at the rounding scale
        outcomes = list(itertools.product((-1, 1), repeat=n))
        dist = dict(zip(outcomes, rng.dirichlet(np.ones(len(outcomes))).tolist()))
        ld = bp.sa_from_distribution(dist, n, level)
        sol = bp.vectors_from_local_tables(ld, n)
        assert ld.check_vector_consistency(sol) == _vector_gap_loop(ld, sol, lambda v: v)


@pytest.mark.parametrize("seed", range(2))
def test_lifted_vector_gap_equals_pairwise_loop(seed, k2, k3):
    # rows of product tuples are their flat indices
    rng = np.random.default_rng(30 + seed)
    for base, k, level in ((k2, 3, 3), (k3, 2, 2)):
        prod = bp.cartesian_power(base, k)
        ld = _random_tables(rng, base.n, level)
        lifted, lifted_sol, _, gap = bp.lift_sherali_adams(
            ld, _unit_vectors(rng, base.n, 3), prod)
        assert gap > 0.0
        assert gap == _vector_gap_loop(
            lifted, lifted_sol, lambda t: int(np.ravel_multi_index(t, prod.shape)))


# -- lifts against the per-set loops they replaced ------------------------------

def _product_family(n, k, low, level):
    vertices = list(itertools.product(range(n), repeat=k))
    return [s for size in range(low, level + 1)
            for s in itertools.combinations(vertices, size)]


def _sa_lift_loop(ld, n, k):
    """Lifted rows, adding p / k for each set, coordinate and base pattern."""
    tables = {}
    for subset in _product_family(n, k, 1, ld.level):
        row = [0.0] * (1 << len(subset))
        for j in range(k):
            collapsed = tuple(sorted({x[j] for x in subset}))
            for index, p in enumerate(ld.tables[collapsed].tolist()):
                # the base pattern fixes the sign of every slot of the set
                sign = dict(zip(collapsed, _assignment(index, len(collapsed))))
                row[_index([sign[x[j]] for x in subset])] += p / k
        tables[subset] = row
    return tables


def _lasserre_lift_loop(ls, n, k, level):
    """Lifted vectors with one parity set per set and coordinate."""
    scale = 1.0 / math.sqrt(k)
    base = _by_set(ls)
    return {subset: np.concatenate([
        scale * base[tuple(sorted(parity_projection(subset, j)))]
        for j in range(k)]) for subset in _product_family(n, k, 0, level)}


@pytest.mark.parametrize("seed", range(2))
def test_sa_lift_tables_equal_the_per_set_loop(seed, k2, k3):
    # the same sets, and rows with the same bits
    rng = np.random.default_rng(40 + seed)
    for base, k, level in ((k2, 3, 3), (k3, 2, 2)):
        ld = _random_tables(rng, base.n, level)
        lifted = bp.lift_sherali_adams(ld, _unit_vectors(rng, base.n, 3),
                                       bp.cartesian_power(base, k))[0]
        want = _sa_lift_loop(ld, base.n, k)
        assert sorted((s, [p.hex() for p in row.tolist()]) for s, row in lifted.tables.items()) \
            == sorted((s, [p.hex() for p in row]) for s, row in want.items())


@pytest.mark.parametrize("graph, k, base_level, level", [
    ("k2", 3, 3, 3), ("kq:3", 2, 2, 2), ("k2", 3, 3, 2), ("k2", 4, 2, 0),
    ("k2", 2, 4, 4), ("cycle:70", 1, 2, 2), ("cycle:65", 2, 1, 1)])
def test_lasserre_lift_vectors_equal_the_per_set_loop(graph, k, base_level, level):
    # a base of more than 63 vertices too, and a base family above the level
    base = bp.named_graph(graph)
    rng = np.random.default_rng(base.n + k)
    ls = _random_set_vectors(rng, base.n, base_level, 3)
    lifted = bp.lift_lasserre(ls, bp.cartesian_power(base, k), level)
    want = _lasserre_lift_loop(ls, base.n, k, level)
    assert [(s, v.tobytes()) for s, v in _by_set(lifted).items()] \
        == [(s, v.tobytes()) for s, v in want.items()]


# -- the set cap of both lifts --------------------------------------------------

def test_both_lifts_refuse_over_the_set_cap(k2):
    # K2^6 at level 3 has 43,744 product subsets of 1..3 vertices; K2^15 has
    # more vertices than the cap, and K2^(10^6) is refused without its n^k
    dist = bp.uniform_cut_distribution(2, (0,))
    sol = bp.vectors_from_distribution(dist)
    for k, level in ((6, 3), (15, 1), (10 ** 6, 1)):
        prod = bp.cartesian_power(k2, k)
        with pytest.raises(ValueError, match="too many product subsets"):
            bp.lift_sherali_adams(bp.sa_from_distribution(dist, 2, level), sol, prod)
        with pytest.raises(ValueError, match="too many product subsets"):
            bp.lift_lasserre(bp.lasserre_from_distribution(dist, 2, level), prod, level)
    # level 0 holds the empty set alone, whatever the product
    ls = bp.lasserre_from_distribution(dist, 2, 0)
    assert list(_by_set(bp.lift_lasserre(ls, bp.cartesian_power(k2, 15), 0))) == [()]


def _unbuilt(*args, **kwargs):
    raise AssertionError("built what no check reads")


def test_level_one_sa_lift_builds_no_gram_and_no_membership(monkeypatch, k2):
    # singletons share no marginal and form no pair table
    from boxprod import sdp

    monkeypatch.setattr(sdp.SdpSolution, "gram", _unbuilt)
    monkeypatch.setattr(np, "packbits", _unbuilt)
    dist = bp.uniform_cut_distribution(2, (0,))
    lifted, lifted_sol, marginal_gap, vector_gap = bp.lift_sherali_adams(
        bp.sa_from_distribution(dist, 2, 1), bp.vectors_from_distribution(dist),
        bp.cartesian_power(k2, 12))
    assert (marginal_gap, vector_gap) == (0.0, 0.0)
    assert len(lifted.tables) == lifted_sol.n == 2 ** 12


@pytest.mark.parametrize("k", [15, 40])
def test_level_zero_lasserre_lift_lists_no_vertex(monkeypatch, k2, k):
    from boxprod import sdp

    monkeypatch.setattr(sdp, "_product_vertices", _unbuilt)
    ls = bp.lasserre_from_distribution(bp.uniform_cut_distribution(2, (0,)), 2, 0)
    lifted = bp.lift_lasserre(ls, bp.cartesian_power(k2, k), 0)
    assert list(_by_set(lifted)) == [()]
    want = np.concatenate([(1.0 / math.sqrt(k)) * _by_set(ls)[()]] * k)
    assert _by_set(lifted)[()].tolist() == want.tolist()


@pytest.mark.parametrize("lift", ["sa", "lasserre"])
def test_set_cap_counts_the_whole_family(monkeypatch, k2, lift):
    from boxprod import sdp

    dist = bp.uniform_cut_distribution(2, (0,))
    prod = bp.cartesian_power(k2, 2)

    def family():
        if lift == "sa":
            ld = bp.sa_from_distribution(dist, 2, 2)
            return bp.lift_sherali_adams(ld, bp.vectors_from_distribution(dist), prod)[0].tables
        return bp.lift_lasserre(bp.lasserre_from_distribution(dist, 2, 2), prod, 2).vectors

    # 4 singletons and 6 pairs, and the empty set for Lasserre
    size = 10 if lift == "sa" else 11
    monkeypatch.setattr(sdp, "LIFT_MAX_SETS", size)
    assert len(family()) == size
    monkeypatch.setattr(sdp, "LIFT_MAX_SETS", size - 1)
    with pytest.raises(ValueError, match="too many product subsets"):
        family()


@pytest.mark.parametrize("generate, sets, size", [
    # subsets of 1..3 of the 5 vertices: 5 + 10 + 10, and the empty set for Lasserre
    (bp.sa_from_distribution, "tables", 25),
    (bp.lasserre_from_distribution, "vectors", 26)])
def test_generated_family_meets_the_set_cap(monkeypatch, generate, sets, size):
    from boxprod import sdp

    dist = bp.uniform_cut_distribution(5, (0, 1))
    monkeypatch.setattr(sdp, "LIFT_MAX_SETS", size)
    assert len(getattr(generate(dist, 5, 3), sets)) == size
    monkeypatch.setattr(sdp, "LIFT_MAX_SETS", size - 1)
    with pytest.raises(ValueError, match="^too many product subsets at this level$"):
        generate(dist, 5, 3)
