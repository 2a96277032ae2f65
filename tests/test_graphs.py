"""Graph data model: measures, consistency, products, file format."""

import itertools
import json
import math

import numpy as np
import pytest

import boxprod as bp
from boxprod.graphs import write_json
from conftest import WEIGHTED4, naive_product_edges


def test_k2_measures(k2):
    assert k2.edge_w.tolist() == [1.0]
    assert k2.pi.tolist() == [0.5, 0.5]


def test_k3_measures(k3):
    assert np.allclose(k3.edge_w, 1 / 3)
    assert np.allclose(k3.pi, 1 / 3)


def test_p3_measures(p3):
    assert np.allclose(p3.edge_w, [0.5, 0.5])
    assert p3.pi.tolist() == [0.25, 0.5, 0.25]


def test_weights_renormalized():
    g = bp.build_graph(2, [(0, 1, 7.5)])
    assert g.edge_w.tolist() == [1.0]


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        bp.build_graph(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="weight"):
        bp.build_graph(2, [(0, 1, 0.0)])


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="non-finite weight"):
        bp.build_graph(3, [(0, 1, 1.0), (1, 2, weight)])


def test_rejects_overflowing_total_weight():
    with pytest.raises(ValueError, match="total edge weight overflows"):
        bp.build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        bp.build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_disconnected_with_components():
    with pytest.raises(ValueError, match=r"\[0, 1\], \[2, 3\]"):
        bp.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1, 1.0)], "[[0, 1]] plus 1 isolated vertex"),
    (6, [(4, 5, 1.0), (0, 4, 1.0), (1, 2, 1.0)], "[[0, 4, 5], [1, 2]] plus 1 isolated vertex"),
    (7, [(5, 3, 1.0)], "[[3, 5]] plus 5 isolated vertices"),
])
def test_isolated_vertices_are_counted(n, edges, message):
    with pytest.raises(ValueError) as info:
        bp.build_graph(n, edges)
    assert str(info.value) == f"graph is disconnected; components: {message}"


def test_laplacian_quadratic_form_matches_edge_sum(k3, c5):
    rng = np.random.default_rng(0)
    for g in (k3, c5):
        for _ in range(20):
            f = rng.standard_normal(g.n)
            assert math.isclose(f @ g.laplacian @ f, g.dirichlet(f),
                                abs_tol=1e-12)


def test_power_one_is_identical(p3):
    prod = bp.cartesian_power(p3, 1)
    dense = prod.to_weighted_graph()
    assert dense is p3
    eu, ev, ew = prod.dense_edges()
    assert (eu.tolist(), ev.tolist(), ew.tolist()) == (
        p3.edge_u.tolist(), p3.edge_v.tolist(), p3.edge_w.tolist())


def test_k2_square_adjacency(k2):
    prod = bp.cartesian_power(k2, 2)
    eu, ev, ew = prod.dense_edges()
    masses = dict(zip(zip(eu.tolist(), ev.tolist()), ew.tolist()))

    def flat(*pair):
        return tuple(int(np.ravel_multi_index(t, prod.shape)) for t in pair)

    # the four sides of the square, each of mass 1/4; no diagonal
    assert masses == {flat((0, 0), (0, 1)): 0.25, flat((0, 0), (1, 0)): 0.25,
                      flat((0, 1), (1, 1)): 0.25, flat((1, 0), (1, 1)): 0.25}


def test_k3_square_degrees(k3):
    prod = bp.cartesian_power(k3, 2)
    dense = prod.to_weighted_graph()
    assert dense.n == 9
    degrees = np.zeros(9, dtype=int)
    np.add.at(degrees, dense.edge_u, 1)
    np.add.at(degrees, dense.edge_v, 1)
    assert degrees.tolist() == [4] * 9


def test_product_masses_sum_to_one(k3, p3):
    for g, k in [(k3, 2), (p3, 2), (k3, 3)]:
        _, _, ew = bp.cartesian_power(g, k).dense_edges()
        assert math.isclose(ew.sum(), 1.0, abs_tol=1e-12)


def test_dense_edges_run_from_lower_to_higher_index(k3, tmp_path):
    # base edges have u < v and both ends of a product edge share the offset
    # of the other coordinates, so the materialized product needs no swap
    path = tmp_path / "w.json"
    path.write_text(json.dumps(WEIGHTED4))
    for g, k in ((k3, 3), (bp.named_graph("necklace:5"), 2), (bp.load_graph(path), 3)):
        eu, ev, _ = bp.cartesian_power(g, k).dense_edges()
        assert len(eu) == k * g.num_edges * g.n ** (k - 1)
        assert np.all(eu < ev)


def test_dense_edges_match_the_product_definition(k3, p3, c5):
    cases = [(k3, 2), (p3, 3), (c5, 2), (bp.named_graph("necklace:5"), 2),
             (bp.graph_from_dict(WEIGHTED4), 3)]
    for g, k in cases:
        eu, ev, ew = bp.cartesian_power(g, k).dense_edges()
        dense = dict(zip(zip(eu.tolist(), ev.tolist()), ew.tolist()))
        naive = naive_product_edges(g, k)
        assert len(dense) == len(eu)
        assert dense.keys() == naive.keys()
        for edge, mass in naive.items():
            assert math.isclose(dense[edge], mass, rel_tol=1e-14, abs_tol=0.0)


def test_fibres_match_explicit_tuples(k3, p3):
    # row u of fibre j holds the tuples whose coordinate j is u; entry r of
    # the flattened row is the r-th tuple of the other coordinates, whose
    # measure is pi_rest[r]; the fibres are a view of the table, not a copy
    rng = np.random.default_rng(0)
    for g, k in ((k3, 3), (p3, 2), (bp.graph_from_dict(WEIGHTED4), 3)):
        prod = bp.cartesian_power(g, k)
        values = rng.standard_normal(prod.num_vertices)
        rest = list(itertools.product(range(g.n), repeat=k - 1))
        column = {others: r for r, others in enumerate(rest)}
        want = [math.prod(float(g.pi[i]) for i in others) for others in rest]
        assert np.allclose(prod.pi_rest(), want, rtol=1e-15, atol=0.0)
        for j in range(k):
            fib = prod.fibres(values, j)
            assert np.shares_memory(fib, values)
            rows = [fib[u].reshape(-1) for u in range(g.n)]
            assert len(fib) == g.n and all(len(row) == len(rest) for row in rows)
            for a, x in enumerate(itertools.product(range(g.n), repeat=k)):
                assert rows[x[j]][column[x[:j] + x[j + 1:]]] == values[a]


def test_product_measure_consistency(p3):
    # 2 pi(v) = sum_u mu({u,v}) between the product's vertex and edge measures
    for g, k in [(p3, 2), (p3, 3)]:
        prod = bp.cartesian_power(g, k)
        eu, ev, ew = prod.dense_edges()
        row = np.zeros(prod.num_vertices)
        np.add.at(row, eu, ew)
        np.add.at(row, ev, ew)
        assert np.allclose(row, 2.0 * prod.pi_product(), rtol=0.0, atol=1e-15)


def test_product_pi_is_product(p3):
    for k in (2, 3):
        prod = bp.cartesian_power(p3, k)
        dense = prod.to_weighted_graph()
        expected = _kron_chain(p3.pi, k)
        assert np.allclose(dense.pi, expected, atol=1e-15)
        assert np.allclose(prod.pi_product(), expected, atol=1e-15)


def test_dense_cap_enforced(k2):
    prod = bp.cartesian_power(k2, 30, dense_cap=1 << 10)
    assert not prod.within_cap
    with pytest.raises(bp.DenseCapError):
        prod.pi_product()


def _kron_chain(pi, m):
    out = np.array([1.0])
    for _ in range(m):
        out = np.kron(out, pi)
    return out


def test_product_measures_cached_read_only(k2, k3, p3):
    for g, k in ((k2, 1), (k3, 3), (p3, 4)):
        prod = bp.cartesian_power(g, k)
        full = prod.pi_product()
        rest = prod.pi_rest()
        assert prod.pi_product() is full
        assert prod.pi_rest() is rest
        assert not full.flags.writeable and not rest.flags.writeable
        assert full.tolist() == _kron_chain(g.pi, k).tolist()
        assert rest.tolist() == _kron_chain(g.pi, k - 1).tolist()


@pytest.mark.parametrize("k", range(1, 9))
def test_product_measures_equal_the_kron_chain_bytes(k, k3, p3, c5):
    # each power is built from the one below it, in any order of requests
    for g in (p3, c5, k3, bp.graph_from_dict(WEIGHTED4)):
        prod = bp.cartesian_power(g, k)
        rest = prod.pi_rest()
        assert rest.tobytes() == _kron_chain(g.pi, k - 1).tobytes()
        assert prod.pi_product().tobytes() == _kron_chain(g.pi, k).tobytes()
        prod = bp.cartesian_power(g, k)
        assert prod.pi_product().tobytes() == _kron_chain(g.pi, k).tobytes()
        assert prod.pi_rest().tobytes() == rest.tobytes()


def test_cached_measures_keep_the_cap_checks(k2):
    # 2^11 vertices over a cap of 2^10: the rest measure fits, the full does not
    prod = bp.cartesian_power(k2, 11, dense_cap=1 << 10)
    rest = prod.pi_rest()
    assert prod.pi_rest() is rest
    for _ in range(2):
        with pytest.raises(bp.DenseCapError):
            prod.pi_product()
    wider = bp.cartesian_power(k2, 12, dense_cap=1 << 10)
    for _ in range(3):
        with pytest.raises(bp.DenseCapError):
            wider.pi_rest()


def test_graph_json_roundtrip(tmp_path, c5):
    path = tmp_path / "c5.json"
    write_json(bp.graph_to_dict(c5), path)
    data = json.loads(path.read_text())
    assert data["n"] == 5
    loaded = bp.load_graph(path)
    assert np.allclose(loaded.edge_w, c5.edge_w)
    assert np.allclose(loaded.pi, c5.pi)
