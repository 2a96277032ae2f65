"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized paths:
conductance by itertools subset enumeration of the set formula,
coordinate variance by explicit conditional means, component
functions by dense centering/averaging instead of the spectral filter,
and product edges by enumerating tuple pairs.
"""

import itertools
import json
import math

import numpy as np
import pytest

import boxprod as bp
from boxprod.cli import run
from boxprod.graphs import write_json


# a weighted 4-vertex graph, edges given out of order and reversed
WEIGHTED4 = {"n": 4, "edges": [[3, 0, 1.3], [2, 1, 3.0], [1, 0, 1.0], [2, 3, 0.7]]}


@pytest.fixture(scope="session")
def k2():
    return bp.complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return bp.complete_graph(3)


@pytest.fixture(scope="session")
def p3():
    return bp.path_graph(3)


@pytest.fixture(scope="session")
def c5():
    return bp.cycle_graph(5)


def isoperimetry_report(graph, k, tmp_path):
    """The report ``analyze isoperimetry --k k`` writes for ``graph``,
    given as a graph file (seed 0)."""
    graph_file, report_file = tmp_path / "graph.json", tmp_path / "report.json"
    write_json(bp.graph_to_dict(graph), graph_file)
    code = run(["isoperimetry", "--graph", str(graph_file), "--k", str(k),
                "--out", str(report_file)])
    report = json.loads(report_file.read_text())
    assert code == (0 if report["passed"] else 2)
    return report


def checks_by_name(report):
    """The checks of ``report`` by name."""
    return {check["name"]: check for check in report["checks"]}


def naive_conductance(graph):
    """Set-formula conductance by explicit subset enumeration."""
    best = np.inf
    best_set = None
    vertices = list(range(graph.n))
    for size in range(1, graph.n):
        for subset in itertools.combinations(vertices, size):
            inside = set(subset)
            cut = sum(
                w for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w)
                if (u in inside) != (v in inside)
            )
            vol_s = sum(graph.pi[v] for v in inside)
            vol_c = sum(graph.pi[v] for v in vertices if v not in inside)
            ratio = 0.25 * cut / (vol_s * vol_c)
            if ratio < best - 1e-15:
                best = ratio
                best_set = subset
    return best, best_set


def naive_variance_along(f, j):
    """Coordinate variance via explicit conditional means per fiber."""
    n = f.product.base.n
    pi = f.product.base.pi
    tens = np.moveaxis(f.as_tensor(), j, 0)
    total = 0.0
    for rest_idx in np.ndindex(*tens.shape[1:]):
        fiber = tens[(slice(None),) + rest_idx]
        weight = np.prod([pi[i] for i in rest_idx]) if rest_idx else 1.0
        m1 = float(pi @ fiber)
        m2 = float(pi @ (fiber * fiber))
        total += weight * (m2 - m1 * m1)
    return total


def naive_mode_apply(mat, tensor, k):
    """``mat`` applied along each axis of ``tensor`` in turn: one
    ``tensordot`` and one ``moveaxis`` per axis."""
    for ax in range(k):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, ax)), 0, ax)
    return tensor


def naive_multi_eigenvalues(product):
    """Tensor of product eigenvalues by k broadcast additions of the base
    eigenvalues, one per axis, over a full-size tensor."""
    lam = product.base.basis.eigenvalues
    out = np.zeros(product.shape)
    for ax in range(product.k):
        shape = [1] * product.k
        shape[ax] = len(lam)
        out = out + lam.reshape(shape)
    return out / product.k


def naive_component(f, j, order=None):
    """Component j by dense centering + trailing-coordinate averaging."""
    k = f.k
    order = list(range(k)) if order is None else list(order)
    pos = order.index(j)
    pi = f.product.base.pi
    tens = f.as_tensor()
    centered = tens - np.tensordot(pi, tens, axes=(0, j)).reshape(
        tens.shape[:j] + (1,) + tens.shape[j + 1:])
    out = centered
    for later in order[pos + 1:]:
        mean = np.tensordot(pi, out, axes=(0, later))
        out = np.broadcast_to(
            np.expand_dims(mean, later), out.shape)
    return out.reshape(-1)


def product_pi(f):
    return f.product.pi_product()


def naive_product_edges(base, k):
    """Edges of the k-th power by its definition, as {(a, b): mass} over
    flat indices a < b (``itertools.product`` lists the tuples in flat
    order): x and y are joined when they form a base edge e in one
    coordinate and agree in all others, with mass mu(e)/k times the
    product of pi over the shared coordinates."""
    mu = {(int(u), int(v)): float(w)
          for u, v, w in zip(base.edge_u, base.edge_v, base.edge_w)}
    tuples = list(itertools.product(range(base.n), repeat=k))
    edges = {}
    for a, b in itertools.combinations(range(len(tuples)), 2):
        x, y = tuples[a], tuples[b]
        diff = [j for j in range(k) if x[j] != y[j]]
        if len(diff) != 1:
            continue
        j = diff[0]
        pair = (min(x[j], y[j]), max(x[j], y[j]))
        if pair in mu:
            shared = math.prod(float(base.pi[x[i]]) for i in range(k) if i != j)
            edges[(a, b)] = mu[pair] / k * shared
    return edges
