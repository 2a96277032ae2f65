"""Reference values computed without the package under test.

Every formula here works from plain edge lists (u, v, w) and numpy, so a
fault in the package cannot hide in its own oracle.  Closed forms follow
the conventions of the package README: edge masses sum to one, the
vertex measure is pi(v) = (1/2) sum of the masses at v, and the cut
ratio of S is 0.25 * cut(S) / (pi(S) * pi(~S)).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ENUM_MAX_VERTICES = 12


# -- graphs as plain edge lists -------------------------------------------------

class Graph:
    """Edge list with masses normalized to one and the derived pi."""

    def __init__(self, n, edges):
        total = sum(w for _, _, w in edges)
        self.n = n
        self.edges = [(int(u), int(v), w / total) for u, v, w in edges]
        self.pi = np.zeros(n)
        for u, v, w in self.edges:
            self.pi[u] += w / 2.0
            self.pi[v] += w / 2.0

    def relabel(self, perm):
        """Same graph with vertex v renamed perm[v]."""
        return Graph(self.n, [(perm[u], perm[v], w) for u, v, w in self.edges])

    def to_dict(self):
        return {"n": self.n, "edges": [[u, v, w] for u, v, w in self.edges]}


def cycle(n):
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def complete(q):
    return Graph(q, [(u, v, 1.0) for u in range(q) for v in range(u + 1, q)])


def power(base: Graph, k: int) -> Graph:
    """Cartesian power: tuples differing in one coordinate by a base edge,
    with mass (1/k) * mu(base edge) * prod of pi over the other
    coordinates.  Vertices are numbered row-major, coordinate 0 slowest."""
    n = base.n
    edges = []
    for rest in itertools.product(range(n), repeat=k - 1):
        rest_mass = float(np.prod([base.pi[x] for x in rest])) if rest else 1.0
        for j in range(k):
            for u, v, w in base.edges:
                tu = rest[:j] + (u,) + rest[j:]
                tv = rest[:j] + (v,) + rest[j:]
                edges.append((_flat(tu, n), _flat(tv, n), w * rest_mass / k))
    return Graph(n ** k, edges)


def _flat(tup, n):
    idx = 0
    for x in tup:
        idx = idx * n + x
    return idx


def necklace(r: int) -> Graph:
    """Rotation classes of the r-cube minus its two monochromatic strings;
    a class pair weighs as many cube edges as join the two classes."""
    def canon(s):
        return min(((s << i) | (s >> (r - i))) & ((1 << r) - 1) for i in range(r))

    mono = (1 << r) - 1
    classes = sorted({canon(s) for s in range(1, mono)})
    index = {c: i for i, c in enumerate(classes)}
    counts = {}
    for s in range(1, mono):
        for b in range(r):
            t = s ^ (1 << b)
            if t in (0, mono) or t < s:
                continue
            a, c = index[canon(s)], index[canon(t)]
            key = (min(a, c), max(a, c))
            counts[key] = counts.get(key, 0) + 1
    return Graph(len(classes), [(u, v, float(m)) for (u, v), m in counts.items()])


# -- cuts --------------------------------------------------------------------------

def cut_ratio(g: Graph, subset) -> float:
    inside = set(subset)
    cut = sum(w for u, v, w in g.edges if (u in inside) != (v in inside))
    vol = sum(g.pi[v] for v in inside)
    return 0.25 * cut / (vol * (1.0 - vol))


def enumerate_conductance(g: Graph) -> float:
    """Minimum cut ratio by listing every proper subset."""
    if g.n > ENUM_MAX_VERTICES:
        raise ValueError("plain enumeration is kept to 12 vertices")
    return min(cut_ratio(g, s) for size in range(1, g.n)
               for s in itertools.combinations(range(g.n), size))


def sampled_min_ratio(g: Graph, rng, samples: int = 512) -> float:
    """Smallest cut ratio over random proper subsets (an upper bound on
    the conductance)."""
    bits = rng.integers(0, 2, size=(samples, g.n)).astype(bool)
    bits = bits[bits.any(axis=1) & ~bits.all(axis=1)]
    u = np.array([e[0] for e in g.edges])
    v = np.array([e[1] for e in g.edges])
    w = np.array([e[2] for e in g.edges])
    cut = (bits[:, u] != bits[:, v]) @ w
    vol = bits @ g.pi
    return float(np.min(0.25 * cut / (vol * (1.0 - vol))))


def lambda1(g: Graph) -> float:
    """Second smallest eigenvalue of L v = lambda diag(pi) v, with
    L = diag(pi) - (1/2) W."""
    lap = np.diag(g.pi)
    for u, v, w in g.edges:
        lap[u, v] -= w / 2.0
        lap[v, u] -= w / 2.0
    s = 1.0 / np.sqrt(g.pi)
    return float(np.linalg.eigvalsh(lap * s[:, None] * s[None, :])[1])


# -- closed forms ------------------------------------------------------------------

def phi_cycle(n):
    return 2.0 / n if n % 2 == 0 else 2.0 * n / (n * n - 1)


def phi_complete(n):
    return n / (2.0 * (n - 1))


def lambda1_complete(n):
    return n / (n - 1.0)


def lambda1_cycle(n):
    return 1.0 - math.cos(2.0 * math.pi / n)


def alpha_complete(q):
    """Log-Sobolev constant of K_q in the package's normalization."""
    if q == 2:
        return 2.0
    return 2.0 * (q - 2) / ((q - 1) * math.log(q - 1))


# -- Boolean functions on K_q^k -----------------------------------------------------

def influences(values: np.ndarray, q: int, k: int) -> np.ndarray:
    """Directional energies of a table on K_q^k (uniform pi):
    (1/2) sum over base edges of mu(edge) * mean squared difference."""
    tens = values.reshape((q,) * k)
    mass = 2.0 / (q * (q - 1))
    out = np.empty(k)
    for j in range(k):
        moved = np.moveaxis(tens, j, 0).reshape(q, -1)
        total = 0.0
        for u in range(q):
            for v in range(u + 1, q):
                d = moved[u] - moved[v]
                total += 0.5 * mass * float(np.mean(d * d))
        out[j] = total
    return out


def hypercube_influences(values: np.ndarray, k: int) -> np.ndarray:
    """On K_2^k the influence along j is 2 Pr[f(x) != f(x xor e_j)],
    counted over the table."""
    idx = np.arange(1 << k)
    out = np.empty(k)
    for j in range(k):
        flip = idx ^ (1 << (k - 1 - j))
        out[j] = 2.0 * np.count_nonzero(values != values[flip]) / len(values)
    return out


def coordinate_variances(values: np.ndarray, q: int, k: int) -> np.ndarray:
    """Expected variance along coordinate j under uniform pi."""
    tens = values.reshape((q,) * k)
    return np.array([float(np.mean(np.var(np.moveaxis(tens, j, 0), axis=0)))
                     for j in range(k)])


# -- SDP solutions ---------------------------------------------------------------

def objective(g: Graph, vectors: np.ndarray) -> float:
    return sum(w * float(np.sum((vectors[u] - vectors[v]) ** 2))
               for u, v, w in g.edges)


def spread(g: Graph, vectors: np.ndarray) -> float:
    second = float(g.pi @ np.sum(vectors ** 2, axis=1))
    mean = g.pi @ vectors
    return 2.0 * (second - float(mean @ mean))


def triangle_violations(dist: np.ndarray, tol: float) -> int:
    """Ordered triples (x, y, z) with d(x,z) - d(x,y) - d(y,z) > tol."""
    slack = dist[:, None, :] - dist[:, :, None] - dist[None, :, :]
    return int(np.count_nonzero(slack > tol))


def lifted_sq_distances(base_vectors: np.ndarray, k: int) -> np.ndarray:
    """Squared distances of the direct-sum lifting to the k-th power:
    the mean over coordinates of the base squared distances."""
    n = base_vectors.shape[0]
    diff = base_vectors[:, None, :] - base_vectors[None, :, :]
    base = np.sum(diff * diff, axis=2)
    coords = np.array(list(itertools.product(range(n), repeat=k)))
    out = np.zeros((n ** k, n ** k))
    for j in range(k):
        out += base[np.ix_(coords[:, j], coords[:, j])]
    return out / k
