"""Dense real-valued functions on product graphs.

Tables hold one value per product vertex in row-major tuple order and
expose the measure-weighted primitives: mean, norms, variance and the
coordinate variance (the expected conditional variance along one
coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ProductGraph, read_json

BOOL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Function on the vertices of a product graph (dense, row-major)."""

    product: ProductGraph
    values: np.ndarray

    def __post_init__(self):
        self.product.require_dense()
        if self.values.shape != (self.product.num_vertices,):
            raise ValueError(
                f"expected {self.product.num_vertices} values, "
                f"got shape {self.values.shape}"
            )
        self.values.setflags(write=False)

    @property
    def k(self) -> int:
        return self.product.k

    @cached_property  # the values are read-only
    def boolean_pm1(self) -> bool:
        return bool(np.all(np.abs(np.abs(self.values) - 1.0) < BOOL_TOL))

    def as_tensor(self) -> np.ndarray:
        return self.values.reshape(self.product.shape)

    # -- measure-weighted primitives ----------------------------------------

    def _pi(self) -> np.ndarray:
        return self.product.pi_product()

    def mean(self) -> float:
        return float(np.sum(self._pi() * self.values))

    def norm1(self) -> float:
        return float(np.sum(self._pi() * np.abs(self.values)))

    def norm2_sq(self) -> float:
        return float(np.sum(self._pi() * self.values * self.values))

    def variance(self) -> float:
        m = self.mean()
        return self.norm2_sq() - m * m

    def variance_along(self, j: int) -> float:
        """Expected conditional variance over coordinate ``j``."""
        pi = self.product.base.pi
        tens = self.product.fibres(self.values, j).reshape(len(pi), -1)
        m1 = pi @ tens
        m2 = pi @ (tens * tens)
        return float((m2 - m1 * m1) @ self.product.pi_rest())


# -- constructors ------------------------------------------------------------

def from_values(product: ProductGraph, values) -> FunctionTable:
    return FunctionTable(product, np.array(values, dtype=np.float64))


def dictator(product: ProductGraph, coord: int = 0) -> FunctionTable:
    """Boolean function determined by a single coordinate: +1 iff it is 0."""
    product.require_dense()
    n, k = product.base.n, product.k
    col = np.where(np.arange(n) == 0, 1.0, -1.0)
    shape = [1] * k
    shape[coord] = n
    vals = np.broadcast_to(col.reshape(shape), product.shape)
    return from_values(product, vals.reshape(-1))


def parity(product: ProductGraph) -> FunctionTable:
    """Product of per-coordinate signs; requires a 2-vertex base."""
    if product.base.n != 2:
        raise ValueError("parity needs a 2-vertex base graph")
    product.require_dense()
    vals = np.array([1.0])
    for _ in range(product.k):
        vals = np.kron(vals, np.array([1.0, -1.0]))
    return from_values(product, vals)


def random_boolean(product: ProductGraph, rng) -> FunctionTable:
    product.require_dense()
    return from_values(product, rng.choice([-1.0, 1.0], size=product.num_vertices))


# -- JSON interchange --------------------------------------------------------

def function_to_dict(f: FunctionTable) -> dict:
    return {"k": f.k, "values": [float(v) for v in f.values]}


def function_from_dict(data: dict, product: ProductGraph) -> FunctionTable:
    if int(data["k"]) != product.k:
        raise ValueError(f"function has k={data['k']}, product has k={product.k}")
    return from_values(product, data["values"])


def load_function(path, product: ProductGraph) -> FunctionTable:
    return read_json(path, function_from_dict, product)
