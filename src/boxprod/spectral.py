"""Spectral toolbox: generalized eigenbasis, tensor Fourier transform,
Dirichlet forms and the coordinate decomposition.

The base graph is diagonalized as the generalized problem
``L v = lambda diag(pi) v`` via the symmetrized matrix
``Pi^{-1/2} L Pi^{-1/2}``; eigenfunctions are pi-orthonormal with the
constant function first.  Tensor products of base eigenfunctions
diagonalize every Cartesian power, with product eigenvalue equal to the
mean of the coordinate eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Decomposition, FunctionTable, from_values
from .graphs import ProductGraph, WeightedGraph

EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenvalues (ascending, first exactly 0) and pi-orthonormal
    eigenfunctions (columns; first column all ones)."""

    graph: WeightedGraph
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenfunctions.setflags(write=False)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def eigendecompose(graph: WeightedGraph) -> SpectralBasis:
    """Solve the generalized eigenproblem of the normalized Laplacian.

    Deterministic output: eigenvalues ascending, each eigenfunction
    scaled so its first nonvanishing entry is positive, and the constant
    eigenpair snapped to (0, all-ones).
    """
    lap = graph.laplacian
    scale = 1.0 / np.sqrt(graph.pi)
    sym = lap * scale[:, None] * scale[None, :]
    sym = (sym + sym.T) / 2.0
    evals, vecs = np.linalg.eigh(sym)
    funcs = vecs * scale[:, None]
    # sign convention: first entry above threshold is positive
    for j in range(graph.n):
        col = funcs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-10 * np.abs(col).max())
        if len(nz) and col[nz[0]] < 0:
            funcs[:, j] = -col
    if abs(evals[0]) > EIG_RESIDUAL_TOL:
        raise RuntimeError(f"lowest eigenvalue {evals[0]} is not ~0")
    evals[0] = 0.0
    funcs[:, 0] = 1.0
    residual = lap @ funcs - (graph.pi[:, None] * funcs) * evals[None, :]
    worst = float(np.abs(residual).max())
    if worst > EIG_RESIDUAL_TOL:
        raise RuntimeError(f"eigensolver residual {worst} above tolerance")
    return SpectralBasis(graph=graph, eigenvalues=evals, eigenfunctions=funcs)


def product_eigenvalue(basis: SpectralBasis, idx) -> float:
    """Eigenvalue of a tensor eigenfunction: mean of coordinate values."""
    lam = basis.eigenvalues
    return float(np.mean([lam[i] for i in idx]))


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Dense coefficient tensor indexed by spectral multi-indices."""

    basis: SpectralBasis
    product: ProductGraph
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def energy(self) -> float:
        """Sum of squared coefficients (equals the squared 2-norm)."""
        return float(np.sum(self.coeffs * self.coeffs))

    def multi_eigenvalues(self) -> np.ndarray:
        """Tensor of product eigenvalues aligned with the coefficients."""
        lam = self.basis.eigenvalues
        out = np.zeros(self.product.shape)
        for ax in range(self.product.k):
            shape = [1] * self.product.k
            shape[ax] = len(lam)
            out = out + lam.reshape(shape)
        return out / self.product.k


def _mode_apply(mat: np.ndarray, tensor: np.ndarray, k: int) -> np.ndarray:
    for ax in range(k):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=(1, ax)), 0, ax)
    return tensor


def fourier_transform(f: FunctionTable, basis: SpectralBasis) -> FourierCoefficients:
    """Coefficients of f against the tensor eigenbasis."""
    f.product.require_dense()
    analysis = basis.eigenfunctions.T * basis.graph.pi[None, :]
    coeffs = _mode_apply(analysis, f.as_tensor(), f.k)
    return FourierCoefficients(basis=basis, product=f.product, coeffs=coeffs)


def inverse_transform(coeffs: FourierCoefficients) -> FunctionTable:
    tensor = _mode_apply(coeffs.basis.eigenfunctions, np.array(coeffs.coeffs), coeffs.product.k)
    return from_values(coeffs.product, tensor.reshape(-1))


# -- Dirichlet forms ----------------------------------------------------------

def directional_form(f: FunctionTable, j: int) -> float:
    """Energy along coordinate j: expected restriction energy over the
    remaining coordinates."""
    prod = f.product
    base = prod.base
    tens = np.moveaxis(f.as_tensor(), j, 0).reshape(base.n, -1)
    rest = prod.pi_rest()
    total = 0.0
    for u, v, w in zip(base.edge_u, base.edge_v, base.edge_w):
        d = tens[u] - tens[v]
        total += 0.5 * float(w) * float((d * d) @ rest)
    return total


def influence_profile(f: FunctionTable) -> np.ndarray:
    """All directional energies as an array of length k."""
    return np.array([directional_form(f, j) for j in range(f.k)])


def dirichlet_form(f: FunctionTable) -> float:
    """Total energy on the product: mean of the directional forms."""
    return float(np.mean(influence_profile(f)))


# -- coordinate decomposition --------------------------------------------------

def _component_masks(shape):
    """Boolean masks over multi-indices: slot j nonzero, later slots zero."""
    grids = np.indices(shape)
    masks = []
    trailing_zero = np.ones(shape, dtype=bool)
    for j in reversed(range(len(shape))):
        masks.append((grids[j] != 0) & trailing_zero)
        trailing_zero = trailing_zero & (grids[j] == 0)
    masks.reverse()
    return masks


def decompose(f: FunctionTable, basis: SpectralBasis) -> Decomposition:
    """Orthogonal split of f into per-coordinate components.

    Component j keeps the multi-indices whose last nonzero slot is j; the
    constant part carries the mean.
    """
    coeffs = fourier_transform(f, basis)
    masks = _component_masks(f.product.shape)
    parts = []
    for j in range(f.k):
        cj = np.where(masks[j], coeffs.coeffs, 0.0)
        part = inverse_transform(
            FourierCoefficients(basis=basis, product=f.product, coeffs=cj))
        parts.append(part)
    # the constant eigenfunction is exactly 1, so its inverse transform
    # is the coefficient itself
    constant = from_values(f.product, np.full(f.product.num_vertices,
                                              coeffs.coeffs[(0,) * f.k]))
    return Decomposition(constant=constant, parts=tuple(parts))
