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

from .functions import FunctionTable, from_values
from .graphs import ProductGraph, WeightedGraph

EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenvalues (ascending, first exactly 0) and pi-orthonormal
    eigenfunctions (columns; first column all ones).  A graph holds its
    own as ``WeightedGraph.basis``."""

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
    return SpectralBasis(eigenvalues=evals, eigenfunctions=funcs)


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Dense coefficient tensor indexed by spectral multi-indices of the
    base graph's basis."""

    product: ProductGraph
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def multi_eigenvalues(self) -> np.ndarray:
        """Tensor of product eigenvalues aligned with the coefficients."""
        lam = self.product.base.basis.eigenvalues
        out = lam
        for _ in range(self.product.k - 1):
            out = np.add.outer(out, lam)
        return out / self.product.k


def _mode_apply(mat: np.ndarray, tensor: np.ndarray, k: int) -> np.ndarray:
    """``mat`` along each axis of ``tensor``, axis 0 first, by k GEMMs and
    no transposed copy: the first k - 1 move the leading axis last, the
    last keeps it first, so the view's memory holds axis k - 1 first, the
    layout the block sums of ``component_energies`` have always used."""
    n = len(mat)
    flat = tensor
    for _ in range(k - 1):
        flat = flat.reshape(n, -1).T @ mat.T
    return np.moveaxis((mat @ flat.reshape(n, -1)).reshape(tensor.shape), 0, -1)


def fourier_transform(f: FunctionTable) -> FourierCoefficients:
    """Coefficients of f against the tensor eigenbasis."""
    f.product.require_dense()
    base = f.product.base
    analysis = base.basis.eigenfunctions.T * base.pi[None, :]
    coeffs = _mode_apply(analysis, f.as_tensor(), f.k)
    return FourierCoefficients(product=f.product, coeffs=coeffs)


def inverse_transform(coeffs: FourierCoefficients) -> FunctionTable:
    tensor = _mode_apply(coeffs.product.base.basis.eigenfunctions,
                         coeffs.coeffs, coeffs.product.k)
    return from_values(coeffs.product, tensor.reshape(-1))


# -- Dirichlet forms ----------------------------------------------------------

def directional_form(f: FunctionTable, j: int) -> float:
    """Energy along coordinate j: expected restriction energy over the
    remaining coordinates."""
    base = f.product.base
    tens = f.product.fibres(f.values, j)
    rest = f.product.pi_rest()
    total = 0.0
    for u, v, w in zip(base.edge_u, base.edge_v, base.edge_w):
        d = tens[u] - tens[v]
        total += 0.5 * float(w) * float((d * d).ravel() @ rest)
    return total


def influence_profile(f: FunctionTable) -> np.ndarray:
    """All directional energies as an array of length k."""
    return np.array([directional_form(f, j) for j in range(f.k)])


def dirichlet_form(f: FunctionTable) -> float:
    """Total energy on the product: mean of the directional forms."""
    return float(np.mean(influence_profile(f)))


# -- coordinate decomposition --------------------------------------------------

def _block(j: int, k: int) -> tuple:
    """Index of component j in a coefficient tensor: the multi-indices
    whose slot j is nonzero and whose later slots are all zero."""
    return (slice(None),) * j + (slice(1, None),) + (0,) * (k - 1 - j)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of f into a constant part plus one component per coordinate.

    Component j collects the spectral multi-indices whose last nonzero
    slot is j; the parts are pairwise orthogonal and their squared norms
    sum to the variance of f.
    """

    constant: FunctionTable
    parts: tuple


def decompose(f: FunctionTable) -> Decomposition:
    """Orthogonal split of f into per-coordinate components.

    Component j keeps the multi-indices whose last nonzero slot is j; the
    constant part carries the mean.
    """
    coeffs = fourier_transform(f)
    parts = []
    for j in range(f.k):
        block = _block(j, f.k)
        cj = np.zeros(f.product.shape)
        cj[block] = coeffs.coeffs[block]
        parts.append(inverse_transform(FourierCoefficients(product=f.product, coeffs=cj)))
    # the constant eigenfunction is exactly 1, so its inverse transform
    # is the coefficient itself
    constant = from_values(f.product, np.full(f.product.num_vertices,
                                              coeffs.coeffs[(0,) * f.k]))
    return Decomposition(constant=constant, parts=tuple(parts))


def component_energies(coeffs: FourierCoefficients):
    """Energy and squared norm of each part of ``decompose``, read off the
    coefficients without building the parts.

    Part j is the block ``(:,)*j + (1:,) + (0,)*(k-1-j)`` of the tensor.
    Its energy sums c_a^2 times the product eigenvalue of a, and its
    squared norm sums c_a^2 (Parseval).  Returns two arrays of length k.
    """
    k = coeffs.product.k
    sq = coeffs.coeffs * coeffs.coeffs
    weighted = sq * coeffs.multi_eigenvalues()
    energies = np.empty(k)
    norms = np.empty(k)
    for j in range(k):
        block = _block(j, k)
        energies[j] = weighted[block].sum()
        norms[j] = sq[block].sum()
    return energies, norms

