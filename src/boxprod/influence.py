"""Influence analysis on product graphs: the entropy-based lemma chain,
max-influence reports, and constructive junta extraction.

The central inequality lower-bounds the product energy of a function h
by ``(alpha/2k) * (sqrt(t) log(t) |h|_1 + log(t) |h|_2^2 - |h|_2^2 log |h|_2^2)``
for any ``0 < t <= 1/e^2``, where ``alpha`` is a valid log-Sobolev
constant of the base graph.  Summed over the orthogonal coordinate
components of a Boolean function it yields both the max-influence lower
bound and the junta extraction threshold.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .functions import FunctionTable, from_values
from .graphs import CHECK_SLACK, Record
from .spectral import (FourierCoefficients, component_energies, dirichlet_form,
                       fourier_transform, influence_profile, inverse_transform)

T_MAX = math.exp(-2.0)


class ConstantFunctionError(ValueError):
    """The influence report of a constant function is undefined."""


def _entropy_rhs(alpha, k, t, l1, l2_sq):
    xlogx = l2_sq * math.log(l2_sq) if l2_sq > 0 else 0.0
    return (alpha / (2.0 * k)) * (
        math.sqrt(t) * math.log(t) * l1 + math.log(t) * l2_sq - xlogx
    )


def _require_t(t: float):
    if not (0.0 < t <= T_MAX + 1e-15):
        raise ValueError(f"t must lie in (0, 1/e^2], got {t}")


class LemmaCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def main_lemma_check(h: FunctionTable, t: float, alpha: float) -> LemmaCheck:
    """Evaluate both sides of the entropy lemma for an arbitrary table."""
    _require_t(t)
    lhs = dirichlet_form(h)
    rhs = _entropy_rhs(alpha, h.k, t, h.norm1(), h.norm2_sq())
    return LemmaCheck(lhs=lhs, rhs=rhs, ok=bool(lhs >= rhs - CHECK_SLACK))


class CorollaryRow(NamedTuple):
    j: int
    lhs: float
    rhs: float
    ok: bool


def corollary_sweep(f: FunctionTable, ts: tuple, alpha: float,
                    energy: float | None = None) -> list:
    """``corollary_check`` at each t of ``ts``, one list of rows per t.
    Only the right-hand sides depend on t; the rest is computed once.

    The components' energies and squared norms come from one Fourier
    transform.  They must add up to ``energy``, the edge-sum energy of f,
    which is computed when not given."""
    for t in ts:
        _require_t(t)
    if not f.boolean_pm1:
        raise ValueError("corollary check requires a {-1,+1}-valued function")
    energies, norms = component_energies(fourier_transform(f))
    if energy is None:
        energy = dirichlet_form(f)
    # the components are orthogonal, so their energies add up to f's
    total = float(energies.sum())
    if abs(total - energy) > CHECK_SLACK:
        raise AssertionError(f"component energies sum to {total}, not to the "
                             f"energy {energy} of f")
    terms = [(float(energies[j]), f.variance_along(j), float(norms[j]))
             for j in range(f.k)]
    sweep = []
    for t in ts:
        rows = []
        for j, (lhs, var_j, l2_sq) in enumerate(terms):
            rhs = _entropy_rhs(alpha, f.k, t, var_j, l2_sq)
            rows.append(CorollaryRow(j=j, lhs=lhs, rhs=rhs,
                                     ok=bool(lhs >= rhs - CHECK_SLACK)))
        sweep.append(rows)
    return sweep


def corollary_check(f: FunctionTable, t: float, alpha: float) -> list:
    """Per-coordinate lemma applied to the components of a Boolean f,
    with the 1-norm replaced by the coordinate variance."""
    return corollary_sweep(f, (t,), alpha)[0]


# -- max influence report --------------------------------------------------------

class InfluenceReport(Record):
    """Directional energies of a Boolean cut with the scale the
    max-influence theorem predicts (no hidden constant is asserted)."""

    def __init__(self, influences: np.ndarray, max_influence: float,
                 mean_influence: float, variance: float, bound_expr: float, ratio: float):
        influences.setflags(write=False)
        vars(self).update(influences=influences, max_influence=max_influence,
                          mean_influence=mean_influence, variance=variance,
                          bound_expr=bound_expr, ratio=ratio)


def require_kkl_input(f: FunctionTable):
    """The refusals of ``kkl_report`` that need no alpha."""
    if not f.boolean_pm1:
        raise ValueError("influence report requires a {-1,+1}-valued function")
    if f.k < 2:
        raise ValueError("influence report needs k >= 2")


def kkl_report(f: FunctionTable, alpha: float) -> InfluenceReport:
    """Influence profile of f plus the ratio of its max influence to
    ``alpha * var(f) * log(k) / k``."""
    require_kkl_input(f)
    var = f.variance()
    if var <= 0.0:
        raise ConstantFunctionError("constant function; influence report undefined")
    infl = influence_profile(f)
    max_inf = float(infl.max())
    mean_inf = float(infl.mean())
    bound = alpha * var * math.log(f.k) / f.k
    return InfluenceReport(
        influences=infl,
        max_influence=max_inf,
        mean_influence=mean_inf,
        variance=var,
        bound_expr=bound,
        ratio=max_inf / bound,
    )


# -- junta extraction --------------------------------------------------------------

class JuntaResult(Record):
    """Output of the junta extraction: coordinates kept, the rounded
    Boolean junta, its squared distance from the input, the variance
    threshold used, and the log of the guaranteed bound on the junta size
    (50 k I / (eps alpha))."""

    def __init__(self, junta: tuple, g_tilde: FunctionTable, g_real: FunctionTable,
                 distance: float, threshold: float, size_bound_log: float,
                 dirichlet: float, coordinate_variances: np.ndarray):
        coordinate_variances.setflags(write=False)
        vars(self).update(junta=junta, g_tilde=g_tilde, g_real=g_real, distance=distance,
                          threshold=threshold, size_bound_log=size_bound_log,
                          dirichlet=dirichlet, coordinate_variances=coordinate_variances)


def _truncate_to_junta(f, junta):
    """Project onto multi-indices supported inside the junta coordinates."""
    coeffs = fourier_transform(f)
    keep = np.ones(f.product.shape, dtype=bool)
    grids = np.indices(f.product.shape)
    for j in range(f.k):
        if j not in junta:
            keep &= grids[j] == 0
    kept = np.where(keep, coeffs.coeffs, 0.0)
    return inverse_transform(FourierCoefficients(product=f.product, coeffs=kept))


def require_junta_input(f: FunctionTable, epsilon: float):
    """The refusals of ``friedgut_extract`` that need no alpha or phi."""
    if not f.boolean_pm1:
        raise ValueError("junta extraction requires a {-1,+1}-valued function")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")


def friedgut_extract(f: FunctionTable, epsilon: float, alpha: float,
                     phi: float) -> JuntaResult:
    """Extract a Boolean junta within squared distance epsilon of f.

    Coordinates are kept when their variance clears the threshold
    ``V = exp(F(eps/4))`` with
    ``F(e) = 2(1+1/e) log(2 phi e / (e k I)) - 2 k I / (alpha e)``;
    the junta is the sign of the spectral truncation of f to those
    coordinates (sign(0) = +1).
    """
    require_junta_input(f, epsilon)
    k = f.k
    var_j = np.array([f.variance_along(j) for j in range(k)])
    energy = dirichlet_form(f)
    variance = f.variance()

    if variance <= 1e-15:
        constant = 1.0 if f.mean() >= 0 else -1.0
        g_tilde = from_values(f.product, np.full(f.product.num_vertices, constant))
        return JuntaResult(
            junta=(), g_tilde=g_tilde, g_real=g_tilde, distance=0.0,
            threshold=math.inf, size_bound_log=0.0,
            dirichlet=energy, coordinate_variances=var_j,
        )
    if energy <= 0.0:
        raise AssertionError("non-constant function with zero energy on a "
                             "connected graph")

    eps_round = epsilon / 4.0
    f_of_eps = (2.0 * (1.0 + 1.0 / math.e)
                * math.log(2.0 * phi * eps_round / (math.e * k * energy))
                - 2.0 * k * energy / (alpha * eps_round))
    threshold = math.exp(f_of_eps)
    junta = tuple(sorted(int(j) for j in np.flatnonzero(var_j >= threshold)))

    g_real = _truncate_to_junta(f, set(junta))
    g_vals = np.where(g_real.values >= 0.0, 1.0, -1.0)
    g_tilde = from_values(f.product, g_vals)

    diff = f.values - g_tilde.values
    distance = float(np.sum(f.product.pi_product() * diff * diff))
    real_diff = f.values - g_real.values
    real_distance = float(np.sum(f.product.pi_product() * real_diff * real_diff))

    size_bound_log = 50.0 * k * energy / (epsilon * alpha)

    if distance > 4.0 * real_distance + CHECK_SLACK:
        raise AssertionError("sign rounding lost more than a factor of 4")

    # the two intermediate bounds behind the threshold choice.  Sorted by
    # decreasing variance the junta coordinates come first, so the
    # components off the junta sum to f - g_real; they are orthogonal, so
    # their energies add up to its energy
    outside = dirichlet_form(from_values(f.product, real_diff))
    if outside > energy + CHECK_SLACK:
        raise AssertionError("off-junta component energy exceeds total energy")
    if float(var_j.sum()) > (k / (2.0 * phi)) * energy + CHECK_SLACK:
        raise AssertionError("coordinate variances exceed the energy bound")

    return JuntaResult(
        junta=junta, g_tilde=g_tilde, g_real=g_real, distance=distance,
        threshold=threshold, size_bound_log=size_bound_log,
        dirichlet=energy, coordinate_variances=var_j,
    )


def is_junta_on(f: FunctionTable, coords) -> bool:
    """True when the table is constant along every coordinate outside
    ``coords``: with ``coords`` moved first, each row of the flattened
    table equals its first entry."""
    coords = sorted(set(coords))
    flat = np.moveaxis(f.as_tensor(), coords, range(len(coords))).reshape(
        f.product.base.n ** len(coords), -1)
    return bool(np.all(flat == flat[:, :1]))
