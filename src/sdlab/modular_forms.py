"""Jacobi theta series and its SL(2,Z) transformation checks.

The central object is the level-2 theta series

    theta(tau) = 1 + 2 * sum_{n >= 1} exp(i pi n^2 tau),   Im tau > 0,

truncated with a certified geometric tail bound, together with the
principal-branch power used by every modular-weight formula and two
numerical verifications:

* ``s_transform_residual`` measures |theta(-1/tau) - (tau/i)^{1/2} theta(tau)|,
  which vanishes identically for the true function, so the residual is a
  direct measure of series truncation and rounding.
* ``cot_contour_theta`` evaluates the half-residue contour integral
  (1/i) * integral of exp(i pi u (c +- i eps)^2) * cot(pi (c +- i eps)) dc
  along the real line with the pole ladder shifted off the axis, for both
  shift signs.  One of the two reproduces theta(u); which one is a recorded
  fact, not an input.

All functions are pure and safe for concurrent use.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _lazy
from .errors import BranchError, DomainError, ResourceError

np = _lazy("numpy")
quad = _lazy("sdlab.geometry.quadrature")  # only the contour route needs it

# Hard cap on theta series length; reaching it means Im(tau) is far too
# small for the requested tolerance.
THETA_TERM_CAP = 200_000


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    tail_bound: float
    terms_used: int


def _as_tau(tau: complex) -> complex:
    """The coupling as a complex number; Im(tau) must be positive."""
    v = complex(tau)
    if not v.imag > 0:
        raise DomainError("tau-upper-half",
                          f"tau = {v} not in the upper half-plane")
    return v


def _tail_bound(t: float, n: int) -> float:
    # 2 e^{-pi t n^2} / (1 - e^{-pi t (2n+1)}): geometric majorant of the
    # Gaussian tail starting at term n+1.
    denom = 1.0 - math.exp(-math.pi * t * (2 * n + 1))
    if denom <= 0.0:
        return math.inf
    return 2.0 * math.exp(-math.pi * t * n * n) / denom


def theta(tau: complex, tol: float = 1e-12) -> ThetaValue:
    """Evaluate the theta series with tail bound certified <= tol."""
    v = _as_tau(tau)
    if not tol > 0:
        raise DomainError("tol-positive", f"tol = {tol} must be > 0")
    t = v.imag
    n = max(1, int(math.sqrt(max(math.log(4.0 / tol), 1.0) / (math.pi * t))))
    while _tail_bound(t, n) > tol:
        n += 1
        if n > THETA_TERM_CAP:
            raise ResourceError(
                "theta-term-cap",
                f"series needs more than {THETA_TERM_CAP} terms for "
                f"Im(tau) = {t:.3e}, tol = {tol:.3e}")
    # Compensated summation of real and imaginary parts keeps the result
    # deterministic and accurate below 1e-13 tolerances.
    terms = [cmath.exp(1j * math.pi * v * k * k) for k in range(1, n + 1)]
    re = math.fsum(term.real for term in terms)
    im = math.fsum(term.imag for term in terms)
    return ThetaValue(value=complex(1.0 + 2.0 * re, 2.0 * im),
                      tail_bound=_tail_bound(t, n), terms_used=n)


def principal_power(z: complex, w: complex) -> complex:
    """exp(w Log z) with the principal logarithm, arg in (-pi, pi).

    The negative real axis (and zero) is excluded; callers that need a
    cut-adjacent limit must perturb explicitly and document the choice.
    """
    z = complex(z)
    if z == 0:
        raise BranchError("power-of-zero", "principal power undefined at z = 0")
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchError("principal-branch-cut",
                          f"z = {z} lies on the negative real axis")
    return cmath.exp(complex(w) * cmath.log(z))


def s_transform_residual(tau: complex) -> float:
    """|theta(-1/tau) - (tau/i)^{1/2} theta(tau)| at series tolerance 1e-13."""
    v = _as_tau(tau)
    lhs = theta(-1.0 / v, tol=1e-13).value
    rhs = principal_power(v / 1j, 0.5) * theta(v, tol=1e-13).value
    return abs(lhs - rhs)


def _cot_line_integral(u: complex, shift: complex, half_width: float,
                       panel_width: float, order: int) -> complex:
    """Gauss-Legendre composite integral of exp(i pi u (c+shift)^2) cot(pi (c+shift)) / i."""
    n_panels = max(1, int(math.ceil(2.0 * half_width / panel_width)))
    nodes, weights = quad.panel_rule(
        np.linspace(-half_width, half_width, n_panels + 1), order)
    z = nodes + shift
    w_ = np.exp(1j * math.pi * u * z * z) * (np.cos(math.pi * z) / np.sin(math.pi * z))
    return complex(np.sum(weights * w_) / 1j)


def cot_contour_theta(u: complex, eps: float,
                      tol: float = 1e-8) -> tuple[complex, complex]:
    """Contour integral for both pole shifts; returns (plus_shift, minus_shift).

    The truncation half-width follows the Gaussian decay of the integrand;
    the quadrature is refined once and must stabilize within tol.
    """
    u = _as_tau(u)
    if not 0 < eps < 0.5:
        raise DomainError("eps-range",
                          f"eps = {eps} outside (0, 1/2); cot poles sit at integers")
    if not tol > 0:
        raise DomainError("tol-positive", f"tol = {tol} must be > 0")
    half_width = math.ceil(math.sqrt((math.log(1.0 / tol) + math.log(4.0))
                                     / (math.pi * u.imag))) + 2
    # widen for the phase drift introduced by Re(u) and the shift itself
    half_width += 2.0 * abs(u.real) * eps + eps

    results = []
    for sign in (+1.0, -1.0):
        shift = 1j * sign * eps
        coarse = _cot_line_integral(u, shift, half_width, 0.25, 12)
        fine = _cot_line_integral(u, shift, half_width, 0.125, 12)
        if abs(fine - coarse) > tol:
            finer = _cot_line_integral(u, shift, half_width, 0.0625, 16)
            if abs(finer - fine) > tol:
                raise ResourceError(
                    "quadrature-non-convergence",
                    f"contour quadrature stalled at residual {abs(finer - fine):.3e} "
                    f"for u = {u}, eps = {eps}")
            fine = finer
        results.append(fine)
    return results[0], results[1]
