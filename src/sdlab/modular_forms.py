"""Jacobi theta series and its SL(2,Z) transformation checks.

The central object is the level-2 theta series

    theta(tau) = 1 + 2 * sum_{n >= 1} exp(i pi n^2 tau),   Im tau > 0,

truncated with a certified geometric tail bound (its error estimate adds
the rounding), together with the principal-branch power used by every
modular-weight formula and two numerical verifications:

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
from collections import namedtuple

from . import _lazy
from .errors import BranchError, DomainError, ResourceError

np = _lazy("numpy")
quad = _lazy("sdlab.geometry.quadrature")  # only the contour route needs it

# Hard cap on theta series length; reaching it means Im(tau) is far too
# small for the requested tolerance.
THETA_TERM_CAP = 200_000
CONTOUR_PANEL_CAP = 20_000  # panels of one contour line, 12 nodes each


class ThetaValue(namedtuple("ThetaValue",
                            "value tail_bound terms_used error_estimate")):
    __slots__ = ()


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
    """The theta series, its tail bound certified <= tol, and the tail plus
    the rounding as `error_estimate`; Re(tau) is reduced mod 2, exactly."""
    v = _as_tau(tau)
    if not tol > 0:
        raise DomainError("tol-positive", f"tol = {tol} must be > 0")
    t = v.imag
    v = complex(math.fmod(v.real, 2.0), t)
    # finite or inf, not an OverflowError, at a subnormal tol or Im(tau)
    start = math.sqrt(max(math.log(4.0) - math.log(tol), 1.0) / (math.pi * t))
    n = max(1, int(min(start, THETA_TERM_CAP + 1)))
    while n <= THETA_TERM_CAP and _tail_bound(t, n) > tol:
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
    # a term rounds to eps (1 + pi |tau| k^2) of itself, its phase being a
    # product; against mpmath errors reach 0.92 eps (1 + 2 spread): margin 4
    spread = math.fsum(abs(z) + abs(z) * math.pi * abs(v) * k * k
                       for k, z in enumerate(terms, 1))
    tail = _tail_bound(t, n)
    return ThetaValue(complex(1.0 + 2.0 * re, 2.0 * im), tail, n,
                      tail + 4.0 * math.ulp(1.0) * (1.0 + 2.0 * spread))


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


def cot_contour_theta(u: complex, eps: float,
                      tol: float = 1e-8) -> tuple[complex, complex]:
    """Contour integral for both pole shifts; returns (plus_shift, minus_shift).

    The line ends 1 past where the integrand's envelope, coth(pi eps) times
    exp(pi Im(u) (eps^2 - c^2) + 2 pi |Re(u)| eps |c|), falls to tol.  Each
    shift runs `quadrature.integrate_refined`, split once more where its two
    meshes differ by more than tol; a line that still differs is refused.
    """
    u = _as_tau(u)
    if not 0 < eps < 0.5:
        raise DomainError("eps-range",
                          f"eps = {eps} outside (0, 1/2); cot poles sit at integers")
    if not tol > 0:
        raise DomainError("tol-positive", f"tol = {tol} must be > 0")
    # the envelope is tol where pi t c^2 - 2 pi a |c| = log(peak / tol);
    # finite or inf, never an OverflowError, at a subnormal Im(u) or tol
    a, t = abs(u.real) * eps, u.imag
    log_ratio = max(0.0, math.pi * t * eps * eps - math.log(tol)
                    - math.log(math.tanh(math.pi * eps)))
    half_width = (a + math.sqrt(a * a + t * log_ratio / math.pi)) / t + 1.0
    panels = 32.0 * half_width              # on the finest line, width 1/16
    if not panels <= CONTOUR_PANEL_CAP:     # inf and NaN fail too
        raise ResourceError("quadrature-non-convergence",
                            f"{panels:.3g} contour panels for u = {u}")
    n = math.ceil(8.0 * half_width)         # panels of width 1/4
    edges = quad.uniform_edges(-n / 8.0, n / 8.0, n)

    results = []
    for shift in (1j * eps, -1j * eps):
        def columns(c, shift=shift):
            z = c + shift
            w = np.exp(1j * math.pi * u * z * z) * (np.cos(math.pi * z)
                                                     / np.sin(math.pi * z))
            return np.stack([w.imag, -w.real], axis=-1)     # w / i
        # an envelope peak past the float range refuses as a NaN residual
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = None
            for line in (edges, quad.split_edges(edges)):
                fine, err = quad.integrate_refined(columns, [line], 12,
                                                   coarse)
                if math.hypot(*err) <= tol:
                    break
                coarse = fine       # the split line's coarse mesh
            else:
                raise ResourceError("quadrature-non-convergence",
                                    f"contour residual {math.hypot(*err):.3e}"
                                    f" for u = {u}, eps = {eps}")
        results.append(complex(*fine))
    return results[0], results[1]
