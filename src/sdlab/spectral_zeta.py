"""Zeta-function values at the origin for form Laplacians.

Two independent routes are provided.  Flat tori get the exact spectrum
route: eigenvalues are squared lengths of rescaled dual-lattice vectors
and the analytic continuation of the resulting Epstein series is summed
with incomplete-gamma acceleration.  Arbitrary descriptors get the
geometric route: the zero value is a Betti number plus curvature
integrals (and boundary integrals on truncated spaces).  On flat tori
the two routes must agree, which is one of the package's cross-checks.
"""

from __future__ import annotations

import dataclasses
import math

from . import _lazy
from .assembly import harmonic_count
from .errors import DomainError, ResourceError

np = _lazy("numpy")

LATTICE_CONDITION_CAP = 1.0e4
_CUT = 40.0  # summation cutoff in pi*|v|^2; tail below exp(-40)


@dataclasses.dataclass(frozen=True)
class SpectralZetaResult:
    zeta_at_zero: float
    method: str  # epstein-continuation | heat-kernel-formula
    truncation_error: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _gamma_upper(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma for small |a|, including a <= 0."""
    from scipy import special as sc  # slow import; only the Epstein route needs it
    x = np.asarray(x, dtype=float)
    if a > 0:
        return sc.gammaincc(a, x) * sc.gamma(a)
    if a == 0.0:
        return sc.exp1(x)
    return (_gamma_upper(a + 1.0, x) - x ** a * np.exp(-x)) / a


def _shell_norms(basis: np.ndarray) -> np.ndarray:
    """Squared lengths |n.B|^2 over nonzero integer n with pi|v|^2 <= cut."""
    sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
    n_max = int(math.ceil(math.sqrt(_CUT / math.pi) / sigma_min))
    axis = np.arange(-n_max, n_max + 1)
    if (2 * n_max + 1) ** 4 > 2e8:
        raise ResourceError("lattice-enumeration",
                            f"enumeration box {2 * n_max + 1}^4 too large")
    g1, g2, g3 = np.meshgrid(axis, axis, axis, indexing="ij")
    base = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    out = []
    for n4 in axis:  # chunk along the last axis to bound memory
        n = np.concatenate([base, np.full((base.shape[0], 1), n4)], axis=1)
        v = n @ basis
        q = np.einsum("ij,ij->i", v, v)
        keep = (q > 0) & (math.pi * q <= _CUT)
        out.append(q[keep])
    return np.concatenate(out)


def _epstein(basis: np.ndarray):
    """The Epstein zeta of one lattice as a function of s: the analytic
    continuation of sum |v|^(-2s) over the nonzero lattice.

    Incomplete-gamma representation split at the self-dual scale; both
    the lattice and its dual are summed to a certified exponential tail.
    Valid for real s away from 0 and 2 (the explicit pole terms carry the
    continuation there).  Validation, inversion and both shell scans do
    not depend on s and run once."""
    from scipy import special as sc
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (4, 4):
        raise DomainError("lattice-shape", "need a 4x4 generator matrix")
    det = float(np.linalg.det(basis))
    if abs(det) < 1e-300:
        raise DomainError("lattice-singular", "generator matrix not invertible")
    covol = abs(det)
    dual = np.linalg.inv(basis).T
    q1 = math.pi * _shell_norms(basis)
    q2 = math.pi * _shell_norms(dual)

    def zeta(s: float) -> float:
        i1 = float(np.sum(_gamma_upper(s, q1) * q1 ** (-s)))
        i2 = float(np.sum(_gamma_upper(2.0 - s, q2) * q2 ** (s - 2.0)))
        bracket = i1 + i2 / covol + 1.0 / (covol * (s - 2.0)) - 1.0 / s
        return math.pi ** s / sc.gamma(s) * bracket
    return zeta


def epstein_zeta_at_zero(basis: np.ndarray, delta: float = 1e-4):
    """Continuation value at s = 0 via symmetric sampling at s = +-delta.

    Returns (value, error_estimate); the estimate compares the delta and
    2*delta averages of the even part.  The lattice is scanned once.
    """
    zeta = _epstein(basis)
    avg1 = 0.5 * (zeta(delta) + zeta(-delta))
    avg2 = 0.5 * (zeta(2 * delta) + zeta(-2 * delta))
    return avg1, abs(avg1 - avg2) / 3.0 + 64.0 * math.exp(-_CUT)


def torus_zeta_zero(lattice: np.ndarray, k: int) -> SpectralZetaResult:
    """zeta(0) of the k-form Laplacian on the flat torus R^4 / lattice.

    Eigenvalues are |2 pi w|^2 over the dual lattice with multiplicity
    C(4, k); the zero eigenvalue (harmonic forms) is excluded from the
    series, matching the kernel-dimension subtraction.
    """
    lattice = np.asarray(lattice, dtype=float)
    if lattice.shape != (4, 4):
        raise DomainError("lattice-shape", "need a 4x4 generator matrix")
    if not 0 <= int(k) <= 4:
        raise DomainError("form-degree", f"k = {k} outside 0..4")
    if abs(np.linalg.det(lattice)) < 1e-300:
        raise DomainError("lattice-singular", "generator matrix not invertible")
    cond = float(np.linalg.cond(lattice))
    if cond > LATTICE_CONDITION_CAP:
        raise DomainError("lattice-condition",
                          f"condition number {cond:.3e} beyond cap "
                          f"{LATTICE_CONDITION_CAP:.0e}")
    dual = np.linalg.inv(lattice).T
    mult = float(math.comb(4, int(k)))
    val, err = epstein_zeta_at_zero(2.0 * math.pi * dual)
    return SpectralZetaResult(zeta_at_zero=mult * val,
                              method="epstein-continuation",
                              truncation_error=mult * err)


_U4_WEIGHTS = {0: (2.0, -2.0, 5.0), 1: (-22.0, 172.0, -40.0)}


def heat_zeta_zero(topo, curv, k: int, boundary=None) -> SpectralZetaResult:
    """zeta_k(0) from the curvature-integral formula.

    Closed case: -b^k plus the quartic heat coefficient built from the
    full-contraction invariants.  With a boundary report, the Dirichlet
    Betti number replaces b^k and the quartic boundary integral (v40 for
    k = 0, v41 for k = 1) is added.  The bulk Laplacian-of-s term, a flux
    of the normal derivative of s through the boundary, is zero: boundary
    reports are made on Ricci-flat metrics only."""
    k = int(k)
    if k not in (0, 1):
        raise DomainError("form-degree", f"heat formula implemented for "
                                         f"k in {{0,1}}, got {k}")
    wR, wr, ws = _U4_WEIGHTS[k]
    bulk = (wR * curv.I_R_full + wr * curv.I_r + ws * curv.I_s2) / 360.0
    bulk /= 16.0 * math.pi ** 2
    err = abs(bulk) * curv.error_estimate
    if boundary is None:
        b_k = int(topo.b0 if k == 0 else topo.b1)
        value = -b_k + bulk
    else:
        b_k = harmonic_count(topo, k)
        v4 = boundary.v40_integral if k == 0 else boundary.v41_integral
        value = -b_k + bulk + v4 / (16.0 * math.pi ** 2)
    return SpectralZetaResult(zeta_at_zero=float(value),
                              method="heat-kernel-formula",
                              truncation_error=float(err))
