"""Zeta-function values at the origin for form Laplacians.

Two independent routes are provided.  Flat tori get the exact spectrum
route: eigenvalues are squared lengths of rescaled dual-lattice vectors
and the analytic continuation of the resulting Epstein series is summed
with incomplete-gamma acceleration, on numpy alone, over shells scanned in
a per-axis box of an LLL-reduced basis (at most 2e8 points).  Arbitrary
descriptors get the geometric route: the zero value is a Betti number plus
curvature integrals (and boundary integrals on truncated spaces).  On flat
tori the two routes must agree, which is one of the package's cross-checks.
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
_BAND_EDGES = (1.5, 3.0, 8.0, 20.0)
_BAND_DEPTHS = (66, 38, 17, 9)  # continued-fraction depth from each edge on
# Taylor coefficients of (1/Gamma(1 + a) - 1)/a at a = 0, enough at |a| < 0.05
_RGAMMA = (0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
           0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
           0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
           0.0001280502823881162)


@dataclasses.dataclass(frozen=True)
class SpectralZetaResult:
    zeta_at_zero: float
    method: str  # epstein-continuation | heat-kernel-formula
    truncation_error: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _gamma_upper(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x), E1 at a = 0, for a in [-1, 3] and
    x in (0, 40], to about 1e-14 relative.  Below x = 1.5 `_gamma_series`;
    above it Legendre's continued fraction, summed from its tail with a
    fixed depth per band of x, so that no loop is masked.  Both run at
    b = a - m in [-1, 1], and b Gamma(b, x) + x^b e^-x = Gamma(b + 1, x)
    steps up m times through positive terms."""
    x = np.asarray(x, dtype=float)
    m = max(0, math.ceil(a) - 1)
    b = a - m
    w = np.exp(b * np.log(x) - x)  # x^b e^-x
    band = np.searchsorted(_BAND_EDGES, x, side="right")
    out = np.empty_like(x)
    out[band == 0] = _gamma_series(b, x[band == 0])
    for i, depth in enumerate(_BAND_DEPTHS, start=1):
        sel = band == i
        xs = x[sel]
        t, den = np.zeros_like(xs), np.empty_like(xs)
        for j in range(depth, 0, -1):  # no denominator vanishes at b <= 1
            np.add(xs, 2 * j + 1 - b, out=den)
            den += t
            np.divide(-j * (j - b), den, out=t)
        out[sel] = w[sel] / (t + xs + (1.0 - b))
    for j in range(m):
        out = (b + j) * out + w
        w *= x
    return out


def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for a in [-1, 1] and x < 1.5 (Gautschi, ACM TOMS 5, 1979):
    (Gamma(1 + a) - x^a)/a - x^a sum_n>=1 (-x)^n / (n! (a + n)).  The head
    goes through expm1, with (Gamma(1 + a) - 1)/a from `_RGAMMA` at small
    |a|, so nothing cancels as a -> 0."""
    if a < -0.5:  # the n = 1 term has a pole at a = -1: step down from a + 1
        return (_gamma_series(a + 1.0, x) - np.exp(a * np.log(x) - x)) / a
    lx = np.log(x)
    g = sum(c * a ** k for k, c in enumerate(_RGAMMA))
    head = (-g / (1.0 + a * g) if abs(a) < 0.05
            else math.expm1(math.lgamma(1.0 + a)) / a)
    head = head - (lx if a == 0.0 else np.expm1(a * lx) / a)
    term, acc = np.ones_like(x), np.zeros_like(x)
    for n in range(1, 21):
        term *= -x / n
        acc += term / (a + n)
    return head - np.exp(a * lx) * acc


def _lll(basis: np.ndarray) -> np.ndarray:
    """LLL-reduced rows (delta = 3/4; Math. Ann. 261, 1982) spanning the
    lattice of the rows of `basis`; |b*_k| = |r_kk| and mu_kj = r_jk / r_jj."""
    b = np.array(basis, dtype=float)
    k = 1
    while k < len(b):
        r = np.linalg.qr(b.T, mode="r")
        for j in reversed(range(k)):  # size-reduce row k
            q = round(r[j, k] / r[j, j])
            b[k] -= q * b[j]
            r[:, k] -= q * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= 0.75 * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b


def _shell_norms(basis: np.ndarray) -> np.ndarray:
    """Squared lengths |n.B|^2 over nonzero integer n with pi|v|^2 <= cut.

    Scans the box |n_i| <= R |B^-1 e_i|, R = sqrt(cut/pi), of the
    LLL-reduced basis B, one slice n >= 0 of its longest axis at a time.
    A box of more than 2e8 points is a `lattice-enumeration` ResourceError."""
    reduced = _lll(basis)
    reach = (math.sqrt(_CUT / math.pi) * np.linalg.norm(
        np.linalg.inv(reduced), axis=0)).astype(int).tolist()
    if math.prod(2 * n + 1 for n in reach) > 2e8:
        raise ResourceError("lattice-enumeration",
                            f"enumeration box of half-widths {reach} too large")
    *rest, last = np.argsort(reach).tolist()
    grid = np.meshgrid(*(np.arange(-reach[i], reach[i] + 1) for i in rest),
                       indexing="ij")
    base = np.stack([g.ravel() for g in grid], axis=1) @ reduced[rest]
    out = []
    for n in range(reach[last] + 1):  # slice -n is slice n negated
        v = base + n * reduced[last]
        q = np.einsum("ij,ij->i", v, v)
        q = q[(q > 0) & (math.pi * q <= _CUT)]
        out += [q, q] if n else [q]
    return np.concatenate(out)


def _epstein(basis: np.ndarray):
    """The Epstein zeta of one lattice as a function of s: the analytic
    continuation of sum |v|^(-2s) over the nonzero lattice.

    Incomplete-gamma representation split at the self-dual scale: the
    basis is scaled by 1/c to unit covolume, c = |det|^(1/4), so the
    lattice and its dual need about as many shells each, and zeta(s)
    carries the factor c^(-2s).  Both are summed to a certified
    exponential tail.  Valid for real s away from 0 and 2 (the explicit
    pole terms carry the continuation there).  Validation, inversion and
    both shell scans do not depend on s and run once."""
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (4, 4):
        raise DomainError("lattice-shape", "need a 4x4 generator matrix")
    det = float(np.linalg.det(basis))
    if abs(det) < 1e-300:
        raise DomainError("lattice-singular", "generator matrix not invertible")
    c = abs(det) ** 0.25
    unit = basis / c
    q1 = math.pi * _shell_norms(unit)
    q2 = math.pi * _shell_norms(np.linalg.inv(unit).T)

    def zeta(s: float) -> float:
        i1 = float(np.sum(_gamma_upper(s, q1) * q1 ** (-s)))
        i2 = float(np.sum(_gamma_upper(2.0 - s, q2) * q2 ** (s - 2.0)))
        bracket = i1 + i2 + 1.0 / (s - 2.0) - 1.0 / s
        return c ** (-2.0 * s) * math.pi ** s / math.gamma(s) * bracket
    return zeta


def epstein_zeta_at_zero(basis: np.ndarray, delta: float = 1e-4):
    """Continuation value at s = 0 via symmetric sampling at s = +-delta.

    The averages of zeta over s = +-delta and s = +-2 delta differ from
    zeta(0) by a delta^2 and a 4 delta^2 term; Richardson's combination
    (4 avg1 - avg2) / 3 cancels them, leaving O(delta^4).  Returns
    (value, error_estimate); the estimate |avg1 - avg2| / 3 is the size of
    the cancelled term, which bounds the delta^4 remainder far from it.
    The lattice is scanned once.
    """
    zeta = _epstein(basis)
    avg1 = 0.5 * (zeta(delta) + zeta(-delta))
    avg2 = 0.5 * (zeta(2 * delta) + zeta(-2 * delta))
    return ((4.0 * avg1 - avg2) / 3.0,
            abs(avg1 - avg2) / 3.0 + 64.0 * math.exp(-_CUT))


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
    k = 0, v41 for k = 1) is added, with the report's relative error
    estimate in the truncation error.  The bulk Laplacian-of-s term, a flux
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
        err += abs(v4) / (16.0 * math.pi ** 2) * boundary.error_estimate
    return SpectralZetaResult(zeta_at_zero=float(value),
                              method="heat-kernel-formula",
                              truncation_error=float(err))
