"""Truncation-boundary reports for the ALF backends.

The boundary is a level set of the radial chart function F (coordinate
sphere around the NUT centroid, or u^2 = r - 2m for the black-hole chart);
each ALF backend supplies the surface (``truncation_surface``) and dF
(``level_gradient``).  All our ALF boundaries are surfaces of revolution,
so every field lives on a 1D polar-angle grid; the two symmetry circles
integrate out.

Conventions: e4 = dF/|dF|_g is the outward unit normal and Pi_ij =
g(grad_{e_i} e_j, e4) on tangent frame indices, so a round sphere in flat
space carries Pi = -(1/rho) * identity.  The part of grad e4 along dF drops
out on tangent legs, hence Pi_ij = -e_i^m e_j^k (d_m d_k F - Gam^l_mk d_l F)
/ |dF|_g.  g, Gam and Riemann come from the one curvature batch, on the
surface; e1..e4 are Gram-Schmidt on the chart tangents and e4 by the
kernel's Cholesky rule; R_i4j4 is the (3, 3) block of pairs (03, 13, 23)
of the batch's bivector Riemann rotated onto those legs
(`curvature._frame_components`); the chart Hessian of F is
`curvature._five_point` on ``level_gradient`` (step 1e-3 rho, no metric).

Every ALF backend is Ricci-flat (Gibbons-Hawking metrics are hyperkaehler,
Euclidean Schwarzschild is a vacuum solution; acceptance criterion 04
checks each), so the heat densities take that form: s = 0, sum_i R_i4i4 =
Ric_44 = 0 and sum_j R_ijkj = -R_i4k4 on tangent legs.  No normal
derivative of s is taken, and v41 = 4 v40 term by term.
"""

from __future__ import annotations

import dataclasses
import math

from .. import _lazy
from ..errors import DomainError
from .backends import GeometryBackend
from .curvature import (_cholesky_legs, _five_point, _frame_components,
                        curvature_batch)
from .integrals import CUTOFF_SCALE_MAX, check_resolution

np = _lazy("numpy")


@dataclasses.dataclass(frozen=True)
class TruncationReport:
    """Boundary data of the truncated space at radius rho."""

    rho: float
    pi_sup: float
    v40_integral: float
    v41_integral: float
    boundary_area: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _deriv_even(f: np.ndarray, step: float, parity: int) -> np.ndarray:
    """4th-order first derivative on a midpoint grid, reflecting with the
    given parity (+1 even, -1 odd) at both ends."""
    left = parity * f[1::-1]
    right = parity * f[:-3:-1]
    ext = np.concatenate([left, f, right])
    return (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / (12.0 * step)


def _second_fundamental_form(backend, pts, jac, main, rho):
    """Pi (n, 3, 3) at surface points with chart tangents `jac` and the
    curvature batch `main` there, and the adapted legs (n, 4, 4): columns
    e1..e3 tangent, e4 the outward unit normal."""
    df = backend.level_gradient(pts)
    norm = np.sqrt(np.einsum("nab,na,nb->n", main.ginv, df, df))
    normal = np.einsum("nab,nb->na", main.ginv, df) / norm[:, None]
    vecs = np.concatenate([jac, normal[:, :, None]], axis=2)
    legs = vecs @ _cholesky_legs(np.swapaxes(vecs, 1, 2) @ main.g @ vecs)
    axes = np.broadcast_to(np.eye(4), (len(pts), 4, 4))
    hess = _five_point(backend.level_gradient, pts, axes, 1e-3 * rho)
    hess -= np.einsum("nlmk,nl->nmk", main.gamma, df)
    t = legs[:, :, :3]
    pi = -np.einsum("nmi,nkj,nmk->nij", t, t, hess / norm[:, None, None])
    return 0.5 * (pi + np.swapaxes(pi, 1, 2)), legs


def _r_i4j4(r6: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """R_i4j4 (n, 3, 3): pairs (03, 13, 23) of W^T R6 W on adapted legs."""
    return _frame_components(r6, legs)[:, [[2], [4], [5]], [2, 4, 5]]


def boundary_report(backend: GeometryBackend, rho: float,
                    resolution: int = 8) -> TruncationReport:
    """Second fundamental form and heat-coefficient boundary integrals on
    the truncation sphere of chart radius rho, from one curvature batch on
    the surface; the metric must be Ricci-flat (see the module docstring).
    rho lies in (2, CUTOFF_SCALE_MAX] times the geometry scale."""
    if not getattr(backend, "alf", False):
        raise DomainError("boundary-needs-alf",
                          f"no truncation boundary for {type(backend).__name__}")
    scale = backend.geometry_scale()
    if not rho > 2.0 * scale:
        raise DomainError("rho-inside-core", f"rho {rho} must exceed the "
                          f"compact core radius {2.0 * scale}")
    if rho > CUTOFF_SCALE_MAX * scale:
        raise DomainError("rho-too-large", f"rho {rho} above "
                          f"{CUTOFF_SCALE_MAX}x geometry scale {scale}")
    check_resolution(resolution)

    n_theta = 16 * resolution
    step = math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * step
    pts, jac, circumference = backend.truncation_surface(rho, theta)

    main = curvature_batch(backend, pts)
    pi, legs = _second_fundamental_form(backend, pts, jac, main, rho)
    tr_pi = np.einsum("nii->n", pi)
    pi_pi = np.einsum("nij,nij->n", pi, pi)
    pi3 = np.einsum("nij,njk,nik->n", pi, pi, pi)
    pi_sup = float(np.max(np.abs(np.linalg.eigvalsh(pi))))

    r_i4j4_pi = np.einsum("nij,nij->n", _r_i4j4(main.bivector_low, legs), pi)

    # induced metric on the (theta, circle, circle) parametrization
    h_ind = np.einsum("nma,nmk,nkb->nab", jac, main.g, jac)
    sqrt_h = np.sqrt(np.linalg.det(h_ind))
    h_up_tt = np.linalg.inv(h_ind)[:, 0, 0]

    # surface Laplacian of tr(Pi): axisymmetric scalar, so a 1D formula
    dtr = _deriv_even(tr_pi, step, parity=1)
    flux = sqrt_h * h_up_tt * dtr
    lap_tr = _deriv_even(flux, step, parity=-1) / sqrt_h

    v40 = (-16.0 * r_i4j4_pi + 24.0 * lap_tr + (40.0 / 21.0) * tr_pi ** 3
           - (88.0 / 7.0) * pi_pi * tr_pi + (320.0 / 21.0) * pi3) / 360.0

    measure = circumference * step * sqrt_h
    v40_integral = float(np.sum(measure * v40))
    return TruncationReport(
        rho=float(rho),
        pi_sup=pi_sup,
        v40_integral=v40_integral,
        v41_integral=4.0 * v40_integral,
        boundary_area=float(np.sum(measure)))
