"""Truncation-boundary reports for the ALF backends.

The boundary is the level set F = rho of the backend's ``radius`` F (the
distance from the NUT centroid, or the area radius r = 2m + u^2 of the
black-hole chart); each ALF backend supplies the surface
(``truncation_surface``) and the exact chart gradient and Hessian of F
(``radius_derivatives``).  All our ALF boundaries are surfaces of revolution,
so every field depends on the polar angle theta alone and the two symmetry
circles integrate out.  The theta rule is Gauss-Legendre in x = -cos theta
(sin theta dtheta = dx) on panels of (-1, 1), through the volume integrals'
driver ``quadrature.integrate_refined`` and its doubled-mesh estimate.

Conventions: e4 = dF/|dF|_g is the outward unit normal and Pi_ij =
g(grad_{e_i} e_j, e4) on tangent frame indices, so a round sphere in flat
space carries Pi = -(1/rho) * identity.  The part of grad e4 along dF drops
out on tangent legs, hence Pi_ij = -e_i^m e_j^k (d_m d_k F - Gam^l_mk d_l F)
/ |dF|_g.  g, Gam and Riemann come from one curvature batch per block, on
the surface; e1..e4 are Gram-Schmidt on the chart tangents and e4 by the
kernel's Cholesky rule; R_i4j4 is the (3, 3) block of pairs (03, 13, 23)
of the batch's bivector Riemann rotated onto those legs
(`curvature._frame_components`); no derivative of F is taken numerically.

Every ALF backend is Ricci-flat (Gibbons-Hawking metrics are hyperkaehler,
Euclidean Schwarzschild is a vacuum solution; acceptance criterion 04
checks each), so the heat densities take that form: s = 0, sum_i R_i4i4 =
Ric_44 = 0 and sum_j R_ijkj = -R_i4k4 on tangent legs.  No normal
derivative of s is taken, and v41 = 4 v40 term by term.  The surface
Laplacian term 24 Delta(tr Pi) of the v40 density (Branson and Gilkey,
Comm. PDE 15, 1990) is absent: a divergence integrates to zero over the
closed surface, and dropping it moved `v40_integral` by at most 3.0e-16
relative on TN-1, TN-2 and Schwarzschild at rho = 20 to 320.
"""

from __future__ import annotations

from collections import namedtuple

from .. import _lazy
from ..errors import DomainError
from . import quadrature as quad
from .backends import GeometryBackend
from .curvature import _cholesky_legs, _frame_components, curvature_batch
from .integrals import alf_reach, check_resolution

np = _lazy("numpy")


class TruncationReport(namedtuple(
        "TruncationReport", "rho pi_sup v40_integral v41_integral "
        "boundary_area error_estimate")):
    """Boundary data of the truncated space at radius rho."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def _second_fundamental_form(backend, pts, jac, main):
    """Pi (n, 3, 3) at surface points with chart tangents `jac` and the
    curvature batch `main` there, and the adapted legs (n, 4, 4): columns
    e1..e3 tangent, e4 the outward unit normal."""
    df, hess = backend.radius_derivatives(pts)
    norm = np.sqrt(np.einsum("nab,na,nb->n", main.ginv, df, df))
    normal = np.einsum("nab,nb->na", main.ginv, df) / norm[:, None]
    vecs = np.concatenate([jac, normal[:, :, None]], axis=2)
    legs = vecs @ _cholesky_legs(np.swapaxes(vecs, 1, 2) @ main.g @ vecs)
    hess = hess - np.einsum("nlmk,nl->nmk", main.gamma, df)
    t = legs[:, :, :3]
    pi = -np.einsum("nmi,nkj,nmk->nij", t, t, hess / norm[:, None, None])
    return 0.5 * (pi + np.swapaxes(pi, 1, 2)), legs


def _r_i4j4(r6: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """R_i4j4 (n, 3, 3): pairs (03, 13, 23) of W^T R6 W on adapted legs."""
    return _frame_components(r6, legs)[:, [[2], [4], [5]], [2, 4, 5]]


def boundary_report(backend: GeometryBackend, rho: float,
                    resolution: int) -> TruncationReport:
    """Second fundamental form and heat-coefficient boundary integrals on
    the truncation sphere of chart radius rho, one curvature batch per
    block of a mesh of max(1, resolution // 2) order-8 panels in x = -cos
    theta; the metric must be Ricci-flat (see the module docstring).  rho
    lies in (2 x the geometry scale, `alf_reach`].  `error_estimate` is
    the larger doubled-mesh relative difference of the area and of v40."""
    if not getattr(backend, "alf", False):
        raise DomainError("boundary-needs-alf",
                          f"no truncation boundary for {type(backend).__name__}")
    if not rho <= alf_reach(backend):     # NaN fails too
        raise DomainError("rho-too-large", f"rho {rho} above the reach "
                          f"{alf_reach(backend)} of the truncated space")
    scale = backend.geometry_scale()
    if not rho > 2.0 * scale:
        raise DomainError("rho-inside-core", f"rho {rho} must exceed the "
                          f"compact core radius {2.0 * scale}")
    check_resolution(resolution)
    sups = []

    def densities(x):
        """(area, v40) densities in x at the nodes `x`."""
        theta = np.arccos(-x)
        pts, jac, circumference = backend.truncation_surface(rho, theta)
        main = curvature_batch(backend, pts)
        pi, legs = _second_fundamental_form(backend, pts, jac, main)
        lam = np.linalg.eigvalsh(pi)  # tr(Pi^p) is the sum of lam^p
        sups.append(np.max(np.abs(lam)))
        tr1, tr2, tr3 = (np.sum(lam ** p, axis=1) for p in (1, 2, 3))
        r_pi = np.einsum("nij,nij->n", _r_i4j4(main.bivector_low, legs), pi)
        v40 = (-16.0 * r_pi + (40.0 / 21.0) * tr1 ** 3
               - (88.0 / 7.0) * tr2 * tr1 + (320.0 / 21.0) * tr3) / 360.0
        # induced metric on the (theta, circle, circle) parametrization
        h_ind = np.einsum("nma,nmk,nkb->nab", jac, main.g, jac)
        area = circumference * np.sqrt(np.linalg.det(h_ind)) / np.sin(theta)
        return np.stack([area, area * v40], axis=1)

    edges = quad.uniform_edges(-1.0, 1.0, max(1, resolution // 2))
    (area, v40), err = quad.integrate_refined(densities, [edges], 8)
    return TruncationReport(
        rho=float(rho), pi_sup=float(max(sups)), v40_integral=float(v40),
        v41_integral=4.0 * float(v40), boundary_area=float(area),
        error_estimate=float(np.max(err / np.abs([area, v40]))))
