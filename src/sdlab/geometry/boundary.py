"""Truncation-boundary reports for the ALF backends.

The boundary is the level set of the radial chart function (coordinate
sphere around the NUT centroid, or r = rho for the black-hole chart).
Each ALF backend supplies its surface (``truncation_surface``) and the
gradient of its level function (``level_gradient``).  All our ALF
boundaries are surfaces of revolution, so every field lives on a 1D
polar-angle grid; the two symmetry circles integrate out.

Conventions: e4 is the outward unit normal and the second fundamental
form is Pi_ij = g(grad_{e_i} e_j, e4) on tangent frame indices, which
makes a round sphere in flat space carry Pi = -(1/rho) * identity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import DomainError
from .backends import GeometryBackend
from .curvature import _OFFS, _W1, curvature_batch


@dataclasses.dataclass(frozen=True)
class TruncationReport:
    """Boundary data of the truncated space at radius rho."""

    rho: float
    pi_sup: float
    v40_integral: float
    v41_integral: float
    boundary_area: float
    normal_s_flux: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _deriv_even(f: np.ndarray, step: float, parity: int) -> np.ndarray:
    """4th-order first derivative on a midpoint grid, reflecting with the
    given parity (+1 even, -1 odd) at both ends."""
    left = parity * f[1::-1]
    right = parity * f[:-3:-1]
    ext = np.concatenate([left, f, right])
    return (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / (12.0 * step)


def _unit_normal_covector(backend, pts):
    """n_mu = dF / |dF|_g at arbitrary points near the boundary."""
    g = backend.metric(pts)
    ginv = np.linalg.inv(g)
    df = backend.level_gradient(pts)
    norm = np.sqrt(np.einsum("nab,na,nb->n", ginv, df, df))
    return df / norm[:, None]


def _gram_schmidt_frame(g, jac, normal_vec):
    """Orthonormal tangent triple from the chart tangents, then e4."""
    n = g.shape[0]
    frame = np.zeros((n, 4, 4))     # frame[:, a, mu]
    for a in range(3):
        v = jac[:, :, a].copy()
        for b in range(a):
            proj = np.einsum("nm,nmk,nk->n", frame[:, b], g, v)
            v -= proj[:, None] * frame[:, b]
        # tangency to the level set is automatic for chart tangents
        length = np.sqrt(np.einsum("nm,nmk,nk->n", v, g, v))
        frame[:, a] = v / length[:, None]
    frame[:, 3] = normal_vec
    return frame


def boundary_report(backend: GeometryBackend, rho: float,
                    resolution: int = 8) -> TruncationReport:
    """Second fundamental form and heat-coefficient boundary integrals
    on the truncation sphere of chart radius rho."""
    if not getattr(backend, "alf", False):
        raise DomainError("boundary-needs-alf",
                          f"no truncation boundary for {type(backend).__name__}")
    core = 2.0 * backend.geometry_scale()
    if not rho > core:
        raise DomainError("rho-inside-core",
                          f"rho {rho} must exceed the compact core radius "
                          f"{core}")
    if resolution < 1 or resolution > 64:
        raise DomainError("resolution-cap", f"resolution {resolution!r}")

    n_theta = 16 * resolution
    step = math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * step
    pts, jac, circumference = backend.truncation_surface(rho, theta)
    n = pts.shape[0]

    main = curvature_batch(backend, pts)
    g = main.g
    ginv = main.ginv
    n_cov = _unit_normal_covector(backend, pts)
    n_vec = np.einsum("nab,nb->na", ginv, n_cov)
    frame = _gram_schmidt_frame(g, jac, n_vec)

    # d(n_mu)/dx^nu by 4th-order differences of the analytic covector field
    h_n = 1e-3 * rho
    dn = np.zeros((n, 4, 4))
    for axis in range(4):
        for w, off in zip(_W1, _OFFS):
            shifted = pts.copy()
            shifted[:, axis] += off * h_n
            dn[:, axis, :] += w * _unit_normal_covector(backend, shifted)
    dn /= h_n
    grad_n = dn - np.einsum("nlmk,nl->nmk", main.gamma, n_cov)
    pi_full = -np.einsum("nim,njk,nmk->nij", frame[:, :3], frame[:, :3], grad_n)
    pi = 0.5 * (pi_full + np.swapaxes(pi_full, 1, 2))

    tr_pi = np.einsum("nii->n", pi)
    pi_pi = np.einsum("nij,nij->n", pi, pi)
    pi3 = np.einsum("nij,njk,nik->n", pi, pi, pi)
    pi_sup = float(np.max(np.abs(np.linalg.eigvalsh(pi))))

    r_ad = np.einsum("nmqrs,nam,nbq,ncr,nds->nabcd", main.riemann_low,
                     frame, frame, frame, frame, optimize=True)
    r_i4i4 = np.einsum("naa->n", r_ad[:, :3, 3, :3, 3])
    r_i4j4_pi = np.einsum("nij,nij->n", r_ad[:, :3, 3, :3, 3], pi)
    r_ijkj_pi = np.einsum("nijkj,nik->n", r_ad[:, :3, :3, :3, :3], pi)
    s = main.scalar

    # normal derivative of the scalar curvature; a wide step and a small
    # curvature step keep the difference quotient above the noise floor
    h4 = 0.05 * rho
    ds4 = np.zeros(n)
    for w, off in zip(_W1, _OFFS):
        moved = pts + off * h4 * n_vec
        sb = curvature_batch(backend, moved, h=5e-3 * float(
            np.min(backend.fd_scale(moved))))
        ds4 += w * sb.scalar
    ds4 /= h4

    # induced metric on the (theta, circle, circle) parametrization
    h_ind = np.einsum("nma,nmk,nkb->nab", jac, g, jac)
    sqrt_h = np.sqrt(np.linalg.det(h_ind))
    h_up_tt = np.linalg.inv(h_ind)[:, 0, 0]

    # surface Laplacian of tr(Pi): axisymmetric scalar, so a 1D formula
    dtr = _deriv_even(tr_pi, step, parity=1)
    flux = sqrt_h * h_up_tt * dtr
    lap_tr = _deriv_even(flux, step, parity=-1) / sqrt_h

    v40 = (-138.0 * ds4 + 140.0 * s * tr_pi + 4.0 * r_i4i4 * tr_pi
           - 12.0 * r_i4j4_pi + 4.0 * r_ijkj_pi + 24.0 * lap_tr
           + (40.0 / 21.0) * tr_pi ** 3 - (88.0 / 7.0) * pi_pi * tr_pi
           + (320.0 / 21.0) * pi3) / 360.0
    v41 = (-192.0 * ds4 + 200.0 * s * tr_pi + 16.0 * r_i4i4 * tr_pi
           - 48.0 * r_i4j4_pi + 16.0 * r_ijkj_pi + 96.0 * lap_tr
           + (160.0 / 21.0) * tr_pi ** 3 - (352.0 / 7.0) * pi_pi * tr_pi
           + (1280.0 / 21.0) * pi3) / 360.0

    measure = circumference * step * sqrt_h
    area = float(np.sum(measure))
    return TruncationReport(
        rho=float(rho),
        pi_sup=pi_sup,
        v40_integral=float(np.sum(measure * v40)),
        v41_integral=float(np.sum(measure * v41)),
        boundary_area=area,
        normal_s_flux=float(np.sum(measure * ds4)))
