"""Finite-difference curvature engine.

Fourth-order central differences of the metric give Christoffel symbols and
their derivatives; the Riemann tensor, frame components, quadratic
invariants in both norm conventions, and the two characteristic densities
are assembled from those.  The full stencil is 113 metric evaluations per
point (1 center, 16 axis points, 96 mixed-pair points).  `curvature_batch`
evaluates exactly the points it is given in one vectorized pass; callers
with many points bound the batch themselves (the volume integrand,
``integrals._columns``, feeds it a fixed-size chunk at a time).

Conventions fixed here and relied on everywhere else:

* Riemann sign: R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s} + ...,
  giving scalar curvature +12/a^2 on the round 4-sphere of radius a.
* Orthonormal frames come from the Cholesky factor of the metric
  (F = (L^T)^{-1}), which is orientation-preserving with respect to the
  chart coordinate order; the Levi-Civita symbol below uses that order.
* gb_density integrates to the Euler number (1/(8 pi^2)) (|R|^2_endo
  - |ric - (s/4) g|^2) dV; pontryagin_density integrates to the signature
  -(1/(24 pi^2)) tr(R wedge R).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AccuracyError
from .backends import GeometryBackend

_OFFS = (-2.0, -1.0, 1.0, 2.0)
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0  # d/dx at _OFFS, per unit step
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _build_stencil():
    """Offset table (113, 4) and weight matrices for d1 (4,113) and d2 (4,4,113)."""
    offsets = [np.zeros(4)]
    for d in range(4):
        for o in _OFFS:
            v = np.zeros(4)
            v[d] = o
            offsets.append(v)
    for (a, b) in _PAIRS:
        for oa in _OFFS:
            for ob in _OFFS:
                v = np.zeros(4)
                v[a] = oa
                v[b] = ob
                offsets.append(v)
    offsets = np.array(offsets)

    w1 = np.zeros((4, 113))
    for d in range(4):
        w1[d, 1 + 4 * d:5 + 4 * d] = _W1

    w2 = np.zeros((4, 4, 113))
    # diagonal second derivatives from the axis points and the center
    diag = {-2.0: -1.0, -1.0: 16.0, 1.0: 16.0, 2.0: -1.0}
    for d in range(4):
        w2[d, d, 0] = -30.0 / 12.0
        for k, o in enumerate(_OFFS):
            w2[d, d, 1 + 4 * d + k] = diag[o] / 12.0
    # mixed second derivatives from the tensor-product pair blocks
    for p, (a, b) in enumerate(_PAIRS):
        base = 17 + 16 * p
        for ka in range(4):
            for kb in range(4):
                w = _W1[ka] * _W1[kb]
                w2[a, b, base + 4 * ka + kb] = w
                w2[b, a, base + 4 * ka + kb] = w
    return offsets, w1, w2


_OFFSETS, _D1W, _D2W = _build_stencil()

def _levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    from itertools import permutations
    for perm in permutations(range(4)):
        sign = 1.0
        p = list(perm)
        for i in range(4):          # parity by selection sort
            if p[i] != i:
                j = p.index(i)
                p[i], p[j] = p[j], p[i]
                sign = -sign
        eps[perm] = sign
    return eps


_EPS4 = _levi_civita4()


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple[float, float, float, float]
    riemann: np.ndarray          # orthonormal-frame components, (4,4,4,4)
    ricci: np.ndarray            # orthonormal-frame components, (4,4)
    scalar: float
    inv_R_full: float
    inv_R_endo: float
    inv_r: float
    inv_s2: float
    gb_density: float
    pontryagin_density: float
    bianchi_residual: float
    step: float
    error_estimate: float | None = None


class CurvatureBatch:
    """Raw assembled geometry for a batch of points (internal plumbing).

    Every derived invariant has its home here: ``inv_R_endo`` is
    inv_R_full / 4 and ``inv_s2`` is scalar^2."""

    __slots__ = ("points", "h", "g", "ginv", "gamma", "riemann_low",
                 "riemann_frame", "ricci_frame", "scalar", "inv_R_full",
                 "inv_R_endo", "inv_r", "inv_s2", "gb_density",
                 "pontryagin_density", "bianchi_residual")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def _metric_derivatives(backend: GeometryBackend, pts: np.ndarray, h: np.ndarray):
    n = pts.shape[0]
    stencil = pts[:, None, :] + h[:, None, None] * _OFFSETS[None, :, :]
    g_all = backend.metric(stencil.reshape(n * 113, 4)).reshape(n, 113, 4, 4)
    g0 = g_all[:, 0]
    # stencil weights sum to zero, so subtracting the centre value changes
    # nothing analytically but kills the O(|g|/h^2) rounding floor
    g_rel = g_all - g0[:, None]
    d1 = np.einsum("ks,nsij->nkij", _D1W, g_rel) / h[:, None, None, None]
    d2 = np.einsum("kls,nsij->nklij", _D2W, g_rel) / (h * h)[:, None, None, None, None]
    return g0, d1, d2


def curvature_batch(backend: GeometryBackend, pts: np.ndarray,
                    h: np.ndarray | float | None = None) -> CurvatureBatch:
    """Assemble curvature for (n, 4) points in one batch; h defaults to
    1e-3 x local scale.  Memory grows with n (113 metric evaluations and
    several (4,4,4,4) tensors per point)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    if h is None:
        h_arr = 1e-3 * backend.fd_scale(pts)
    else:
        h_arr = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    backend.check_points(pts, margin=2.5 * h_arr)

    g0, d1, d2 = _metric_derivatives(backend, pts, h_arr)
    ginv = np.linalg.inv(g0)

    # sum_term[n,s,i,j] = d_i g_sj + d_j g_si - d_s g_ij
    sum_term = (np.einsum("nisj->nsij", d1) + np.einsum("njsi->nsij", d1)
                - d1)
    gamma = 0.5 * np.einsum("nls,nsij->nlij", ginv, sum_term)

    dginv = -np.einsum("nab,nkbc,ncd->nkad", ginv, d1, ginv)
    dsum = np.einsum("nkisj->nksij", d2) + np.einsum("nkjsi->nksij", d2) - d2
    dgamma = (0.5 * np.einsum("nkls,nsij->nklij", dginv, sum_term)
              + 0.5 * np.einsum("nls,nksij->nklij", ginv, dsum))

    # R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s}
    #              + Gam^l_{i a} Gam^a_{j s} - Gam^l_{j a} Gam^a_{i s}
    r_up = (np.einsum("niljs->nlsij", dgamma) - np.einsum("njlis->nlsij", dgamma)
            + np.einsum("nlia,najs->nlsij", gamma, gamma)
            - np.einsum("nlja,nais->nlsij", gamma, gamma))
    r_low = np.einsum("nkl,nlsij->nksij", g0, r_up)

    chol = np.linalg.cholesky(g0)
    frame = np.linalg.inv(np.transpose(chol, (0, 2, 1)))  # columns = frame legs
    r_fr = np.einsum("nia,njb,nkc,nld,nijkl->nabcd", frame, frame, frame, frame,
                     r_low, optimize=True)

    ric = np.einsum("ncacb->nab", r_fr)
    scal = np.einsum("naa->n", ric)
    inv_R_full = np.einsum("nabcd,nabcd->n", r_fr, r_fr)
    inv_r = np.einsum("nab,nab->n", ric, ric)
    gbd = (inv_R_full - 4.0 * inv_r + scal * scal) / (32.0 * math.pi ** 2)
    pon = np.einsum("nabcd,nabef,cdef->n", r_fr, r_fr, _EPS4,
                    optimize=True) / (96.0 * math.pi ** 2)
    bianchi = np.max(np.abs(r_fr + np.einsum("nacdb->nabcd", r_fr)
                            + np.einsum("nadbc->nabcd", r_fr)), axis=(1, 2, 3, 4))

    return CurvatureBatch(points=pts, h=h_arr, g=g0, ginv=ginv, gamma=gamma,
                          riemann_low=r_low, riemann_frame=r_fr,
                          ricci_frame=ric, scalar=scal, inv_R_full=inv_R_full,
                          inv_R_endo=0.25 * inv_R_full, inv_r=inv_r,
                          inv_s2=scal * scal, gb_density=gbd,
                          pontryagin_density=pon, bianchi_residual=bianchi)


def _sample_from_batch(batch: CurvatureBatch, i: int,
                       err: float | None = None) -> CurvatureSample:
    return CurvatureSample(
        point=tuple(float(c) for c in batch.points[i]),
        riemann=batch.riemann_frame[i].copy(),
        ricci=batch.ricci_frame[i].copy(),
        scalar=float(batch.scalar[i]),
        inv_R_full=float(batch.inv_R_full[i]),
        inv_R_endo=float(batch.inv_R_endo[i]),
        inv_r=float(batch.inv_r[i]),
        inv_s2=float(batch.inv_s2[i]),
        gb_density=float(batch.gb_density[i]),
        pontryagin_density=float(batch.pontryagin_density[i]),
        bianchi_residual=float(batch.bianchi_residual[i]),
        step=float(batch.h[i]),
        error_estimate=err,
    )


def curvature_at(backend: GeometryBackend, x, h: float | None = None,
                 tol: float | None = None) -> CurvatureSample:
    """Curvature sample at one point.

    With ``tol`` set, a Richardson pair (h, h/2) estimates the discretization
    error of the headline invariant; if the estimate exceeds tol the call
    fails rather than return silently degraded values.
    """
    pt = np.asarray(x, dtype=float).reshape(1, 4)
    coarse = curvature_batch(backend, pt, h)
    if tol is None:
        return _sample_from_batch(coarse, 0)
    fine = curvature_batch(backend, pt, coarse.h * 0.5)
    # 4th-order scheme: err(h/2) ~ |f(h) - f(h/2)| / 15
    diffs = [abs(float(coarse.inv_R_full[0] - fine.inv_R_full[0])),
             abs(float(coarse.scalar[0] - fine.scalar[0])),
             abs(float(coarse.gb_density[0] - fine.gb_density[0]))]
    est = max(diffs) / 15.0
    if est > tol:
        raise AccuracyError("fd-step-too-large",
                            f"step {float(coarse.h[0]):.3e} cannot reach tol {tol:.3e}",
                            estimate=est)
    return _sample_from_batch(fine, 0, err=est)
