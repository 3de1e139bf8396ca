"""Finite-difference curvature engine.

Fourth-order central differences of the metric give Christoffel symbols and
their derivatives; the Riemann tensor, frame components, quadratic
invariants in both norm conventions, and the two characteristic densities
are assembled from those.  The full stencil is 113 metric evaluations per
point (1 center, 16 axis points, 96 mixed-pair points).  A backend lists
in ``cyclic_axes`` the chart coordinates its metric never reads; the
stencil rows offset along one of them repeat a row that is kept, every
derivative along them is exactly zero, and they are skipped: 61 points
when one coordinate is cyclic (the Taub-NUT and Schwarzschild charts),
1 on the flat torus.  First and second derivatives come from one
(20, m) weight table applied as a single matmul, and the Christoffel
and Riemann assembly is batched matmuls on reshaped views.  `curvature_batch`
evaluates exactly the points it is given in one vectorized pass, and its
working arrays grow with the batch (about 25 KiB per Taub-NUT point), so
callers with many points bound the batch themselves: the volume
integrand, ``integrals._columns``, feeds it 256 points at a time, a size
whose arrays stay near one core's L2 cache (``integrals`` gives the scan
that chose it).

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

import functools
import math
from dataclasses import dataclass

from .. import _lazy
from .backends import GeometryBackend

np = _lazy("numpy")

_OFFS = (-2.0, -1.0, 1.0, 2.0)
_W1 = (1 / 12, -8 / 12, 8 / 12, -1 / 12)  # d/dx at _OFFS, per unit step
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the contraction orders einsum's own search picks for every batch of n = 1
# to 4096 points, the range callers use (the boundary's five-point flux
# batch is the largest, the volume integrand's chunk is integrals._CHUNK);
# fixed here so no call pays for the search
_FRAME_PATH = ["einsum_path", (0, 4), (0, 3), (0, 2), (0, 1)]
_PONTRYAGIN_PATH = ["einsum_path", (0, 1), (0, 1)]


def _build_stencil():
    """Offset table (113, 4) and weight table (20, 113) per unit step: row k
    < 4 gives d/dx_k, row 4 + 4k + l gives d2/dx_k dx_l."""
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

    w = np.zeros((20, 113))
    w2 = w[4:].reshape(4, 4, 113)
    # diagonal second derivatives from the axis points and the center
    diag = {-2.0: -1.0, -1.0: 16.0, 1.0: 16.0, 2.0: -1.0}
    for d in range(4):
        w[d, 1 + 4 * d:5 + 4 * d] = _W1
        w2[d, d, 0] = -30.0 / 12.0
        for k, o in enumerate(_OFFS):
            w2[d, d, 1 + 4 * d + k] = diag[o] / 12.0
    # mixed second derivatives from the tensor-product pair blocks
    for p, (a, b) in enumerate(_PAIRS):
        base = 17 + 16 * p
        for ka in range(4):
            for kb in range(4):
                wk = _W1[ka] * _W1[kb]
                w2[a, b, base + 4 * ka + kb] = wk
                w2[b, a, base + 4 * ka + kb] = wk
    return offsets, w


@functools.lru_cache(maxsize=None)
def _stencil(cyclic_axes: tuple[int, ...]):
    """Offsets and weights of the stencil rows with zero offset along every
    cyclic axis (61 of 113 for one axis).  A dropped row repeats the metric
    of the kept row without its cyclic offsets and is weighted only in
    derivatives along a cyclic axis, which vanish exactly."""
    offsets, weights = _build_stencil()
    keep = ~np.any(offsets[:, list(cyclic_axes)] != 0.0, axis=1)
    return offsets[keep], np.ascontiguousarray(weights[:, keep])


def _five_point(f, pts: np.ndarray, dirs: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative of f at (n, 4) points along (n, k, 4)
    directions with step h (the `_W1` rule at `_OFFS`).  f maps (m, 4)
    points to (m, ...) values and is called once, on all 4nk shifted
    points; the result is (n, k, ...)."""
    n, k = dirs.shape[:2]
    offs = h * np.asarray(_OFFS)
    moved = pts[:, None, None] + offs[:, None] * dirs[:, :, None]
    vals = f(moved.reshape(-1, 4))
    vals = vals.reshape(n, k, len(_OFFS), *vals.shape[1:])
    return np.moveaxis(vals, 2, -1) @ _W1 / h


def _cholesky_legs(gram: np.ndarray) -> np.ndarray:
    """(L^T)^-1 for the Cholesky factor L of each Gram matrix: it maps the
    vectors behind the Gram matrix to their Gram-Schmidt legs, in order."""
    return np.linalg.inv(np.swapaxes(np.linalg.cholesky(gram), 1, 2))


def _frame_components(r_low: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """R_abcd of the lowered Riemann tensor on the columns of `legs`."""
    return np.einsum("nia,njb,nkc,nld,nijkl->nabcd", legs, legs, legs, legs,
                     r_low, optimize=_FRAME_PATH)


@functools.lru_cache(maxsize=None)
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


class CurvatureBatch:
    """Raw assembled geometry for a batch of points (internal plumbing).

    Every derived invariant has its home here: ``inv_R_endo`` is
    inv_R_full / 4 and ``inv_s2`` is scalar^2."""

    __slots__ = ("points", "h", "g", "ginv", "gamma", "riemann_low",
                 "riemann_frame", "ricci_frame", "scalar", "inv_R_full",
                 "inv_R_endo", "inv_r", "inv_s2", "gb_density",
                 "pontryagin_density")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def _metric_derivatives(backend: GeometryBackend, pts: np.ndarray, h: np.ndarray):
    n = pts.shape[0]
    offsets, weights = _stencil(backend.cyclic_axes)
    m = len(offsets)
    stencil = pts[:, None, :] + h[:, None, None] * offsets[None, :, :]
    g_rel = backend.metric(stencil.reshape(n * m, 4)).reshape(n, m, 16)
    g0 = g_rel[:, 0].copy()
    # stencil weights sum to zero, so subtracting the centre value changes
    # nothing analytically but kills the O(|g|/h^2) rounding floor
    g_rel -= g0[:, None]
    d = weights @ g_rel  # (n, 20, 16): d1 rows, then d2 rows
    d1 = d[:, :4].reshape(n, 4, 4, 4) / h[:, None, None, None]
    d2 = d[:, 4:].reshape(n, 4, 4, 4, 4) / (h * h)[:, None, None, None, None]
    return g0.reshape(n, 4, 4), d1, d2


def curvature_batch(backend: GeometryBackend, pts: np.ndarray,
                    h: np.ndarray | float | None = None) -> CurvatureBatch:
    """Assemble curvature for (n, 4) points in one batch; h defaults to
    1e-3 x local scale.  The metric is evaluated on the stencil rows with
    zero offset along ``backend.cyclic_axes``: 113 per point in general,
    61 when one coordinate is cyclic.  Memory grows with n (that many
    metric evaluations and several (4,4,4,4) tensors per point)."""
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
    d1_t = d1.transpose(0, 2, 1, 3)                     # [n,s,i,j] = d_i g_sj
    sum_term = d1_t + d1_t.transpose(0, 1, 3, 2) - d1
    gamma = 0.5 * (ginv @ sum_term.reshape(n, 4, 16)).reshape(n, 4, 4, 4)

    # dginv[n,k] = -ginv d_k g ginv
    dginv = -(ginv[:, None] @ d1 @ ginv[:, None])
    d2_t = d2.transpose(0, 1, 3, 2, 4)             # [n,k,s,i,j] = d_k d_i g_sj
    dsum = d2_t + d2_t.transpose(0, 1, 2, 4, 3) - d2
    # dgamma[n,k,l,i,j] = d_k Gam^l_{ij}
    dgamma = 0.5 * ((dginv.reshape(n, 16, 4) @ sum_term.reshape(n, 4, 16))
                    .reshape(n, 4, 4, 4, 4)
                    + (ginv[:, None] @ dsum.reshape(n, 4, 4, 16))
                    .reshape(n, 4, 4, 4, 4))

    # R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s}
    #              + Gam^l_{i a} Gam^a_{j s} - Gam^l_{j a} Gam^a_{i s}
    # q[n,l,i,j,s] = d_i Gam^l_{j s} + Gam^l_{i a} Gam^a_{j s}
    q = (dgamma.transpose(0, 2, 1, 3, 4)
         + (gamma.reshape(n, 16, 4) @ gamma.reshape(n, 4, 16))
         .reshape(n, 4, 4, 4, 4))
    r_up = (q - q.transpose(0, 1, 3, 2, 4)).transpose(0, 1, 4, 2, 3)
    r_low = (g0 @ r_up.reshape(n, 4, 64)).reshape(n, 4, 4, 4, 4)

    r_fr = _frame_components(r_low, _cholesky_legs(g0))

    ric = np.einsum("ncacb->nab", r_fr)
    scal = np.einsum("naa->n", ric)
    inv_R_full = np.einsum("nabcd,nabcd->n", r_fr, r_fr)
    inv_r = np.einsum("nab,nab->n", ric, ric)
    gbd = (inv_R_full - 4.0 * inv_r + scal * scal) / (32.0 * math.pi ** 2)
    pon = np.einsum("nabcd,nabef,cdef->n", r_fr, r_fr, _levi_civita4(),
                    optimize=_PONTRYAGIN_PATH) / (96.0 * math.pi ** 2)

    return CurvatureBatch(points=pts, h=h_arr, g=g0, ginv=ginv, gamma=gamma,
                          riemann_low=r_low, riemann_frame=r_fr,
                          ricci_frame=ric, scalar=scal, inv_R_full=inv_R_full,
                          inv_R_endo=0.25 * inv_R_full, inv_r=inv_r,
                          inv_s2=scal * scal, gb_density=gbd,
                          pontryagin_density=pon)


def _sample_from_batch(batch: CurvatureBatch, i: int) -> CurvatureSample:
    r = batch.riemann_frame[i]
    bianchi = np.max(np.abs(r + np.einsum("acdb->abcd", r)
                            + np.einsum("adbc->abcd", r)))
    return CurvatureSample(
        point=tuple(float(c) for c in batch.points[i]),
        riemann=r.copy(),
        ricci=batch.ricci_frame[i].copy(),
        scalar=float(batch.scalar[i]),
        inv_R_full=float(batch.inv_R_full[i]),
        inv_R_endo=float(batch.inv_R_endo[i]),
        inv_r=float(batch.inv_r[i]),
        inv_s2=float(batch.inv_s2[i]),
        gb_density=float(batch.gb_density[i]),
        pontryagin_density=float(batch.pontryagin_density[i]),
        bianchi_residual=float(bianchi),
        step=float(batch.h[i]),
    )


def curvature_at(backend: GeometryBackend, x,
                 h: float | None = None) -> CurvatureSample:
    """Curvature sample at one point (step h as in `curvature_batch`)."""
    pt = np.asarray(x, dtype=float).reshape(1, 4)
    return _sample_from_batch(curvature_batch(backend, pt, h), 0)
