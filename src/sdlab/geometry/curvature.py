"""Finite-difference curvature engine.

Fourth-order central differences give the first and second derivatives
of the metric; the Christoffel symbols, the lowered Riemann tensor, its
frame components, the quadratic invariants in both norm conventions, and
the two characteristic densities are assembled from those.  The full
stencil is 113 metric evaluations per point (1 center, 16 axis points,
96 mixed-pair points).  A backend lists in ``cyclic_axes`` the chart
coordinates its metric never reads; the stencil rows offset along one of
them repeat a row that is kept, every derivative along them is exactly
zero, and they are skipped: 61 points when one coordinate is cyclic (the
Taub-NUT and Schwarzschild charts), 1 on the flat torus.  The metric
comes back as component rows (``backends._component_rows``), and one
(20, m) weight table applied to them as a single matmul gives all first
and second derivatives.

Riemann lives on bivectors: in four dimensions it is a symmetric operator
on 2-forms, an (n, 6, 6) matrix R6[I, J] = R_abcd on the pairs I = (a, b),
J = (c, d) of `_PAIRS` (01, 02, 03, 12, 13, 23).  R6 is lowered straight
from d2g and the Christoffel symbols of the first kind G (the textbook
identity in `curvature_batch`), so no derivative of Gam or of g^-1 is
formed.  The frame rotation is W^T R6 W with W = legs ^ legs, the second
exterior power of the Cholesky legs; |Riem|^2 is 4 |R6|^2, Ricci a
(36, 16) +-1 map of R6, and the Pontryagin contraction 8 sum (R6 star) o
R6, where star, the Levi-Civita symbol on pairs, is a (6, 6) signed
permutation.  The 256-component tensors are spread from R6 only when read
(`CurvatureBatch`).  `curvature_batch` evaluates exactly the points it is
given in one vectorized pass, with the point axis last in elementwise
stages; its working arrays grow with the batch (a peak of about 12 KiB
per Taub-NUT point, nearly all of it the metric stencil), so callers with
many points bound the batch themselves: ``integrals._columns`` feeds it
256 points at a time, a size whose arrays stay near one core's L2 cache
(``integrals`` gives the scan that chose it).

Conventions fixed here and relied on everywhere else:

* Riemann sign: R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s} + ...,
  giving scalar curvature +12/a^2 on the round 4-sphere of radius a.
* Orthonormal frames come from the Cholesky factor of the metric
  (F = (L^T)^{-1}), which is orientation-preserving with respect to the
  chart coordinate order; the Levi-Civita symbol below uses that order.
  The inverse metric is F F^T.
* gb_density integrates to the Euler number (1/(8 pi^2)) (|R|^2_endo
  - |ric - (s/4) g|^2) dV; pontryagin_density integrates to the signature
  -(1/(24 pi^2)) tr(R wedge R).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .. import _lazy
from ..errors import ChartError
from .backends import GeometryBackend

np = _lazy("numpy")

_OFFS = (-2.0, -1.0, 1.0, 2.0)
_W1 = (1 / 12, -8 / 12, 8 / 12, -1 / 12)  # d/dx at _OFFS, per unit step
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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


@functools.lru_cache(maxsize=None)
def _levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])   # exactly +-1
    return eps


@functools.lru_cache(maxsize=None)
def _bivector_tables() -> dict:
    """Constant tables of the bivector basis `_PAIRS`, built at first use:
    flat row/column indices of d2 (256, n) and quad (n, 256) and weights
    that assemble R6 (`curvature_batch`), flat entries of legs (n, 16)
    that form W (`_frame_components`), the (36, 16) Ricci map, the Hodge
    star (6, 6), and R_abcd = signs R6[spread] on (16, 16) index pairs."""
    a, b = np.array(_PAIRS).T[:, :, None]
    c, d = a.T, b.T
    at = np.arange(256).reshape(4, 4, 4, 4)
    pair, sign = np.zeros(16, dtype=int), np.zeros(16)  # sign 0 if a = b
    for k, (x, y) in enumerate(_PAIRS):
        pair[4 * x + y] = pair[4 * y + x] = k
        sign[4 * x + y], sign[4 * y + x] = 1.0, -1.0
    spread, signs = 6 * pair[:, None] + pair, sign[:, None] * sign
    basis = (np.eye(36)[:, spread] * signs).reshape(36, 4, 4, 4, 4)
    return {"d2_rows": np.stack([at[a, d, c, b], at[b, d, c, a],
                                 at[a, c, d, b], at[b, c, d, a]]),
            "d2_weights": np.array([0.5, -0.5, -0.5, 0.5]),
            "quad_cols": np.stack([at[d, a, c, b], at[c, a, d, b]]),
            "legs_at": np.stack([4 * a + c, 4 * b + d, 4 * a + d, 4 * b + c]),
            "ricci": np.einsum("kcacb->kab", basis).reshape(36, 16),
            "star": _levi_civita4()[a, b, c, d],
            "spread": spread, "signs": signs}


def _riemann4(r6: np.ndarray) -> np.ndarray:
    """R_abcd (n, 4, 4, 4, 4) spread from its (n, 6, 6) bivector form."""
    t = _bivector_tables()
    return (r6.reshape(-1, 36)[:, t["spread"]] * t["signs"]).reshape(
        -1, 4, 4, 4, 4)


def _frame_components(r6: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """The (n, 6, 6) bivector form of R on the columns of `legs`: W^T R6 W
    with W = legs ^ legs, W[(ij), (ab)] = legs_ia legs_jb - legs_ib legs_ja."""
    x = legs.reshape(len(legs), 16)[:, _bivector_tables()["legs_at"]]
    w = x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3]
    return np.swapaxes(w, 1, 2) @ r6 @ w


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

    Riemann is held as (n, 6, 6) bivector matrices, in chart components
    (``bivector_low``) and in the Cholesky frame (``bivector_frame``);
    ``riemann_low`` and ``riemann_frame`` spread them to (n, 4, 4, 4, 4)
    on each read.  Every derived invariant has its home here:
    ``inv_R_endo`` is inv_R_full / 4 and ``inv_s2`` is scalar^2."""

    __slots__ = ("points", "h", "g", "ginv", "gamma", "bivector_low",
                 "bivector_frame", "ricci_frame", "scalar", "inv_R_full",
                 "inv_R_endo", "inv_r", "inv_s2", "gb_density",
                 "pontryagin_density")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    riemann_low = property(lambda self: _riemann4(self.bivector_low))
    riemann_frame = property(lambda self: _riemann4(self.bivector_frame))


def _metric_derivatives(backend: GeometryBackend, pts: np.ndarray, h: np.ndarray):
    """The metric (n, 4, 4) at the points and its derivatives with the point
    axis last: d1[i, j, k] = d_k g_ij and d2[i, j, k, l] = d_k d_l g_ij."""
    n = pts.shape[0]
    offsets, weights = _stencil(backend.cyclic_axes)
    m = len(offsets)
    # coordinate-major points (4, m, n) in, component rows (16, m, n) out
    g = backend.metric((pts.T[:, None] + offsets.T[:, :, None] * h)
                       .reshape(4, m * n).T)
    g_rel = g.reshape(m * n, 16).T.reshape(16, m, n)
    g0 = g_rel[:, 0].copy()
    # stencil weights sum to zero, so subtracting the centre value changes
    # nothing analytically but kills the O(|g|/h^2) rounding floor
    g_rel -= g0[:, None]
    d = weights @ g_rel  # (16, 20, n): d1 rows, then d2 rows
    del g, g_rel  # a lower peak: glibc trims and refaults the heap less
    d1 = (d[:, :4] / h).reshape(4, 4, 4, n)
    d2 = (d[:, 4:] / (h * h)).reshape(4, 4, 4, 4, n)
    return np.ascontiguousarray(g0.T).reshape(n, 4, 4), d1, d2


def curvature_batch(backend: GeometryBackend, pts: np.ndarray,
                    h: np.ndarray | float | None = None) -> CurvatureBatch:
    """Assemble curvature for (n, 4) points in one batch; h defaults to
    1e-3 x the step scale of ``backend.chart_scales``, and a point whose
    clearance is at most 2.5 h (given or default) raises ChartError with
    the slug ``backend.excluded``.  The metric is evaluated on the stencil
    rows with zero offset along ``backend.cyclic_axes``: 113 per point in
    general, 61 when one coordinate is cyclic.  Memory grows with n (that
    many metric evaluations per point; see the module docstring)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    step_scale, clearance = backend.chart_scales(pts)
    if h is None:
        h_arr = 1e-3 * step_scale
    else:
        h_arr = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    if np.any(clearance <= 2.5 * h_arr):
        raise ChartError(backend.excluded, "a point lies within 2.5 steps of "
                         f"the excluded set (least clearance "
                         f"{np.min(clearance):.3e})")

    g0, d1, d2 = _metric_derivatives(backend, pts, h_arr)
    legs = _cholesky_legs(g0)
    ginv = legs @ np.swapaxes(legs, 1, 2)       # g^-1 = F F^T

    # first kind: G[e,i,j] = (d_i g_ej + d_j g_ei - d_e g_ij) / 2, formed
    # with the point axis last and used as an (n, 4, 16) view
    first = 0.5 * (d1.transpose(0, 2, 1, 3) + d1 - d1.transpose(2, 0, 1, 3))
    first = first.reshape(64, n).T.reshape(n, 4, 16)
    gamma = (ginv @ first).reshape(n, 4, 4, 4)

    # R_abcd = (d_c d_b g_ad - d_c d_a g_bd - d_d d_b g_ac + d_d d_a g_bc)/2
    #          + G_{l,da} Gam^l_cb - G_{l,ca} Gam^l_db
    # on bivector pairs I = (a, b), J = (c, d): the d2g terms are four rows
    # of d2 (point axis last) gathered at once, the Gam terms two columns of
    # quad[p,q,r,s] = G_{l,pq} Gam^l_rs, one (16, 4) @ (4, 16) per point
    t = _bivector_tables()
    quad = (np.swapaxes(first, 1, 2) @ gamma.reshape(n, 4, 16)).reshape(n, 256)
    quad = quad[:, t["quad_cols"]]
    hess = t["d2_weights"] @ d2.reshape(256, n)[t["d2_rows"]].reshape(4, -1)
    r6 = hess.reshape(36, n).T.reshape(n, 6, 6) + (quad[:, 0] - quad[:, 1])
    r6_fr = _frame_components(r6, legs)

    flat = r6_fr.reshape(n, 36)
    ric = (flat @ t["ricci"]).reshape(n, 4, 4)
    scal = np.einsum("naa->n", ric)
    inv_R_full = 4.0 * np.einsum("ni,ni->n", flat, flat)
    inv_r = np.einsum("nab,nab->n", ric, ric)
    gbd = (inv_R_full - 4.0 * inv_r + scal * scal) / (32.0 * math.pi ** 2)
    pon = 8.0 * np.einsum("nij,nij->n", r6_fr @ t["star"],
                          r6_fr) / (96.0 * math.pi ** 2)

    return CurvatureBatch(points=pts, h=h_arr, g=g0, ginv=ginv, gamma=gamma,
                          bivector_low=r6, bivector_frame=r6_fr,
                          ricci_frame=ric, scalar=scal, inv_R_full=inv_R_full,
                          inv_R_endo=0.25 * inv_R_full, inv_r=inv_r,
                          inv_s2=scal * scal, gb_density=gbd,
                          pontryagin_density=pon)


def _sample_from_batch(batch: CurvatureBatch, i: int) -> CurvatureSample:
    r6 = batch.bivector_frame[i]
    # first Bianchi identity: R6 holds the antisymmetry within each pair
    # and is symmetric to rounding, so the cyclic sum R_abcd + R_acdb +
    # R_adbc can be nonzero only on four distinct indices, where it is
    # +-(R_0123 - R_0213 + R_0312)
    bianchi = abs(r6[0, 5] - r6[1, 4] + r6[2, 3])
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
        bianchi_residual=float(bianchi),
        step=float(batch.h[i]),
    )


def curvature_at(backend: GeometryBackend, x,
                 h: float | None = None) -> CurvatureSample:
    """Curvature sample at one point (step h as in `curvature_batch`)."""
    pt = np.asarray(x, dtype=float).reshape(1, 4)
    return _sample_from_batch(curvature_batch(backend, pt, h), 0)
