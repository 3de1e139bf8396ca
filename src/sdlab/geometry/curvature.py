"""Finite-difference curvature engine.

Fourth-order central differences give the first and second derivatives
of the metric; the Christoffel symbols, the lowered Riemann tensor, its
frame components, the quadratic invariants in both norm conventions, and
the two characteristic densities are assembled from those.  The full
stencil is 113 metric evaluations per point (1 center, 16 axis points,
96 mixed-pair points).  A backend lists in ``cyclic_axes`` the chart
coordinates its metric never reads; every derivative along them is
exactly zero, and `_stencil` builds no row offset along them: 61 points
when one coordinate is cyclic (the Taub-NUT and Schwarzschild charts), 1
on the flat torus.  The metric comes back as component rows
(``backends._component_rows``).  A first derivative is
8 (g(h) - g(-h)) - (g(2h) - g(-2h)) over 12 h, and a mixed one is that
difference of the differences along the other axis.  A point's bits
depend on that point alone, whatever call holds it: every step is
fixed-order elementwise arithmetic or a product of one point's small
matrices, never a product whose shape holds the point count.

Riemann lives on bivectors: in four dimensions it is a symmetric operator
on 2-forms, an (n, 6, 6) matrix R6[I, J] = R_abcd on the pairs I = (a, b),
J = (c, d) of `_PAIRS` (01, 02, 03, 12, 13, 23).  R6 is lowered straight
from d2g and the Christoffel symbols of the first kind G (the textbook
identity in `curvature_batch`), so no derivative of Gam or of g^-1 is
formed.  The frame rotation is W^T R6 W with W = legs ^ legs, the second
exterior power of the Cholesky legs; |Riem|^2 is 4 |R6|^2, Ricci a
(36, 16) +-1 map of each point's R6, and the Pontryagin contraction
8 sum (R6 star) o R6, where star, the Levi-Civita symbol on pairs, is a
signed (6, 6) antidiagonal; no four-index Riemann is formed.
`curvature_batch` evaluates exactly the points it is given in one
vectorized pass, with the point axis last in elementwise stages; its
working arrays grow with the batch (about 12 KiB per Taub-NUT point at
peak, nearly all of it the metric stencil), so callers with many points
bound the batch themselves: ``integrals._columns`` feeds it 256 x 61
stencil points at most, a size whose arrays stay near one core's L2
cache (see ``integrals``).

Conventions fixed here and relied on everywhere else:

* Riemann sign: R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s} + ...,
  giving scalar curvature +12/a^2 on the round 4-sphere of radius a.
* Orthonormal frames come from the Cholesky factor of the metric
  (F = (L^T)^{-1}), which is orientation-preserving with respect to the
  chart coordinate order; the Hodge star below uses that order.
  The inverse metric is F F^T.
* gb_density integrates to the Euler number (1/(8 pi^2)) (|R|^2_endo
  - |ric - (s/4) g|^2) dV; pontryagin_density integrates to the signature
  -(1/(24 pi^2)) tr(R wedge R).
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .. import _lazy
from ..errors import ChartError
from .backends import GeometryBackend

np = _lazy("numpy")

_OFFS = (-2.0, -1.0, 1.0, 2.0)
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@functools.lru_cache(maxsize=None)
def _stencil(cyclic_axes: tuple[int, ...]):
    """Offset table (m, 4) per unit step, the axes outside `cyclic_axes`
    and their pairs (a, b) as two index arrays.  Rows: the centre, the
    points `_OFFS` on each of those axes, and a 4 x 4 block on each pair,
    row 4i + j at offset _OFFS[i] along a and _OFFS[j] along b."""
    axes = [d for d in range(4) if d not in cyclic_axes]
    pairs = np.array(list(itertools.combinations(axes, 2)), dtype=int)
    base = 1 + 4 * len(axes)            # first row of the pair blocks
    offsets = np.zeros((base + 16 * len(pairs), 4))
    for k, d in enumerate(axes):
        offsets[1 + 4 * k:5 + 4 * k, d] = _OFFS
    for p, (a, b) in enumerate(pairs):
        rows = slice(base + 16 * p, base + 16 * (p + 1))
        offsets[rows, a] = np.repeat(_OFFS, 4)
        offsets[rows, b] = np.tile(_OFFS, 4)
    return offsets, np.array(axes, dtype=int), pairs.reshape(-1, 2).T


def stencil_size(backend: GeometryBackend) -> int:
    """Metric evaluations per point of a `curvature_batch` on `backend`."""
    return len(_stencil(backend.cyclic_axes)[0])


def _cholesky_legs(gram: np.ndarray) -> np.ndarray:
    """(L^T)^-1 for the Cholesky factor L of each Gram matrix: it maps the
    vectors behind the Gram matrix to their Gram-Schmidt legs, in order."""
    return np.linalg.inv(np.swapaxes(np.linalg.cholesky(gram), 1, 2))


@functools.lru_cache(maxsize=None)
def _bivector_tables() -> dict:
    """Constant tables of the bivector basis `_PAIRS`, built at first use:
    flat row/column indices of d2 (256, n) and quad (n, 256) that
    assemble R6 (`curvature_batch`), flat entries of legs (n, 16)
    that form W (`_frame_components`), the (36, 16) Ricci map and the
    Hodge star (6, 6), star[I, J] = eps_abcd for I = (a, b), J = (c, d):
    the complementary pair J = 5 - I, signed by the parity of abcd."""
    a, b = np.array(_PAIRS).T[:, :, None]
    c, d = a.T, b.T
    at = np.arange(256).reshape(4, 4, 4, 4)
    # R_abcd = signs R6[spread] on (16, 16) index pairs, sign 0 if a = b
    pair, sign = np.zeros(16, dtype=int), np.zeros(16)
    for k, (x, y) in enumerate(_PAIRS):
        pair[4 * x + y] = pair[4 * y + x] = k
        sign[4 * x + y], sign[4 * y + x] = 1.0, -1.0
    spread, signs = 6 * pair[:, None] + pair, sign[:, None] * sign
    basis = (np.eye(36)[:, spread] * signs).reshape(36, 4, 4, 4, 4)
    return {"d2_rows": np.stack([at[a, d, c, b], at[b, d, c, a],
                                 at[a, c, d, b], at[b, c, d, a]]),
            "quad_cols": np.stack([at[d, a, c, b], at[c, a, d, b]]),
            "legs_at": np.stack([4 * a + c, 4 * b + d, 4 * a + d, 4 * b + c]),
            "ricci": np.einsum("kcacb->kab", basis).reshape(36, 16),
            "star": np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[::-1].copy()}


def _frame_components(r6: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """The (n, 6, 6) bivector form of R on the columns of `legs`: W^T R6 W
    with W = legs ^ legs, W[(ij), (ab)] = legs_ia legs_jb - legs_ib legs_ja."""
    x = legs.reshape(len(legs), 16)[:, _bivector_tables()["legs_at"]]
    w = x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3]
    return np.swapaxes(w, 1, 2) @ r6 @ w


class CurvatureSample(namedtuple(
        "CurvatureSample", "point scalar inv_R_full inv_R_endo inv_r inv_s2 "
        "gb_density pontryagin_density bianchi_residual step")):
    """The invariants at one chart `point`, a 4-tuple."""

    __slots__ = ()


# the batch invariants a sample copies, in the order of its fields
_SAMPLED = ("scalar", "inv_R_full", "inv_R_endo", "inv_r", "inv_s2",
            "gb_density", "pontryagin_density")


class CurvatureBatch(namedtuple("CurvatureBatch", "points h g ginv gamma "
        "bivector_low bivector_frame scalar inv_R_full inv_R_endo inv_r "
        "inv_s2 gb_density pontryagin_density")):
    """Raw assembled geometry for a batch of points (internal plumbing).

    Riemann is held as (n, 6, 6) bivector matrices, in chart components
    (``bivector_low``) and in the Cholesky frame (``bivector_frame``).
    Every derived invariant has its home here: ``inv_R_endo`` is
    inv_R_full / 4 and ``inv_s2`` is scalar^2."""

    __slots__ = ()


def _difference(v: np.ndarray) -> np.ndarray:
    """12 x the fourth-order first difference of the values `v` holds at
    `_OFFS` along its second-last axis, in unit steps: 8 (v(1) - v(-1)) -
    (v(2) - v(-2)).  Each inner difference is of two nearby values, so it
    is exact."""
    d = v[..., 2, :] - v[..., 1, :]
    d *= 8.0
    d -= v[..., 3, :] - v[..., 0, :]
    return d


def _metric_derivatives(backend: GeometryBackend, pts: np.ndarray, h: np.ndarray):
    """The metric (n, 4, 4) at the points and its derivatives with the point
    axis last: d1[i, j, k] = d_k g_ij and d2[i, j, k, l] = d_k d_l g_ij.
    Each derivative is fixed-order elementwise arithmetic on one point's
    stencil values, taken in that point's gauge, so its bits do not
    depend on the other points."""
    n = pts.shape[0]
    offsets, axes, (a, b) = _stencil(backend.cyclic_axes)
    m, k = len(offsets), len(axes)
    # coordinate-major points (4, m, n) in, row i of node i % n and in its
    # gauge; component rows (16, m, n) out
    g = backend.metric((pts.T[:, None] + offsets.T[:, :, None] * h)
                       .reshape(4, m * n).T, pts)
    g = g.reshape(m * n, 16).T.reshape(16, m, n)
    h12 = 12.0 * h
    # a mixed derivative is the first difference, along a, of the first
    # differences along b
    mixed = _difference(_difference(
        g[:, 1 + 4 * k:].reshape(16, len(a), 4, 4, n))) / (h12 * h12)
    # subtracting the centre value (exact, as for any two nearby values)
    # kills the O(|g|/h^2) rounding floor of the second differences
    on_axes = g[:, 1:1 + 4 * k].reshape(16, k, 4, n) - g[:, 0, None, None]
    first = _difference(on_axes) / h12
    diag = (16.0 * (on_axes[..., 1, :] + on_axes[..., 2, :])
            - (on_axes[..., 0, :] + on_axes[..., 3, :])) / (h12 * h)
    g0 = np.ascontiguousarray(g[:, 0].T).reshape(n, 4, 4)
    del g, on_axes  # a lower peak: glibc trims and refaults the heap less
    d1, d2 = np.zeros((16, 4, n)), np.zeros((16, 4, 4, n))
    d1[:, axes] = first
    d2[:, axes, axes] = diag
    d2[:, a, b] = d2[:, b, a] = mixed    # each mixed row and its twin
    return g0, d1.reshape(4, 4, 4, n), d2.reshape(4, 4, 4, 4, n)


def curvature_batch(backend: GeometryBackend, pts: np.ndarray) -> CurvatureBatch:
    """Assemble curvature for (n, 4) points in one batch, each in its own
    gauge (``GeometryBackend.metric``).  The step h is 1e-3 x the step
    scale of ``backend.chart_scales``; a point whose clearance is at most
    2.5 h raises ChartError with the slug ``backend.excluded``.  The metric
    is evaluated on `_stencil` (113 points per point in general, 61 when
    one coordinate is cyclic), so memory grows with n (see the module
    docstring)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[0]
    step_scale, clearance = backend.chart_scales(pts)
    h = 1e-3 * step_scale
    if np.any(clearance <= 2.5 * h):
        raise ChartError(backend.excluded, "a point lies within 2.5 steps of "
                         f"the excluded set (least clearance "
                         f"{np.min(clearance):.3e})")

    g0, d1, d2 = _metric_derivatives(backend, pts, h)
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
    d2g = d2.reshape(256, n)[t["d2_rows"]]
    hess = 0.5 * ((d2g[0] - d2g[1]) + (d2g[3] - d2g[2]))
    r6 = hess.reshape(36, n).T.reshape(n, 6, 6) + (quad[:, 0] - quad[:, 1])
    r6_fr = _frame_components(r6, legs)

    flat = r6_fr.reshape(n, 36)
    ric = (flat[:, None] @ t["ricci"]).reshape(n, 4, 4)
    scal = np.einsum("naa->n", ric)
    inv_R_full = 4.0 * np.einsum("ni,ni->n", flat, flat)
    inv_r = np.einsum("nab,nab->n", ric, ric)
    gbd = (inv_R_full - 4.0 * inv_r + scal * scal) / (32.0 * math.pi ** 2)
    pon = 8.0 * np.einsum("nij,nij->n", r6_fr @ t["star"],
                          r6_fr) / (96.0 * math.pi ** 2)

    return CurvatureBatch(points=pts, h=h, g=g0, ginv=ginv, gamma=gamma,
                          bivector_low=r6, bivector_frame=r6_fr, scalar=scal,
                          inv_R_full=inv_R_full, inv_R_endo=0.25 * inv_R_full,
                          inv_r=inv_r, inv_s2=scal * scal, gb_density=gbd,
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
        **{f: float(getattr(batch, f)[i]) for f in _SAMPLED},
        bianchi_residual=float(bianchi), step=float(batch.h[i]))


def curvature_at(backend: GeometryBackend, x) -> CurvatureSample:
    """Curvature sample at one chart point."""
    pt = np.asarray(x, dtype=float).reshape(1, 4)
    return _sample_from_batch(curvature_batch(backend, pt), 0)
