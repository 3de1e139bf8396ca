"""Volume integrals of curvature invariants over the metric backends.

Every backend states its own symmetry reduction (``reduction`` in
``backends``): the flat torus is a single sample times the volume, the
round sphere and the single-NUT and Schwarzschild spaces reduce to one
radial coordinate, and the 2-NUT space to an axisymmetric half-plane.
`integrate_invariants` treats every reduction the same way: composite
Gauss-Legendre on each segment's tensor mesh, refined once for the error
estimate; infinite ALF volumes are truncated at `cutoff_rho` and
finished with a power-law tail fitted on the last segment.

The integrand, `_columns`, is where the integration path meets the
curvature kernel: it evaluates `_CHUNK` nodes per `curvature_batch` call
and keeps only the six invariant columns of each chunk, so peak memory
does not grow with the mesh.  Sums are numpy pairwise reductions in
fixed node order, so values do not depend on evaluation chunking.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import DomainError, ResourceError
from . import quadrature as quad
from .backends import GeometryBackend, Segment
from .curvature import curvature_batch

_COLS = ("inv_R_full", "inv_R_endo", "inv_r", "inv_s2",
         "gb_density", "pontryagin_density")
_CHUNK = 4096  # nodes per curvature_batch call

MAX_RESOLUTION = 64
CUTOFF_SCALE_MIN = 10.0


@dataclasses.dataclass(frozen=True)
class CurvatureIntegrals:
    """Integrated curvature invariants with a combined error estimate."""

    I_R_full: float
    I_R_endo: float
    I_r: float
    I_s2: float
    I_gb: float
    I_p: float
    error_estimate: float
    resolution: int
    cutoff_rho: float | None
    node_count: int
    tail_exponent: float | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _columns(backend: GeometryBackend, pts: np.ndarray) -> np.ndarray:
    """The `_COLS` invariants at (n, 4) points, shape (n, 6)."""
    out = np.empty((len(pts), len(_COLS)))
    for i in range(0, len(pts), _CHUNK):
        b = curvature_batch(backend, pts[i:i + _CHUNK])
        out[i:i + _CHUNK] = np.stack([getattr(b, c) for c in _COLS], axis=1)
    return out


def _integrand(seg: Segment):
    def f(*coords):
        pts, w = seg.embed(*coords)
        return w[:, None] * _columns(seg.backend, pts)
    return f


def _node_counts(seg: Segment) -> list[int]:
    return [seg.order * (len(e) - 1) for e in seg.edges]


def _tail(window_f, cutoff: float):
    """Fit per-column power tails on the outer window [0.62, 0.98]*cutoff."""
    r = np.geomspace(0.62 * cutoff, 0.98 * cutoff, 12)
    W = window_f(r)
    floor = 1e-6 * float(np.max(np.abs(W)))
    tails = np.zeros(6)
    terrs = np.zeros(6)
    p_gb = None
    for j in range(6):
        t, te, p = quad.fit_power_tail(r, W[:, j], cutoff, floor=floor)
        tails[j] = t
        terrs[j] = te
        if j == 4:
            p_gb = p
    return tails, terrs, p_gb, len(r)


def integrate_invariants(backend: GeometryBackend, resolution: int = 8,
                         cutoff_rho: float | None = None) -> CurvatureIntegrals:
    """Integrate the six curvature invariants over the whole space.

    `resolution` scales the panel count of every mesh.  ALF backends
    need `cutoff_rho` at least 10x the geometry scale (defaulted to
    exactly that when omitted); compact backends ignore it.
    """
    if not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise DomainError("resolution-positive", f"resolution {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise DomainError("resolution-cap",
                          f"resolution {resolution} exceeds cap "
                          f"{MAX_RESOLUTION}")
    if not callable(getattr(backend, "reduction", None)):
        raise DomainError("backend-unknown", type(backend).__name__)
    if backend.alf:
        min_cut = CUTOFF_SCALE_MIN * backend.geometry_scale()
        if cutoff_rho is None:
            cutoff_rho = min_cut
        if cutoff_rho < min_cut - 1e-9:
            raise DomainError(
                "cutoff-too-small",
                f"cutoff {cutoff_rho} below {CUTOFF_SCALE_MIN}x geometry "
                f"scale {backend.geometry_scale()}")
    else:
        cutoff_rho = None

    segments, tail_at = backend.reduction(resolution, cutoff_rho)
    vals, errs = np.sum([quad.integrate_refined(_integrand(seg), seg.edges,
                                                seg.order)
                         for seg in segments], axis=0)
    nodes = 0
    for seg in segments:
        # coarse mesh plus the refined one (every axis split in two)
        n = math.prod(_node_counts(seg))
        nodes += n + n * 2 ** len(seg.edges) if seg.edges else n
    p_gb = None
    if tail_at is not None:
        seg = segments[-1]
        tails, terrs, p_gb, ntail = _tail(
            lambda r: quad.first_axis_profile(_integrand(seg), r, seg.edges,
                                              seg.order), tail_at)
        vals = vals + tails
        errs = errs + terrs
        nodes += ntail * math.prod(_node_counts(seg)[1:])

    rel = errs / np.maximum(1.0, np.abs(vals))
    error_estimate = float(np.max(rel))
    if error_estimate > 0.1:
        raise ResourceError(
            "quadrature-non-convergence",
            f"combined error estimate {error_estimate:.2e} at resolution "
            f"{resolution}; worst column {_COLS[int(np.argmax(rel))]}")
    return CurvatureIntegrals(
        I_R_full=float(vals[0]), I_R_endo=float(vals[1]),
        I_r=float(vals[2]), I_s2=float(vals[3]),
        I_gb=float(vals[4]), I_p=float(vals[5]),
        error_estimate=error_estimate, resolution=int(resolution),
        cutoff_rho=cutoff_rho, node_count=int(nodes),
        tail_exponent=p_gb)
