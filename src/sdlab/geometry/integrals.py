"""Volume integrals of curvature invariants over the metric backends.

Every backend states its own symmetry reduction (``reduction`` in
``backends``): the flat torus is one Gauss node carrying the volume, the
round sphere and the single-NUT and Schwarzschild spaces reduce to one
radial coordinate, and the 2-NUT space to an axisymmetric half-plane:
a prolate spheroidal ball about its centres inside a polar shell.
`integrate_invariants` treats every reduction the same way: composite
Gauss-Legendre on each segment's tensor mesh, refined once for the error
estimate; infinite ALF volumes are truncated at `cutoff_rho` and
finished with a power-law tail fitted on the last segment.

The integrand is where the integration path meets the curvature kernel.
It gets blocks of whole mesh rows (`quadrature._BLOCK`, 256 nodes) and
evaluates each node in the string gauge `facing_away` gives it
(`GeometryBackend.gauges`), one `_columns` call a gauge; only the
two-centre chart puts nodes of two gauges in one block.  `_columns`
splits its nodes into kernel calls of at most `_CHUNK_POINTS` = 256 x 61
metric evaluations (256 Taub-NUT or Schwarzschild nodes, 138 on round
S4).  One call's 2 MB stencil block (one core's L2 cache) sets the peak
memory, and 256 nodes a call was fastest on TN-2 in a scan of 64 to
4096.  The sums do not depend on the blocks, and a node's invariants do
not depend on its call (see `curvature`).
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .. import _lazy
from ..errors import DomainError, ResourceError
from . import quadrature as quad
from .backends import GeometryBackend, Segment

np = _lazy("numpy")
# the kernel runs only when an integral is computed, not for a cached one
curvature = _lazy("sdlab.geometry.curvature")

_COLS = ("inv_R_full", "inv_R_endo", "inv_r", "inv_s2",
         "gb_density", "pontryagin_density")
_CHUNK_POINTS = 256 * 61  # metric evaluations per curvature_batch call

MAX_RESOLUTION = 64
CUTOFF_SCALE_MIN = 10.0
CUTOFF_SCALE_MAX = 1000.0


# each field of `CurvatureIntegrals`, in order, and the types it may take
_FIELD_TYPES = {
    "I_R_full": float, "I_R_endo": float, "I_r": float, "I_s2": float,
    "I_gb": float, "I_p": float, "error_estimate": float, "resolution": int,
    "cutoff_rho": (float, type(None)), "node_count": int,
    "tail_exponent": (float, type(None))}


class CurvatureIntegrals(namedtuple("CurvatureIntegrals", _FIELD_TYPES,
                                    defaults=(None,))):
    """Integrated curvature invariants with a combined error estimate."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_record(cls, record) -> CurvatureIntegrals:
        """Inverse of `as_dict`.  A record without exactly these fields,
        each of a type `_FIELD_TYPES` gives it (a bool is not an int here)
        and finite where it is a float, is a ValueError."""
        if not (isinstance(record, dict)
                and record.keys() == _FIELD_TYPES.keys()
                and all(isinstance(v, _FIELD_TYPES[k]) and type(v) is not bool
                        and (not isinstance(v, float) or math.isfinite(v))
                        for k, v in record.items())):
            raise ValueError("does not hold curvature integrals")
        return cls(**record)


def _columns(backend: GeometryBackend, pts: np.ndarray) -> np.ndarray:
    """The `_COLS` invariants at (n, 4) points, shape (n, 6), in kernel
    calls of at most `_CHUNK_POINTS` metric evaluations."""
    out = np.empty((len(pts), len(_COLS)))
    step = _CHUNK_POINTS // curvature.stencil_size(backend)
    for i in range(0, len(pts), step):
        b = curvature.curvature_batch(backend, pts[i:i + step])
        out[i:i + step] = np.stack([getattr(b, c) for c in _COLS], axis=1)
    return out


def _integrand(seg: Segment):
    """Weighted `_COLS` at the segment's mesh nodes, each node in the gauge
    `facing_away` gives it, one `_columns` call a gauge; `f.nodes` counts
    the nodes evaluated so far."""
    def f(*coords):
        pts, w = seg.embed(*coords)
        f.nodes += len(pts)
        out = np.empty((len(pts), len(_COLS)))
        for gauge, rows in seg.backend.gauges(pts):
            out[rows] = _columns(gauge, pts[rows])
        return w[:, None] * out
    f.nodes = 0
    return f


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
    return tails, terrs, p_gb


def check_resolution(resolution) -> None:
    """A resolution is a positive integer no larger than MAX_RESOLUTION;
    a bool is not one, although Python counts it as an integer."""
    if (not isinstance(resolution, numbers.Integral)
            or isinstance(resolution, bool) or resolution < 1):
        raise DomainError("resolution-positive", f"resolution {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise DomainError("resolution-cap",
                          f"resolution {resolution} exceeds cap "
                          f"{MAX_RESOLUTION}")


def alf_reach(backend: GeometryBackend) -> float:
    """Farthest cutoff, rho or curvature point an ALF backend admits."""
    return CUTOFF_SCALE_MAX * backend.geometry_scale()


def effective_cutoff(backend: GeometryBackend,
                     cutoff_rho: float | None) -> float | None:
    """The truncation radius an integral over `backend` uses: None if it
    is compact, else `cutoff_rho` within CUTOFF_SCALE_MIN x the geometry
    scale and the `alf_reach`, the lower bound if omitted."""
    if not backend.alf:
        return None
    scale = backend.geometry_scale()
    if cutoff_rho is None:
        return CUTOFF_SCALE_MIN * scale
    if cutoff_rho < CUTOFF_SCALE_MIN * scale - 1e-9:
        raise DomainError("cutoff-too-small", f"cutoff {cutoff_rho} below "
                          f"{CUTOFF_SCALE_MIN}x geometry scale {scale}")
    if not cutoff_rho <= alf_reach(backend):     # NaN fails too
        raise DomainError("cutoff-too-large", f"cutoff {cutoff_rho} above the "
                          f"reach {alf_reach(backend)} of the truncated space")
    return float(cutoff_rho)


def integrate_invariants(backend: GeometryBackend, resolution: int,
                         cutoff_rho: float | None = None) -> CurvatureIntegrals:
    """Integrate the six curvature invariants over the whole space.

    `resolution` scales the panel count of every mesh but the flat torus's
    one node; ALF volumes are truncated at the `effective_cutoff` of
    `cutoff_rho`.
    """
    check_resolution(resolution)
    if not callable(getattr(backend, "reduction", None)):
        raise DomainError("backend-unknown", type(backend).__name__)
    # run the kernel's module before the mesh loads numpy: compiled on top
    # of numpy's heap, it raised a cache miss's peak RSS by 0.1 to 0.5 MB
    curvature.curvature_batch  # the attribute access runs the module
    cutoff_rho = effective_cutoff(backend, cutoff_rho)
    segments, tail_at = backend.reduction(resolution, cutoff_rho)
    fs = [_integrand(seg) for seg in segments]
    vals, errs = np.sum([quad.integrate_refined(f, seg.edges, seg.order)
                         for f, seg in zip(fs, segments)], axis=0)
    p_gb = None
    if tail_at is not None:
        seg = segments[-1]
        tails, terrs, p_gb = _tail(
            lambda r: quad.first_axis_profile(fs[-1], r, seg.edges,
                                              seg.order), tail_at)
        vals = vals + tails
        errs = errs + terrs

    rel = errs / np.maximum(1.0, np.abs(vals))
    error_estimate = float(np.max(rel))
    if not error_estimate <= 0.1:     # NaN fails too
        raise ResourceError(
            "quadrature-non-convergence",
            f"combined error estimate {error_estimate:.2e} at resolution "
            f"{resolution}; worst column {_COLS[int(np.argmax(rel))]}")
    return CurvatureIntegrals(
        *map(float, vals), error_estimate=error_estimate,
        resolution=int(resolution),
        cutoff_rho=cutoff_rho, node_count=sum(f.nodes for f in fs),
        tail_exponent=p_gb)
