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

`_CHUNK` is 256 nodes so that each kernel stage works in cache: at 256
TN-2 nodes the metric stencil block is 256 x 61 x 16 doubles (2 MB, the
size of one core's L2 cache), where 4096-node chunks streamed about 100
MiB of working arrays through memory.  In a scan of 64 to 4096 nodes
per chunk the TN-2 integral was fastest near 256, about 30% faster than
at 4096, and round S4 did not move; below about 128 nodes the fixed cost
of each kernel call starts to show.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing

from .. import _lazy
from ..errors import DomainError, ResourceError
from . import quadrature as quad
from .backends import GeometryBackend, Segment

np = _lazy("numpy")
# the kernel runs only when an integral is computed, not for a cached one
curvature = _lazy("sdlab.geometry.curvature")

_COLS = ("inv_R_full", "inv_R_endo", "inv_r", "inv_s2",
         "gb_density", "pontryagin_density")
_CHUNK = 256  # nodes per curvature_batch call; see the module docstring

MAX_RESOLUTION = 64
CUTOFF_SCALE_MIN = 10.0
CUTOFF_SCALE_MAX = 1000.0


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

    @classmethod
    def from_record(cls, record) -> CurvatureIntegrals:
        """Inverse of `as_dict`.  A record without exactly these fields,
        each of its declared type (a bool is not an int here) and finite
        where it is a float, is a ValueError."""
        types = typing.get_type_hints(cls)
        if not (isinstance(record, dict) and record.keys() == types.keys()
                and all(isinstance(v, types[k]) and type(v) is not bool
                        and (not isinstance(v, float) or math.isfinite(v))
                        for k, v in record.items())):
            raise ValueError("does not hold curvature integrals")
        return cls(**record)


def _columns(backend: GeometryBackend, pts: np.ndarray) -> np.ndarray:
    """The `_COLS` invariants at (n, 4) points, shape (n, 6)."""
    out = np.empty((len(pts), len(_COLS)))
    for i in range(0, len(pts), _CHUNK):
        b = curvature.curvature_batch(backend, pts[i:i + _CHUNK])
        out[i:i + _CHUNK] = np.stack([getattr(b, c) for c in _COLS], axis=1)
    return out


def _integrand(seg: Segment):
    """Weighted `_COLS` at the segment's mesh nodes; `f.nodes` counts the
    nodes evaluated so far."""
    def f(*coords):
        pts, w = seg.embed(*coords)
        f.nodes += len(pts)
        return w[:, None] * _columns(seg.backend, pts)
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
    """A resolution is a positive integer no larger than MAX_RESOLUTION."""
    if not isinstance(resolution, numbers.Integral) or resolution < 1:
        raise DomainError("resolution-positive", f"resolution {resolution!r}")
    if resolution > MAX_RESOLUTION:
        raise DomainError("resolution-cap",
                          f"resolution {resolution} exceeds cap "
                          f"{MAX_RESOLUTION}")


def effective_cutoff(backend: GeometryBackend,
                     cutoff_rho: float | None) -> float | None:
    """The truncation radius an integral over `backend` uses: None if it
    is compact, else `cutoff_rho` within [CUTOFF_SCALE_MIN,
    CUTOFF_SCALE_MAX] x the geometry scale, the lower bound if omitted."""
    if not backend.alf:
        return None
    scale = backend.geometry_scale()
    if cutoff_rho is None:
        return CUTOFF_SCALE_MIN * scale
    if cutoff_rho < CUTOFF_SCALE_MIN * scale - 1e-9:
        raise DomainError("cutoff-too-small", f"cutoff {cutoff_rho} below "
                          f"{CUTOFF_SCALE_MIN}x geometry scale {scale}")
    if cutoff_rho > CUTOFF_SCALE_MAX * scale:
        raise DomainError("cutoff-too-large", f"cutoff {cutoff_rho} above "
                          f"{CUTOFF_SCALE_MAX}x geometry scale {scale}")
    return float(cutoff_rho)


def integrate_invariants(backend: GeometryBackend, resolution: int = 8,
                         cutoff_rho: float | None = None) -> CurvatureIntegrals:
    """Integrate the six curvature invariants over the whole space.

    `resolution` scales the panel count of every mesh; ALF volumes are
    truncated at the `effective_cutoff` of `cutoff_rho`.
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
        I_R_full=float(vals[0]), I_R_endo=float(vals[1]),
        I_r=float(vals[2]), I_s2=float(vals[3]),
        I_gb=float(vals[4]), I_p=float(vals[5]),
        error_estimate=error_estimate, resolution=int(resolution),
        cutoff_rho=cutoff_rho, node_count=sum(f.nodes for f in fs),
        tail_exponent=p_gb)
