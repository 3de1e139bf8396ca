"""Composite Gauss-Legendre panels with doubled-mesh error estimates.

Nodes are always interior to their panels, so integrands may be singular
(but integrable) at panel edges.  Error estimates come from comparing a
mesh against the same mesh with every panel split in half.  Power-law
tails extrapolate decaying radial integrands past a finite cutoff.
Tensor meshes run in blocks of rows, so a block sets peak memory.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .. import _lazy
from ..errors import AccuracyError, DomainError

np = _lazy("numpy")
_BLOCK = 256  # nodes per call of an integrand: one curvature kernel chunk


def _legval(x, c):
    """The Legendre series `c` at `x` by numpy's Clenshaw loop."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """`numpy.polynomial.legendre.leggauss(order)` bit for bit, in its
    steps, without importing `numpy.polynomial` (11 modules, 4-5 ms):
    eigenvalues of the scaled companion matrix of P_n, one Newton step,
    then weights from P_n' P_(n-1), symmetrised and scaled to sum to 2."""
    k = np.arange(order)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.append(np.zeros(order), 1.0)     # P_n in the Legendre basis
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...: numpy's legder
    df = _legval(x, np.where((order - 1 - k) % 2 == 0, 2.0 * k + 1, 0.0))
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    return (x - x[::-1]) / 2, w


def panel_rule(edges: np.ndarray, order: int):
    """Nodes and weights of an `order`-point Gauss rule on each panel."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("panel-edges", "edges must be strictly increasing")
    x0, w0 = _leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def split_edges(edges: np.ndarray) -> np.ndarray:
    """Insert the midpoint of every panel."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[1:] + edges[:-1])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def uniform_edges(a: float, b: float, panels: int) -> np.ndarray:
    return np.linspace(a, b, panels + 1)


def graded_edges(anchor: float, far: float, panels: int,
                 first_width: float) -> np.ndarray:
    """Edges from `anchor` toward `far` whose widths grow geometrically
    starting at `first_width`, which one panel cannot honour.  Works in
    either direction."""
    span = abs(far - anchor)
    if span <= 0 or first_width <= 0 or panels < 1:
        raise DomainError("graded-edges", "degenerate grading request")
    if first_width * panels >= span or panels == 1:
        t = np.linspace(0.0, span, panels + 1)
    else:
        # solve first_width * (q^panels - 1)/(q - 1) = span for ratio q.
        # The last width is below the span, so q^(panels - 1) is below
        # span/first_width; the bracket keeps 10 as its least upper end,
        # where a smaller one can land a bit away.  Bisect until it stalls
        q_lo = 1.0 + 1e-12
        q_hi = max(10.0, (span / first_width) ** (1.0 / (panels - 1)))
        while q_lo < 0.5 * (q_lo + q_hi) < q_hi:
            q = 0.5 * (q_lo + q_hi)
            total = first_width * (q ** panels - 1.0) / (q - 1.0)
            if total < span:
                q_lo = q
            else:
                q_hi = q
        widths = first_width * q_lo ** np.arange(panels)
        widths *= span / widths.sum()
        t = np.concatenate([[0.0], np.cumsum(widths)])
    sign = 1.0 if far > anchor else -1.0
    edges = anchor + sign * t
    return edges if sign > 0 else edges[::-1].copy()


def _tensor_sum(f, axes, weights) -> np.ndarray:
    """`f` on the tensor grid of the node arrays `axes`, summed against
    `weights` over the trailing axes, last axis first.

    `f` takes one flattened coordinate array per axis (first axis
    slowest) and returns values (n,) or (n, k).  It sees one block of
    whole first-axis rows at a time (`_BLOCK` nodes, or one longer row);
    every sum runs as on the whole mesh, so none depends on `_BLOCK`.
    """
    shape = [len(x) for x in axes[1:]]
    row = math.prod(shape)
    rows = max(1, _BLOCK // row)
    # other axes' coordinates for a whole block: one meshgrid, not one a block
    others = [np.tile(g.ravel(), rows)
             for g in np.meshgrid(*axes[1:], indexing="ij")]
    trailing = weights[len(weights) - len(axes) + 1:]
    parts = []
    for i in range(0, len(axes[0]), rows):
        first = np.repeat(axes[0][i:i + rows], row)
        vals = np.asarray(f(first, *(t[:first.size] for t in others)),
                          dtype=float).reshape(first.size // row, *shape, -1)
        for w in reversed(trailing):
            vals = np.sum(w[:, None] * vals, axis=-2)
        parts.append(vals)
    vals = np.concatenate(parts)
    if len(weights) == len(axes):
        vals = np.sum(weights[0][:, None] * vals, axis=-2)
    return vals


def integrate_columns(f, edges, order: int) -> np.ndarray:
    """Integrate a vectorized column-valued integrand over a tensor mesh
    with one panel-edge array per axis in `edges`."""
    rules = [panel_rule(e, order) for e in edges]
    return _tensor_sum(f, [x for x, _ in rules], [w for _, w in rules])


def integrate_refined(f, edges, order: int, coarse=None):
    """(fine value, |fine - coarse|) per column, coarse = given mesh; a
    caller that already holds that mesh's sum passes it as `coarse`."""
    if coarse is None:
        coarse = integrate_columns(f, edges, order)
    fine = integrate_columns(f, [split_edges(e) for e in edges], order)
    return fine, np.abs(fine - coarse)


def first_axis_profile(f, r: np.ndarray, edges, order: int) -> np.ndarray:
    """`f` at first-axis points `r`, the other mesh axes integrated out on
    their panels; shape (len(r), k)."""
    rules = [panel_rule(e, order) for e in edges[1:]]
    return _tensor_sum(f, [r] + [x for x, _ in rules], [w for _, w in rules])


def fit_power_tail(r: np.ndarray, values: np.ndarray, cutoff: float,
                   floor: float = 0.0):
    """Extrapolate a decaying 1D integrand past `cutoff` as A * r^(-p).

    `r`, `values` sample the integrand on an outer window r <= cutoff.
    Returns (tail, tail_error, exponent).  Signals smaller than `floor`
    are treated as pure noise and get a zero tail.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.size < 4:
        raise DomainError("tail-window", "need at least 4 window samples")
    scale = float(np.max(np.abs(v)))
    if scale <= floor:
        return 0.0, 0.0, None
    sign = 1.0 if np.sum(v) >= 0 else -1.0
    sv = sign * v
    if np.any(sv <= 0):
        # sign changes in the window: cannot fit a clean power law, bound
        # the tail crudely by the window magnitude
        tail = 0.0
        return tail, scale * float(cutoff) * 0.5, None
    logr = np.log(r)
    logv = np.log(sv)
    slope, intercept = np.polyfit(logr, logv, 1)
    p = -slope
    if p <= 1.2:
        raise AccuracyError(
            "tail-fit-divergent",
            f"fitted decay exponent {p:.3f} too shallow to integrate")
    amp = np.exp(intercept)
    tail = sign * amp * cutoff ** (1.0 - p) / (p - 1.0)
    # refit on the outer half of the window; the shift bounds the
    # systematic error of the power-law model
    # the median as np.median takes it, which would import numpy.ma (12 ms)
    half = r >= np.sort(r)[[(r.size - 1) // 2, r.size // 2]].mean()
    slope2, intercept2 = np.polyfit(logr[half], logv[half], 1)
    p2 = -slope2
    if p2 <= 1.2:
        raise AccuracyError(
            "tail-fit-divergent",
            f"outer-window decay exponent {p2:.3f} too shallow")
    tail2 = sign * np.exp(intercept2) * cutoff ** (1.0 - p2) / (p2 - 1.0)
    resid = logv - (slope * logr + intercept)
    misfit = float(np.max(np.abs(resid)))
    err = abs(tail2 - tail) + abs(tail) * (np.expm1(misfit))
    return float(tail), float(err), float(p)
