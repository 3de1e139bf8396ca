"""Composite Gauss-Legendre panels with doubled-mesh error estimates.

Nodes are always interior to their panels, so integrands may be singular
(but integrable) at panel edges.  Error estimates come from comparing a
mesh against the same mesh with every panel split in half.  Power-law
tails extrapolate decaying radial integrands past a finite cutoff.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import AccuracyError, DomainError


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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
    starting at `first_width`.  Works in either direction."""
    span = abs(far - anchor)
    if span <= 0 or first_width <= 0 or panels < 1:
        raise DomainError("graded-edges", "degenerate grading request")
    if first_width * panels >= span:
        t = np.linspace(0.0, span, panels + 1)
    else:
        # solve first_width * (q^panels - 1)/(q - 1) = span for ratio q
        q_lo, q_hi = 1.0 + 1e-12, 10.0
        for _ in range(80):
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
    slowest) and returns values (n,) or (n, k).  The reduction is numpy
    pairwise summation in node order, independent of chunking.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.asarray(f(*(g.ravel() for g in grids)), dtype=float)
    vals = vals.reshape(tuple(len(x) for x in axes) + (-1,))
    for w in reversed(weights):
        vals = np.sum(w[:, None] * vals, axis=-2)
    return vals


def integrate_columns(f, edges, order: int) -> np.ndarray:
    """Integrate a vectorized column-valued integrand over a tensor mesh
    with one panel-edge array per axis in `edges` (none: one sample)."""
    rules = [panel_rule(e, order) for e in edges]
    return _tensor_sum(f, [x for x, _ in rules], [w for _, w in rules])


def integrate_refined(f, edges, order: int):
    """(fine value, |fine - coarse|) per column, coarse = given mesh."""
    coarse = integrate_columns(f, edges, order)
    if not edges:
        return coarse, np.zeros_like(coarse)
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
    half = r >= np.median(r)
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
