"""Deterministic spreads of interior chart points for pointwise checks.

`sample_points(backend, count)` picks the spread by ``backend.id``.  In
each spread every point's clearance from the chart's excluded set (the
second array of ``backend.chart_scales``: poles and Taub-NUT centres)
exceeds the curvature kernel's margin of 2.5 default steps.
"""

import math

import numpy as np


def _flat_torus(backend, t):
    return np.stack([(0.1 + 0.61 * t) % (2 * math.pi),
                     (0.7 + 0.37 * t) % (2 * math.pi),
                     (1.3 + 0.23 * t) % (2 * math.pi),
                     (2.1 + 0.53 * t) % (2 * math.pi)], axis=1)


def _round_s4(backend, t):
    lo, hi = 0.4, math.pi - 0.4
    span = hi - lo
    return np.stack([lo + (0.17 + 0.61 * t) % 1.0 * span,
                     lo + (0.39 + 0.37 * t) % 1.0 * span,
                     lo + (0.71 + 0.23 * t) % 1.0 * span,
                     (0.5 + 0.53 * t) % (2 * math.pi)], axis=1)


def _multi_taub_nut(backend, t):
    scale = backend.geometry_scale()
    r = scale * (0.6 + 8.0 * ((0.13 + 0.61 * t) % 1.0))
    th = 0.35 + (math.pi - 0.7) * ((0.29 + 0.37 * t) % 1.0)
    ph = 2 * math.pi * ((0.41 + 0.23 * t) % 1.0)
    return np.stack([r * np.sin(th) * np.cos(ph),
                     r * np.sin(th) * np.sin(ph),
                     r * np.cos(th),
                     np.full(len(t), 0.3)], axis=1)


def _schwarzschild(backend, t):
    u = math.sqrt(backend.mass) * (0.0 + 2.2 * ((0.07 + 0.61 * t) % 1.0))
    ang = 2 * math.pi * ((0.23 + 0.37 * t) % 1.0)
    th = 0.5 + (math.pi - 1.0) * ((0.47 + 0.23 * t) % 1.0)
    ph = 2 * math.pi * ((0.11 + 0.53 * t) % 1.0)
    return np.stack([u * np.cos(ang), u * np.sin(ang), th, ph], axis=1)


_SPREADS = {"flat-torus": _flat_torus, "round-s4": _round_s4,
            "multi-taub-nut": _multi_taub_nut,
            "schwarzschild": _schwarzschild}


def sample_points(backend, count: int) -> np.ndarray:
    """(count, 4) interior chart points of `backend`."""
    return _SPREADS[backend.id](backend, np.arange(count, dtype=float))
