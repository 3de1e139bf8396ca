"""Finite-difference curvature engine against closed-form targets.

The reference values below were derived symbolically (computer algebra
on the exact metrics) before the engine existed:

  flat torus        everything vanishes, exactly representable
  round sphere a=1  scalar 12, |R|^2 24, |ric|^2 36, signature density 0
  single NUT m      Ricci-flat, |R|^2 = 24 m^2 / (r+m)^6, P/GB = -2/3
  schwarzschild m   Ricci-flat, |R|^2 = 48 m^2 / r^6 with r = 2m + u^2
"""

import math

import numpy as np
import pytest

from sdlab.catalog import builtin_names, get_entry
from sdlab.errors import ChartError, DescriptorError
from sdlab.geometry import (FlatTorus, MultiTaubNut, RoundS4, Schwarzschild,
                            curvature_at)
from sdlab.geometry.curvature import curvature_batch


# slug -> a constructor call that breaks the rule it names
CONSTRUCTOR_RULES = {
    "mass-positive": (MultiTaubNut, {"mass": 0.0}),
    "radius-positive": (RoundS4, {"a": -1.0}),
    "radii-positive": (FlatTorus, {"radii": (1.0, 1.0, 1.0, math.nan)}),
    "radii-shape": (FlatTorus, {"radii": (1.0, 1.0, 1.0)}),
    "centers-nonempty": (MultiTaubNut, {"centers": ()}),
    "centers-shape": (MultiTaubNut, {"centers": ((0.0, 0.0),)}),
    "string-signs-shape": (MultiTaubNut, {"string_signs": (1, 1)}),
    "string-signs-values": (MultiTaubNut, {"string_signs": (0,)}),
    "length-range": (Schwarzschild, {"mass": 1e31}),
}


@pytest.mark.parametrize("slug", CONSTRUCTOR_RULES)
def test_constructor_rules(slug):
    cls, kwargs = CONSTRUCTOR_RULES[slug]
    with pytest.raises(DescriptorError) as err:
        cls(**kwargs)
    assert err.value.slug == slug


def test_flat_torus_exactly_flat():
    backend = FlatTorus(radii=(1.0, 0.5, 2.0, 1.25))
    for pt in backend.sample_points(5):
        s = curvature_at(backend, pt)
        assert s.scalar == 0.0
        assert s.inv_R_full == 0.0
        assert s.gb_density == 0.0
        assert s.pontryagin_density == 0.0


def test_round_sphere_constants():
    backend = RoundS4(a=1.0)
    s = curvature_at(backend, (1.1, 0.9, 2.3, 0.7))
    assert s.scalar == pytest.approx(12.0, abs=1e-7)
    assert s.inv_R_full == pytest.approx(24.0, abs=1e-6)
    assert s.inv_r == pytest.approx(36.0, abs=1e-6)
    assert s.inv_s2 == pytest.approx(144.0, abs=1e-5)
    assert s.inv_R_endo == pytest.approx(6.0, abs=1e-6)
    assert abs(s.pontryagin_density) < 1e-12
    # Euler density of the constant-curvature metric: (|R|^2-4|r|^2+s^2)/32pi^2
    assert s.gb_density == pytest.approx(24.0 / (32 * math.pi ** 2), rel=1e-7)


def test_round_sphere_radius_scaling():
    s = curvature_at(RoundS4(a=2.0), (1.1, 0.9, 2.3, 0.7))
    assert s.scalar == pytest.approx(3.0, abs=1e-8)
    assert s.inv_R_full == pytest.approx(1.5, abs=1e-7)


@pytest.mark.parametrize("r", [0.7, 1.0, 2.0, 5.0])
def test_single_nut_riemann_norm(r):
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    s = curvature_at(backend, (r, 0.0, 0.0, 0.5))
    expect = 24 * 0.5 ** 2 / (r + 0.5) ** 6
    assert s.inv_R_full == pytest.approx(expect, rel=1e-7)
    assert abs(s.scalar) < 1e-7 * math.sqrt(s.inv_R_full)
    assert s.inv_r < 1e-12 * s.inv_R_full


def test_single_nut_frozen_values():
    # 24 m^2/(r+m)^6 at m=1/2: 128/243 at r=1 and 384/15625 at r=2
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    s1 = curvature_at(backend, (1.0, 0.0, 0.0, 0.5))
    s2 = curvature_at(backend, (0.0, 2.0, 0.0, 0.5))
    assert s1.inv_R_full == pytest.approx(128 / 243, rel=1e-8)
    assert s2.inv_R_full == pytest.approx(384 / 15625, rel=1e-8)


def test_nut_anti_self_dual_ratio():
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    for pt in backend.sample_points(8):
        s = curvature_at(backend, pt)
        assert s.pontryagin_density / s.gb_density == pytest.approx(
            -2.0 / 3.0, abs=1e-7)


def test_two_nut_between_centers():
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, -1.0),
                                              (0.0, 0.0, 1.0)),
                           string_signs=(1, -1))
    s = curvature_at(backend, (0.0, 0.0, 0.0, 0.5))
    assert s.inv_r < 1e-9
    assert s.pontryagin_density / s.gb_density == pytest.approx(-2 / 3,
                                                                abs=1e-7)


def test_string_gauge_invariance():
    # the Dirac-string side is a gauge choice; invariants cannot see it
    pt = (0.6, 0.4, 0.2, 0.3)
    a = curvature_at(MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),),
                                  string_signs=(1,)), pt)
    b = curvature_at(MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),),
                                  string_signs=(-1,)), pt)
    assert a.inv_R_full == pytest.approx(b.inv_R_full, rel=1e-8)
    assert a.gb_density == pytest.approx(b.gb_density, rel=1e-8)


@pytest.mark.parametrize("u", [0.0, 0.5, 1.3])
def test_schwarzschild_riemann_norm(u):
    backend = Schwarzschild(mass=1.0)
    s = curvature_at(backend, (u, 0.0, 1.1, 0.8))
    r = 2.0 + u * u
    assert s.inv_R_full == pytest.approx(48.0 / r ** 6, rel=1e-7)
    assert abs(s.scalar) < 1e-7
    assert abs(s.pontryagin_density) < 1e-12


def test_schwarzschild_bolt_is_smooth():
    s = curvature_at(Schwarzschild(mass=1.0), (0.0, 0.0, 1.2, 0.4))
    assert s.inv_R_full == pytest.approx(0.75, rel=1e-7)


def test_ricci_flatness_sampled():
    for backend in (MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),)),
                    Schwarzschild(mass=1.0)):
        for pt in backend.sample_points(10):
            s = curvature_at(backend, pt)
            ric = math.sqrt(max(s.inv_r, 0.0))
            rie = math.sqrt(s.inv_R_full)
            assert ric <= 1e-6 * rie


def test_fd_step_halving_fourth_order():
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    pt = (1.0, 0.2, -0.3, 0.4)
    r = math.sqrt(1.0 + 0.04 + 0.09)
    exact = 24 * 0.25 / (r + 0.5) ** 6
    err = [abs(curvature_at(backend, pt, h=h).inv_R_full - exact)
           for h in (0.032, 0.016)]
    # 4th-order stencils: error should drop by ~16, demand at least 8
    assert err[1] * 8 <= err[0]


def test_bianchi_identity_holds():
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    for h in (0.016, 0.004, 0.001):
        s = curvature_at(backend, (1.0, 0.2, -0.3, 0.4), h=h)
        assert s.bianchi_residual < 1e-12 * max(1.0, s.inv_R_full)


def test_excluded_points_rejected():
    nut = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    with pytest.raises(ChartError):
        curvature_at(nut, (0.0, 0.0, 0.0, 0.1))   # center
    with pytest.raises(ChartError):
        curvature_at(nut, (0.0, 0.0, -2.0, 0.1))  # on the string ray
    with pytest.raises(ChartError):
        curvature_at(RoundS4(a=1.0), (0.0, 0.9, 2.3, 0.7))  # chart pole


# ------------------------------------------------------ cyclic stencil axes

def _backends():
    entries = {name: get_entry(name) for name in builtin_names()}
    out = {name: e.backend for name, e in entries.items()
           if e.backend is not None}
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        out[f"two-nut{signs}"] = MultiTaubNut(
            mass=0.5, centers=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
            string_signs=signs)
    return out


BACKENDS = _backends()


@pytest.mark.parametrize("name", list(BACKENDS))
def test_metric_ignores_cyclic_axes(name):
    backend = BACKENDS[name]
    pts = backend.sample_points(16)
    g = backend.metric(pts)
    for axis in backend.cyclic_axes:
        for shift in (1e-3, 0.37, -2.5, 11.0):
            moved = pts.copy()
            moved[:, axis] += shift
            assert np.array_equal(backend.metric(moved), g), (axis, shift)


@pytest.mark.parametrize("name", list(BACKENDS))
def test_cyclic_stencil_matches_full_stencil(name, monkeypatch):
    backend = BACKENDS[name]
    pts = backend.sample_points(24)
    short = curvature_batch(backend, pts)
    monkeypatch.setattr(type(backend), "cyclic_axes", ())
    full = curvature_batch(backend, pts)
    for f in ("g", "ginv", "gamma"):
        assert np.array_equal(getattr(short, f), getattr(full, f)), f
    for f in ("riemann_low", "riemann_frame"):
        scale = np.max(np.abs(getattr(full, f)))
        assert np.max(np.abs(getattr(short, f) - getattr(full, f))) \
            <= 1e-10 * scale, f
    scale = np.max(np.abs(full.inv_R_full))
    for f in ("inv_R_full", "gb_density", "pontryagin_density"):
        assert np.max(np.abs(getattr(short, f) - getattr(full, f))) \
            <= 1e-10 * scale, f


def test_one_cyclic_axis_needs_61_metric_points(monkeypatch):
    backend = get_entry("taub-nut-2").backend
    sizes = []
    metric = MultiTaubNut.metric

    def spy(self, x):
        sizes.append(len(x))
        return metric(self, x)

    monkeypatch.setattr(MultiTaubNut, "metric", spy)
    curvature_batch(backend, backend.sample_points(7))
    assert sizes == [61 * 7]
