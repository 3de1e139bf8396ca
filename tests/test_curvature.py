"""Finite-difference curvature engine against closed-form targets.

The reference values below were derived symbolically (computer algebra
on the exact metrics) before the engine existed:

  flat torus        everything vanishes, exactly representable
  round sphere a=1  scalar 12, |R|^2 24, |ric|^2 36, signature density 0
  single NUT m      Ricci-flat, |R|^2 = 24 m^2 / (r+m)^6, P/GB = -2/3
  schwarzschild m   Ricci-flat, |R|^2 = 48 m^2 / r^6 with r = 2m + u^2
"""

import itertools
import math

import numpy as np
import pytest

from sampling import sample_points
from sdlab.catalog import builtin_names, get_entry
from sdlab.errors import ChartError, DescriptorError
from sdlab.geometry import (FlatTorus, MultiTaubNut, RoundS4, Schwarzschild,
                            boundary_report, curvature_at)
from sdlab.geometry import boundary, curvature, integrals
from sdlab.geometry import quadrature as quad
from sdlab.geometry.curvature import curvature_batch


# case -> a constructor call that breaks the rule its slug names; the case
# is the slug, then "/" and the backend where a second backend checks it
CONSTRUCTOR_RULES = {
    "mass-positive": (MultiTaubNut, {"mass": 0.0}),
    "mass-positive/schwarzschild": (Schwarzschild, {"mass": 0.0}),
    "radius-positive": (RoundS4, {"a": -1.0}),
    "radii-positive": (FlatTorus, {"radii": (1.0, 1.0, 1.0, math.nan)}),
    "radii-shape": (FlatTorus, {"radii": (1.0, 1.0, 1.0)}),
    "centers-nonempty": (MultiTaubNut, {"centers": ()}),
    "centers-shape": (MultiTaubNut, {"centers": ((0.0, 0.0),)}),
    "length-range": (Schwarzschild, {"mass": 1e31}),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_RULES)
def test_constructor_rules(case):
    cls, kwargs = CONSTRUCTOR_RULES[case]
    with pytest.raises(DescriptorError) as err:
        cls(**kwargs)
    assert err.value.slug == case.partition("/")[0]


def test_string_gauge_is_not_an_argument():
    # a point's gauge follows from where it lies, so no backend holds one
    with pytest.raises(TypeError):
        MultiTaubNut(0.5, ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)), (1, -1))
    with pytest.raises(TypeError):
        MultiTaubNut(string_signs=(1,))
    assert list(MultiTaubNut(0.5, ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))
                .params) == ["mass", "centers", "fiber_period"]


def test_flat_torus_exactly_flat():
    backend = FlatTorus(radii=(1.0, 0.5, 2.0, 1.25))
    for pt in sample_points(backend, 5):
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
    for pt in sample_points(backend, 8):
        s = curvature_at(backend, pt)
        assert s.pontryagin_density / s.gb_density == pytest.approx(
            -2.0 / 3.0, abs=1e-7)


def test_two_nut_between_centers():
    # evaluated with the upper string up, as in every gauge facing away
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, -1.0),
                                              (0.0, 0.0, 1.0)))
    s = curvature_at(backend, (0.0, 0.0, 0.0, 0.5))
    assert s.inv_r < 1e-9
    assert s.pontryagin_density / s.gb_density == pytest.approx(-2 / 3,
                                                                abs=1e-7)


def _in_gauge_of(monkeypatch, z):
    """Make every Taub-NUT metric row take the gauge of the node (0, 0, z),
    whatever node it belongs to."""
    metric = MultiTaubNut.metric
    node = np.array([(0.0, 0.0, z, 0.0)])
    monkeypatch.setattr(MultiTaubNut, "metric",
                        lambda self, x, nodes=None: metric(self, x, node))


def test_string_gauge_invariance(monkeypatch):
    # the Dirac-string side is a gauge choice; invariants cannot see it.
    # The point lies above the centre, so it faces away from the string
    # down; the gauge of a node below the centre hangs the string up
    nut = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    pt = np.array([(0.6, 0.4, 0.2, 0.3)])
    down = nut.metric(pt)
    a = curvature_batch(nut, pt)
    _in_gauge_of(monkeypatch, -1.0)
    assert not np.array_equal(nut.metric(pt), down)
    b = curvature_batch(nut, pt)
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


def _gibbons_hawking_riem2(nut, x):
    """|Riem|^2 of a multi-Taub-NUT from its harmonic potential V:
    4 |ddV|^2 / V^4 - 24 dV.ddV.dV / V^5 + 24 |dV|^4 / V^6."""
    V, dV, ddV = 1.0, 0.0, 0.0
    for c in nut.centers:
        d = x[:, :3] - np.asarray(c)
        r = np.linalg.norm(d, axis=1)[:, None, None]
        V = V + nut.mass / r[:, 0, 0]
        dV = dV - nut.mass * d / r[:, 0] ** 3
        ddV = ddV + nut.mass * (3.0 * d[:, :, None] * d[:, None] / r ** 5
                                - np.eye(3) / r ** 3)
    hh = np.einsum("nij,nij->n", ddV, ddV)
    ghg = np.einsum("ni,nij,nj->n", dV, ddV, dV)
    gg = np.einsum("ni,ni->n", dV, dV)
    return 4.0 * hh / V ** 4 - 24.0 * ghg / V ** 5 + 24.0 * gg ** 2 / V ** 6


def _schwarzschild_riem2(bh, x):
    """48 m^2 / r^6 at the area radius r = 2m + X^2 + Y^2."""
    return 48.0 * bh.mass ** 2 / (2.0 * bh.mass + x[:, 0] ** 2
                                  + x[:, 1] ** 2) ** 6


# the closed form and the bound on the kernel's relative error, at most
# twice the worst node: 1.04e-6 (TN-1), 7.8e-7 (TN-2), 1.94e-6 (Schw.)
RIEM2_ORACLES = {"taub-nut-1": (_gibbons_hawking_riem2, 2e-6),
                 "taub-nut-2": (_gibbons_hawking_riem2, 2e-6),
                 "schwarzschild": (_schwarzschild_riem2, 3e-6)}


@pytest.mark.parametrize("name", RIEM2_ORACLES)
def test_riemann_norm_matches_closed_form_at_every_node(name):
    exact, bound = RIEM2_ORACLES[name]
    backend = get_entry(name).backend
    cutoff = integrals.effective_cutoff(backend, None)
    worst = 0.0
    for resolution in (2, 4):
        for seg in backend.reduction(resolution, cutoff)[0]:
            for edges in (seg.edges, [quad.split_edges(e) for e in seg.edges]):
                axes = [quad.panel_rule(e, seg.order)[0] for e in edges]
                grids = np.meshgrid(*axes, indexing="ij")
                pts, _ = seg.embed(*(g.ravel() for g in grids))
                for i in range(0, len(pts), quad._BLOCK):
                    x = pts[i:i + quad._BLOCK]
                    got = curvature_batch(seg.backend, x).inv_R_full
                    want = exact(seg.backend, x)
                    worst = max(worst, np.max(np.abs(got / want - 1.0)))
    assert worst <= bound


# the kernel's worst relative |Riem|^2 error on `boundary_report`'s surface
# nodes at resolutions 2 and 4, each node in its own gauge, bounded at
# about twice the worst node: 2.4e-6, 1.2e-4 and 6.3e-3 on TN-1, 1.7e-6,
# 9.2e-5 and 4.6e-3 on TN-2, 3.4e-5 and 9.3e-3 on Schwarzschild (measured).
# Left out: TN-2 at rho = 1280, off by a factor of 1.0, and Schwarzschild
# from rho = 320 on, off by 14 there, where the step is capped while the
# metric grows like r^2 (CHANGES.md, the FOUND on `curvature_batch` on
# Schwarzschild far out)
SURFACE_BOUNDS = {("taub-nut-1", 20.0): 4.8e-6, ("taub-nut-1", 80.0): 2.4e-4,
                  ("taub-nut-1", 320.0): 1.3e-2,
                  ("taub-nut-2", 20.0): 3.5e-6, ("taub-nut-2", 80.0): 1.9e-4,
                  ("taub-nut-2", 320.0): 9.3e-3,
                  ("schwarzschild", 20.0): 6.8e-5,
                  ("schwarzschild", 80.0): 1.9e-2}


@pytest.mark.parametrize("name, rho", SURFACE_BOUNDS)
def test_riemann_norm_matches_closed_form_on_the_truncation_surface(
        monkeypatch, name, rho):
    exact, _ = RIEM2_ORACLES[name]
    worst = []

    def spy(backend, pts):
        batch = curvature_batch(backend, pts)
        got = batch.inv_R_full / exact(backend, pts)
        worst.append(np.max(np.abs(got - 1.0)))
        return batch

    monkeypatch.setattr(boundary, "curvature_batch", spy)
    for resolution in (2, 4):
        boundary_report(get_entry(name).backend, rho, resolution)
    assert len(worst) == 4           # each report's coarse and fine mesh
    assert max(worst) <= SURFACE_BOUNDS[name, rho]


@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2"])
def test_surface_hemispheres_see_mirror_curvature(monkeypatch, name):
    # the centres and the surface nodes are symmetric under z -> -z, and
    # each node faces away from every string, so a node below the centres
    # sees its mirror's invariants, to the nodes' rounding (worst 1.5e-7 on
    # TN-1 and 4.8e-7 on TN-2 at rho = 20; 3.6e-6 and 1.3e-5 when every
    # string hung down and limited the step below the centres)
    worst = []

    def spy(backend, pts):
        batch = curvature_batch(backend, pts)
        for f in ("inv_R_full", "gb_density", "pontryagin_density"):
            v = getattr(batch, f)
            worst.append(np.max(np.abs(v[::-1] / v - 1.0)))
        return batch

    monkeypatch.setattr(boundary, "curvature_batch", spy)
    for resolution in (2, 4):
        boundary_report(get_entry(name).backend, 20.0, resolution)
    assert max(worst) <= 1e-6


@pytest.mark.parametrize("name", RIEM2_ORACLES)
def test_kernel_share_of_alf_integrals_is_below_the_estimate(
        integrals_at, monkeypatch, name):
    # The same integration (meshes, tail fit) over the closed form in place
    # of the kernel's I_R_full and I_gb columns; on a Ricci-flat space the Gauss-Bonnet density is
    # |Riem|^2 / 32 pi^2.  The kernel moved either integral by at most
    # 1.6e-9 of max(1, |I|), against estimates of 6.8e-6 to 1.4e-4 (at most
    # 4.4e-5 of the estimate), so the estimate comes from the quadrature
    # and the tail; the test allows a thousandth of it.
    exact, _ = RIEM2_ORACLES[name]
    backend = get_entry(name).backend
    kernel = {r: integrals_at(backend, r) for r in (2, 4)}

    def oracle(seg_backend, pts):
        out = np.zeros((len(pts), len(integrals._COLS)))
        out[:, 0] = exact(seg_backend, pts)
        out[:, 4] = out[:, 0] / (32.0 * math.pi ** 2)
        return out

    monkeypatch.setattr(integrals, "_columns", oracle)
    for resolution, ci in kernel.items():
        ref = integrals.integrate_invariants(backend, resolution)
        for col in ("I_R_full", "I_gb"):
            got = getattr(ci, col)
            share = abs(got - getattr(ref, col)) / max(1.0, abs(got))
            assert share < 1e-3 * ci.error_estimate, (resolution, col)


def test_ricci_flatness_sampled():
    for backend in (MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),)),
                    Schwarzschild(mass=1.0)):
        for pt in sample_points(backend, 10):
            s = curvature_at(backend, pt)
            ric = math.sqrt(max(s.inv_r, 0.0))
            rie = math.sqrt(s.inv_R_full)
            assert ric <= 1e-6 * rie


def test_fd_step_halving_fourth_order():
    backend = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
    pts = np.array([(1.0, 0.2, -0.3, 0.4)])
    r = math.sqrt(1.0 + 0.04 + 0.09)
    exact = 24 * 0.25 / (r + 0.5) ** 6
    err = [abs(_riemann_by_dgamma(backend, pts, h)[2]["inv_R_full"][0] - exact)
           for h in (0.032, 0.016)]
    # 4th-order stencils: error should drop by ~16, demand at least 8
    assert err[1] * 8 <= err[0]


_NUT = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
_PAIR = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))

# case -> (backend, point, slug or None if accepted); a point on the axis
# of the centres lies on no string of the gauge facing away from it
EXCLUDED = {
    "nut-centre": (_NUT, (0.0, 0.0, 0.0, 0.1), "center-excluded"),
    "nut-string": (_NUT, (0.0, 0.0, -2.0, 0.1), None),
    "two-nut-centre": (MultiTaubNut(0.5, _PAIR), (0.0, 0.0, 1.0, 0.1),
                       "center-excluded"),
    # on the ray of the upper string down and of the lower string up
    "two-nut-between": (MultiTaubNut(0.5, _PAIR), (0.0, 0.0, 0.0, 0.1), None),
    "two-nut-string-down": (MultiTaubNut(0.5, _PAIR),
                            (0.0, 0.0, 3.0, 0.1), None),
    "two-nut-below": (MultiTaubNut(0.5, _PAIR), (0.0, 0.0, -3.0, 0.1), None),
    "s4-chi-0": (RoundS4(), (0.0, 0.9, 2.3, 0.7), "pole-excluded"),
    "s4-chi-pi": (RoundS4(), (math.pi, 0.9, 2.3, 0.7), "pole-excluded"),
    "s4-chi-3.5": (RoundS4(), (3.5, 0.9, 2.3, 0.7), "pole-excluded"),
    "schwarzschild-theta-0": (Schwarzschild(), (0.8, 0.3, 0.0, 0.8),
                              "pole-excluded"),
    "schwarzschild-theta-pi": (Schwarzschild(), (0.8, 0.3, math.pi, 0.8),
                               "pole-excluded"),
    "torus-origin": (FlatTorus(), (0.0, 0.0, 0.0, 0.0), None),
    "torus-far-out": (FlatTorus(), (-1.0, 7.0, 0.0, 100.0), None),
}


@pytest.mark.parametrize("case", list(EXCLUDED))
def test_excluded_points_rejected(case):
    backend, point, slug = EXCLUDED[case]
    if slug is None:
        assert curvature_at(backend, point).point == point
        return
    with pytest.raises(ChartError) as err:
        curvature_at(backend, point)
    assert err.value.slug == slug == backend.excluded


def test_points_on_a_string_evaluate_in_the_gauge_facing_away():
    s = curvature_at(_NUT, (0.0, 0.0, -2.0, 0.1))
    assert s.inv_R_full == pytest.approx(24 * 0.25 / 2.5 ** 6, rel=1e-7)
    # the pair turned onto the x axis puts each point off every string, and
    # the invariants do not change under the rotation
    pair = MultiTaubNut(0.5, _PAIR)
    turned = MultiTaubNut(0.5, ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    for z in (3.0, 0.0, -3.0):
        on_axis = curvature_at(pair, (0.0, 0.0, z, 0.1))
        off = curvature_at(turned, (z, 0.0, 0.0, 0.1))
        for f in ("inv_R_full", "gb_density", "pontryagin_density"):
            assert getattr(on_axis, f) == pytest.approx(getattr(off, f),
                                                        rel=1e-7), (z, f)


@pytest.mark.parametrize("z", [0.0, -2.0], ids=["between", "below"])
def test_two_centre_curvature_is_gauge_invariant(monkeypatch, z):
    # every point in the gauge of a node between the centres (upper string
    # up) or below them (both up), facing away from some points and not
    # from others, sees the invariants of its own gauge.  The centre
    # distance sets the stencil step, so they agree to its truncation
    pts = np.array([(1.2, 0.9, z, 0.3) for z in (-1.7, -0.5, 0.0, 0.8, 2.2)])
    a = curvature_batch(MultiTaubNut(0.5, _PAIR), pts)
    _in_gauge_of(monkeypatch, z)
    b = curvature_batch(MultiTaubNut(0.5, _PAIR), pts)
    for f in ("inv_R_full", "gb_density", "pontryagin_density"):
        np.testing.assert_allclose(getattr(b, f), getattr(a, f), rtol=1e-7,
                                   err_msg=f)


def _oneform(nut, x, signs):
    """(w_x, w_y) of w = sum_a m ((z - z_a)/r_a - s_a) dphi_a at (n, 3)
    points, with `signs` (n, centres) the s_a of each point."""
    w = 0.0
    for c, s in zip(nut.centers, signs.T):
        d = x - np.asarray(c)
        r = np.linalg.norm(d, axis=1)
        rho2 = d[:, 0] ** 2 + d[:, 1] ** 2
        w = w + nut.mass * (d[:, 2] / r - s) * np.stack(
            [-d[:, 1], d[:, 0]]) / rho2
    return w


THREE = MultiTaubNut(0.5, ((0.0, 0.0, -1.0), (0.4, -0.3, 0.2),
                           (0.0, 0.0, 1.5)))


@pytest.mark.parametrize("nut", [MultiTaubNut(0.5, _PAIR),
                                 MultiTaubNut(0.5, _PAIR[::-1]), THREE],
                         ids=["lower-first", "upper-first", "three"])
def test_each_row_takes_the_gauge_facing_away_from_its_node(nut):
    # a string hangs down from each centre at or below a node's z and up
    # from each above it; row i of the stencil belongs to node i % k
    nodes = np.array([(0.3, 0.2, z, 0.1)
                      for z in (-2.0, -1.0, -0.4, 0.2, 1.0, 1.5, 3.0)])
    rows = (nodes + np.array([[0.0], [0.02], [-0.05]])[:, :, None]
            * np.array([1.0, -1.0, 1.0, 0.0])).reshape(-1, 4)
    g = nut.metric(rows, nodes)
    signs = np.array([[1.0 if z >= c[2] else -1.0 for c in nut.centers]
                      for z in nodes[:, 2]])
    want = _oneform(nut, rows[:, :3], np.tile(signs, (3, 1)))
    # w_i = g_i3 / g_33
    got = np.stack([g[:, 0, 3], g[:, 1, 3]]) / g[:, 3, 3]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for i, node in enumerate(nodes):
        mine = rows.reshape(3, len(nodes), 4)[:, i]
        assert np.array_equal(g.reshape(3, len(nodes), 4, 4)[:, i],
                              nut.metric(mine, node[None]))
    # by default each row is its own node
    assert np.array_equal(nut.metric(nodes), nut.metric(nodes, nodes))


@pytest.mark.parametrize("centers", [_PAIR, _PAIR[::-1]],
                         ids=["lower-first", "upper-first"])
def test_two_centre_kernel_calls_face_away_from_their_points(monkeypatch,
                                                              centers):
    # the ball holds points below and above the upper centre, and so does
    # the shell: every metric call of the integral hands each stencil row
    # the node it belongs to, one of the kernel call's own points
    calls = []
    batch, metric = curvature.curvature_batch, MultiTaubNut.metric

    def spy_batch(backend, pts):
        calls.append([pts])
        return batch(backend, pts)

    def spy_metric(self, x, nodes=None):
        calls[-1].append((x, nodes))
        return metric(self, x, nodes)

    monkeypatch.setattr(curvature, "curvature_batch", spy_batch)
    monkeypatch.setattr(MultiTaubNut, "metric", spy_metric)
    integrals.integrate_invariants(MultiTaubNut(0.5, centers), 2)
    seen = set()
    for pts, (x, nodes) in calls:
        assert nodes is pts
        # stencil row i is node i % n offset by a few steps at most
        assert np.array_equal(x.reshape(61, len(pts), 4)[0], pts)
        seen.update(tuple(z >= c[2] for c in centers) for z in pts[:, 2])
    # between the centres and above both (the meshes hold the upper half)
    assert seen == {(True, False) if centers == _PAIR else (False, True),
                    (True, True)}


def test_excluded_distance_runs_once_per_kernel_call(monkeypatch):
    backend = get_entry("taub-nut-2").backend
    calls = []
    distance = MultiTaubNut._excluded_distance

    def spy(self, x):
        calls.append(len(x))
        return distance(self, x)

    monkeypatch.setattr(MultiTaubNut, "_excluded_distance", spy)
    curvature_batch(backend, sample_points(backend, 1))
    assert calls == [1]
    calls.clear()
    boundary_report(backend, 30.0, resolution=4)
    assert calls == [16, 32]  # once on each surface mesh


# ------------------------------------------------------ cyclic stencil axes

def _backends():
    entries = {name: get_entry(name) for name in builtin_names()}
    out = {name: e.backend for name, e in entries.items()
           if e.backend is not None}
    out["three-nut"] = THREE  # four gauges, one centre off the axis
    return out


BACKENDS = _backends()


@pytest.mark.parametrize("name", list(BACKENDS))
def test_metric_ignores_cyclic_axes(name):
    backend = BACKENDS[name]
    pts = sample_points(backend, 16)
    g = backend.metric(pts)
    for axis in backend.cyclic_axes:
        for shift in (1e-3, 0.37, -2.5, 11.0):
            moved = pts.copy()
            moved[:, axis] += shift
            assert np.array_equal(backend.metric(moved), g), (axis, shift)


@pytest.mark.parametrize("name", list(BACKENDS))
def test_cyclic_stencil_matches_full_stencil(name, monkeypatch):
    backend = BACKENDS[name]
    pts = sample_points(backend, 24)
    short = curvature_batch(backend, pts)
    monkeypatch.setattr(type(backend), "cyclic_axes", ())
    full = curvature_batch(backend, pts)
    for f in ("g", "ginv", "gamma"):
        assert np.array_equal(getattr(short, f), getattr(full, f)), f
    for f in ("bivector_low", "bivector_frame"):
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

    def spy(self, x, nodes=None):
        sizes.append(len(x))
        return metric(self, x, nodes)

    monkeypatch.setattr(MultiTaubNut, "metric", spy)
    curvature_batch(backend, sample_points(backend, 7))
    assert sizes == [61 * 7]


# ------------------------------------ metric layout and a second Riemann route


def _entrywise_metric(backend, x):
    """Reference: each backend's metric arithmetic, written entry by entry
    into a zeroed (n, 4, 4) array."""
    g = np.zeros((len(x), 4, 4))
    if backend.id == "flat-torus":
        for i, r in enumerate(backend.radii):
            g[:, i, i] = r * r
    elif backend.id == "round-s4":
        a2 = backend.a * backend.a
        s_chi, s_th, s_ph = (np.sin(x[:, k]) ** 2 for k in range(3))
        g[:, 0, 0] = a2
        g[:, 1, 1] = a2 * s_chi
        g[:, 2, 2] = a2 * s_chi * s_th
        g[:, 3, 3] = a2 * s_chi * s_th * s_ph
    elif backend.id == "multi-taub-nut":
        V, wx, wy = backend._potential_and_oneform(x)
        inv_v = 1.0 / V
        g[:, 0, 0] = V + wx * wx * inv_v
        g[:, 1, 1] = V + wy * wy * inv_v
        g[:, 2, 2] = V
        g[:, 0, 1] = g[:, 1, 0] = wx * wy * inv_v
        g[:, 0, 3] = g[:, 3, 0] = wx * inv_v
        g[:, 1, 3] = g[:, 3, 1] = wy * inv_v
        g[:, 3, 3] = inv_v
    else:
        m = backend.mass
        X, Y, th = x[:, 0], x[:, 1], x[:, 2]
        r = 2 * m + X * X + Y * Y
        q = 8 * m / r
        g[:, 0, 0] = 8 * m + 4 * X * X - q * Y * Y
        g[:, 1, 1] = 8 * m + 4 * Y * Y - q * X * X
        g[:, 0, 1] = g[:, 1, 0] = (4 + q) * X * Y
        g[:, 2, 2] = r * r
        g[:, 3, 3] = (r * np.sin(th)) ** 2
    return g


@pytest.mark.parametrize("name", list(BACKENDS))
def test_metric_is_symmetric_and_matches_entrywise_construction(name):
    backend = BACKENDS[name]
    pts = sample_points(backend, 64)
    g = backend.metric(pts)
    assert g.shape == (64, 4, 4)
    assert np.array_equal(g, g.swapaxes(1, 2))
    assert np.array_equal(g, _entrywise_metric(backend, pts))


def _levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])   # exactly +-1
    return eps


_EPS = _levi_civita()
# the bivector pairs (a, b), broadcast against (c, d) on the second axis
_A, _B = np.array(curvature._PAIRS).T[:, :, None]


def _on_pairs(r):
    """The (n, 6, 6) bivector form R[I, J] = R_abcd of (n, 4, 4, 4, 4)."""
    return r[:, _A, _B, _A.T, _B.T]


def _spread(r6):
    """R_abcd (n, 4, 4, 4, 4) from its (n, 6, 6) bivector form, entry by
    entry: each pair value with both antisymmetries."""
    r = np.zeros((len(r6), 4, 4, 4, 4))
    for i, (a, b) in enumerate(curvature._PAIRS):
        for j, (c, d) in enumerate(curvature._PAIRS):
            r[:, a, b, c, d] = r[:, b, a, d, c] = r6[:, i, j]
            r[:, b, a, c, d] = r[:, a, b, d, c] = -r6[:, i, j]
    return r


def test_hodge_star_is_levi_civita_on_pairs():
    assert np.array_equal(curvature._bivector_tables()["star"],
                          _on_pairs(_EPS[None])[0])


def _riemann_by_dgamma(backend, pts, h):
    """Oracle: the Riemann tensor from the derivatives of the Christoffel
    symbols of the second kind, d_k Gam = d_k(g^-1) G + g^-1 d_k G with
    d_k(g^-1) = -g^-1 (d_k g) g^-1, raised and then lowered by g; frame
    components and invariants by plain einsum contractions.  It shares
    only the metric stencil with `curvature_batch`."""
    n = len(pts)
    g0, d1, d2 = curvature._metric_derivatives(backend, pts, h)
    d1 = d1.transpose(3, 2, 0, 1)         # [n,k,i,j] = d_k g_ij
    d2 = d2.transpose(4, 2, 3, 0, 1)      # [n,k,l,i,j] = d_k d_l g_ij
    ginv = np.linalg.inv(g0)
    d1_t = d1.transpose(0, 2, 1, 3)
    sum_term = d1_t + d1_t.transpose(0, 1, 3, 2) - d1
    gamma = 0.5 * (ginv @ sum_term.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    dginv = -(ginv[:, None] @ d1 @ ginv[:, None])
    d2_t = d2.transpose(0, 1, 3, 2, 4)
    dsum = d2_t + d2_t.transpose(0, 1, 2, 4, 3) - d2
    dgamma = 0.5 * ((dginv.reshape(n, 16, 4) @ sum_term.reshape(n, 4, 16))
                    .reshape(n, 4, 4, 4, 4)
                    + (ginv[:, None] @ dsum.reshape(n, 4, 4, 16))
                    .reshape(n, 4, 4, 4, 4))
    # R^l_{s i j} = d_i Gam^l_{j s} - d_j Gam^l_{i s}
    #              + Gam^l_{i a} Gam^a_{j s} - Gam^l_{j a} Gam^a_{i s}
    q = (dgamma.transpose(0, 2, 1, 3, 4)
         + (gamma.reshape(n, 16, 4) @ gamma.reshape(n, 4, 16))
         .reshape(n, 4, 4, 4, 4))
    r_up = (q - q.transpose(0, 1, 3, 2, 4)).transpose(0, 1, 4, 2, 3)
    r_low = (g0 @ r_up.reshape(n, 4, 64)).reshape(n, 4, 4, 4, 4)
    legs = np.linalg.inv(np.swapaxes(np.linalg.cholesky(g0), 1, 2))
    r_fr = np.einsum("nia,njb,nkc,nld,nijkl->nabcd", legs, legs, legs, legs,
                     r_low, optimize=True)
    ric = np.einsum("ncacb->nab", r_fr)
    scal = np.einsum("naa->n", ric)
    full = np.einsum("nabcd,nabcd->n", r_fr, r_fr)
    ric2 = np.einsum("nab,nab->n", ric, ric)
    pon = np.einsum("nabcd,nabef,cdef->n", r_fr, r_fr, _EPS, optimize=True)
    cols = {"inv_R_full": full, "inv_R_endo": 0.25 * full, "inv_r": ric2,
            "inv_s2": scal * scal,
            "gb_density": (full - 4 * ric2 + scal * scal)
            / (32 * math.pi ** 2),
            "pontryagin_density": pon / (96 * math.pi ** 2)}
    return r_low, r_fr, cols


def _integrand_chunks():
    """The first integrand block of each TN-2 segment (ball, then shell) at
    resolution 4, named by the segment; each holds nodes of two gauges."""
    tn2 = get_entry("taub-nut-2").backend
    segments, _ = tn2.reduction(4, integrals.effective_cutoff(tn2, None))
    for name, seg in zip(("ball", "shell"), segments):
        axes = [quad.panel_rule(e, seg.order)[0] for e in seg.edges]
        grids = np.meshgrid(*axes, indexing="ij")
        pts, _ = seg.embed(*(g.ravel() for g in grids))
        block = pts[:max(1, quad._BLOCK // len(axes[1])) * len(axes[1])]
        assert len({z >= 1.0 for z in block[:, 2]}) == 2
        yield f"tn2-{name}-chunk", tn2, block


ORACLE_CASES = ([(name, b, sample_points(b, 24))
                 for name, b in BACKENDS.items()]
                + list(_integrand_chunks()))


@pytest.mark.parametrize("name,backend,pts", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_riemann_matches_christoffel_derivative_oracle(name, backend, pts):
    batch = curvature_batch(backend, pts)
    r_low, r_fr, cols = _riemann_by_dgamma(backend, pts, batch.h)
    for got, want in ((batch.bivector_low, _on_pairs(r_low)),
                      (batch.bivector_frame, _on_pairs(r_fr))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    scale = np.max(np.abs(cols["inv_R_full"]))
    for col in integrals._COLS:
        diff = np.max(np.abs(getattr(batch, col) - cols[col]))
        assert diff <= 1e-12 * scale, col


# ------------------------------------------------ Riemann on bivector pairs


def test_kernel_holds_no_four_index_tensor():
    tn2 = get_entry("taub-nut-2").backend
    batch = curvature_batch(tn2, sample_points(tn2, 7))
    sample = curvature._sample_from_batch(batch, 0)
    held = {f"batch.{a}": getattr(batch, a) for a in dir(batch)
            if not a.startswith("_")}
    held.update((f"sample.{f}", v) for f, v in sample._asdict().items())
    for name, value in held.items():
        assert np.shape(value)[-4:] != (4, 4, 4, 4), name


@pytest.mark.parametrize("name", list(BACKENDS))
def test_bianchi_identity_holds(name):
    backend = BACKENDS[name]
    for pt in sample_points(backend, 8):
        s = curvature_at(backend, pt)
        assert s.bianchi_residual < 1e-12 * max(1.0, s.inv_R_full)


def _bianchi_on_spread_tensor(r):
    """The residual as it was computed on the (4, 4, 4, 4) frame tensor."""
    return np.max(np.abs(r + np.einsum("acdb->abcd", r)
                         + np.einsum("adbc->abcd", r)))


@pytest.mark.parametrize("name", list(BACKENDS))
def test_bianchi_residual_matches_spread_tensor_formula(name):
    backend = BACKENDS[name]
    batch = curvature_batch(backend, sample_points(backend, 20))
    scale = np.max(np.abs(batch.bivector_frame))
    spread = _spread(batch.bivector_frame)
    for i in range(len(batch.points)):
        new = curvature._sample_from_batch(batch, i).bianchi_residual
        old = _bianchi_on_spread_tensor(spread[i])
        assert abs(new - old) <= 1e-14 * scale


@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2", "schwarzschild"])
def test_boundary_normal_block_matches_einsum_rotation(name, monkeypatch):
    seen = []
    block = boundary._r_i4j4

    def spy(r6, legs):
        seen.append((r6, legs, block(r6, legs)))
        return seen[-1][2]

    monkeypatch.setattr(boundary, "_r_i4j4", spy)
    boundary_report(get_entry(name).backend, 40.0, resolution=4)
    assert len(seen) == 2  # one block on each surface mesh
    for r6, legs, got in seen:
        r_low = _spread(r6)
        want = np.einsum("nia,njb,nkc,nld,nijkl->nabcd", legs, legs, legs,
                         legs, r_low)[:, :3, 3, :3, 3]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
