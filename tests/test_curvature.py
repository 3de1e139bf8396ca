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

from sampling import sample_points
from sdlab.catalog import builtin_names, get_entry
from sdlab.errors import ChartError, DescriptorError
from sdlab.geometry import (FlatTorus, MultiTaubNut, RoundS4, Schwarzschild,
                            boundary_report, curvature_at)
from sdlab.geometry import boundary, curvature, integrals
from sdlab.geometry import quadrature as quad
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
        for pt in sample_points(backend, 10):
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


_NUT = MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))
_PAIR = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))

# case -> (backend, point, explicit step or None, slug or None if accepted)
EXCLUDED = {
    "nut-centre": (_NUT, (0.0, 0.0, 0.0, 0.1), None, "string-excluded"),
    "nut-string": (_NUT, (0.0, 0.0, -2.0, 0.1), None, "string-excluded"),
    # the upper string runs up in this gauge, and down in the default one
    "two-nut-string-up": (MultiTaubNut(0.5, _PAIR, (1, -1)),
                          (0.0, 0.0, 3.0, 0.1), None, "string-excluded"),
    "two-nut-string-down": (MultiTaubNut(0.5, _PAIR),
                            (0.0, 0.0, 3.0, 0.1), None, None),
    "s4-chi-0": (RoundS4(), (0.0, 0.9, 2.3, 0.7), None, "pole-excluded"),
    "s4-chi-pi": (RoundS4(), (math.pi, 0.9, 2.3, 0.7), None,
                  "pole-excluded"),
    "s4-chi-3.5": (RoundS4(), (3.5, 0.9, 2.3, 0.7), None, "pole-excluded"),
    "schwarzschild-theta-0": (Schwarzschild(), (0.8, 0.3, 0.0, 0.8), None,
                              "pole-excluded"),
    "schwarzschild-theta-pi": (Schwarzschild(), (0.8, 0.3, math.pi, 0.8),
                               None, "pole-excluded"),
    # 0.01 from the string: inside the margin 2.5 h at h = 0.01, not at 0.001
    "margin-h-0.01": (_NUT, (0.01, 0.0, -1.0, 0.1), 0.01, "string-excluded"),
    "margin-h-0.001": (_NUT, (0.01, 0.0, -1.0, 0.1), 0.001, None),
    "torus-origin": (FlatTorus(), (0.0, 0.0, 0.0, 0.0), None, None),
    "torus-wide-step": (FlatTorus(), (-1.0, 7.0, 0.0, 100.0), 5.0, None),
}


@pytest.mark.parametrize("case", list(EXCLUDED))
def test_excluded_points_rejected(case):
    backend, point, h, slug = EXCLUDED[case]
    if slug is None:
        assert curvature_at(backend, point, h=h).point == point
        return
    with pytest.raises(ChartError) as err:
        curvature_at(backend, point, h=h)
    assert err.value.slug == slug == backend.excluded


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
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        out[f"two-nut{signs}"] = MultiTaubNut(
            mass=0.5, centers=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
            string_signs=signs)
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
    pon = np.einsum("nabcd,nabef,cdef->n", r_fr, r_fr,
                    curvature._levi_civita4(), optimize=True)
    cols = {"inv_R_full": full, "inv_R_endo": 0.25 * full, "inv_r": ric2,
            "inv_s2": scal * scal,
            "gb_density": (full - 4 * ric2 + scal * scal)
            / (32 * math.pi ** 2),
            "pontryagin_density": pon / (96 * math.pi ** 2)}
    return r_low, r_fr, cols


def _integrand_chunks():
    """The first integrand chunk of each TN-2 segment (near, then far) at
    the CLI's default resolution."""
    tn2 = get_entry("taub-nut-2").backend
    segments, _ = tn2.reduction(4, integrals.effective_cutoff(tn2, None))
    for seg in segments:
        axes = [quad.panel_rule(e, seg.order)[0] for e in seg.edges]
        grids = np.meshgrid(*axes, indexing="ij")
        pts, _ = seg.embed(*(g.ravel() for g in grids))
        yield seg.backend, pts[:integrals._CHUNK]


ORACLE_CASES = ([(name, b, sample_points(b, 24))
                 for name, b in BACKENDS.items()]
                + [(f"tn2-{seg}-chunk", b, pts) for seg, (b, pts)
                   in zip(("near", "far"), _integrand_chunks())])


@pytest.mark.parametrize("name,backend,pts", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_riemann_matches_christoffel_derivative_oracle(name, backend, pts):
    batch = curvature_batch(backend, pts)
    r_low, r_fr, cols = _riemann_by_dgamma(backend, pts, batch.h)
    for got, want in ((batch.riemann_low, r_low), (batch.riemann_frame, r_fr)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    scale = np.max(np.abs(cols["inv_R_full"]))
    for col in integrals._COLS:
        diff = np.max(np.abs(getattr(batch, col) - cols[col]))
        assert diff <= 1e-12 * scale, col


# ------------------------------------------------ Riemann on bivector pairs


def test_integral_never_spreads_riemann_to_four_indices(monkeypatch):
    calls = []
    spread = curvature._riemann4

    def spy(r6):            # each 6 x 6 -> 4^4 expansion, by batch size
        calls.append(len(r6))
        return spread(r6)

    monkeypatch.setattr(curvature, "_riemann4", spy)
    tn2 = get_entry("taub-nut-2").backend
    integrals.integrate_invariants(tn2, resolution=2)
    assert calls == []
    curvature_at(tn2, sample_points(tn2, 1)[0])
    assert calls == [1]


@pytest.mark.parametrize("name", list(BACKENDS))
def test_spread_riemann_is_exactly_antisymmetric(name):
    backend = BACKENDS[name]
    batch = curvature_batch(backend, sample_points(backend, 8))
    for r in (batch.riemann_low, batch.riemann_frame):
        assert np.array_equal(r, -r.transpose(0, 2, 1, 3, 4))
        assert np.array_equal(r, -r.transpose(0, 1, 2, 4, 3))
        assert np.max(np.abs(r)) > 0 or name == "flat-torus"


def _bianchi_on_spread_tensor(r):
    """The residual as it was computed on the (4, 4, 4, 4) frame tensor."""
    return np.max(np.abs(r + np.einsum("acdb->abcd", r)
                         + np.einsum("adbc->abcd", r)))


@pytest.mark.parametrize("name", list(BACKENDS))
def test_bianchi_residual_matches_spread_tensor_formula(name):
    backend = BACKENDS[name]
    batch = curvature_batch(backend, sample_points(backend, 20))
    scale = np.max(np.abs(batch.bivector_frame))
    for i in range(len(batch.points)):
        new = curvature._sample_from_batch(batch, i).bianchi_residual
        old = _bianchi_on_spread_tensor(batch.riemann_frame[i])
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
        r_low = curvature._riemann4(r6)
        want = np.einsum("nia,njb,nkc,nld,nijkl->nabcd", legs, legs, legs,
                         legs, r_low)[:, :3, 3, :3, 3]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
