"""Volume integrals of curvature invariants over the built-in geometries.

Closed-form targets (radius-a round sphere, radius r = a*1 here):
    vol = 8 pi^2 a^4 / 3,  |R|^2 = 24/a^4,  |r|^2 = 36/a^4,  s^2 = 144/a^4
so the full-norm Riemann integral is 64 pi^2, the Ricci one 96 pi^2 and
the scalar one 384 pi^2, independent of a.  Gauss-Bonnet gives exactly 2.
The single-center ALF space has I_gb = 1, I_p = -2/3; the two-center one
doubles both.  The flat torus integrates identically to zero.
"""

import functools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sdlab
from sampling import sample_points
from sdlab.catalog import entry_integrals, get_entry
from sdlab.errors import DomainError
from sdlab.geometry import curvature, integrals
from sdlab.geometry import quadrature as quad
from sdlab.geometry.backends import MultiTaubNut
from sdlab.geometry.curvature import curvature_batch
from sdlab.geometry.integrals import (
    CUTOFF_SCALE_MIN,
    MAX_RESOLUTION,
    CurvatureIntegrals,
    integrate_invariants,
)


def backend(name):
    return get_entry(name).backend


# ---------------------------------------------------------------- flat torus


def test_torus_integrals_vanish_exactly():
    ci = integrate_invariants(backend("flat-torus"), resolution=5)
    assert ci.I_R_full == 0.0
    assert ci.I_R_endo == 0.0
    assert ci.I_r == 0.0
    assert ci.I_s2 == 0.0
    assert ci.I_gb == 0.0
    assert ci.I_p == 0.0
    assert ci.error_estimate == 0.0
    # constant integrand: one node, refined once into two, at any resolution
    assert ci.node_count == 3


# --------------------------------------------------------------- round sphere


def test_sphere_closed_forms():
    ci = integrate_invariants(backend("round-s4"), resolution=3)
    assert ci.I_gb == pytest.approx(2.0, abs=1e-6)
    assert ci.I_R_full == pytest.approx(64.0 * math.pi**2, rel=1e-8)
    assert ci.I_R_endo == pytest.approx(16.0 * math.pi**2, rel=1e-8)
    assert ci.I_r == pytest.approx(96.0 * math.pi**2, rel=1e-8)
    assert ci.I_s2 == pytest.approx(384.0 * math.pi**2, rel=1e-8)
    assert abs(ci.I_p) < 1e-10
    assert ci.error_estimate < 1e-6
    assert ci.cutoff_rho is None and ci.tail_exponent is None


def test_sphere_scale_invariance():
    # every invariant density scales as a^-4 against vol ~ a^4
    from sdlab.geometry.backends import RoundS4

    big = integrate_invariants(RoundS4(a=2.0), resolution=3)
    assert big.I_R_full == pytest.approx(64.0 * math.pi**2, rel=1e-6)
    assert big.I_gb == pytest.approx(2.0, abs=1e-5)


# ----------------------------------------------------------------- ALF spaces


def test_single_center_targets(tn1_integrals):
    ci = tn1_integrals
    assert ci.I_gb == pytest.approx(1.0, rel=0.01)
    assert ci.I_p == pytest.approx(-2.0 / 3.0, rel=0.01)
    assert ci.I_R_endo == pytest.approx(8.0 * math.pi**2, rel=0.01)
    assert ci.I_R_full == pytest.approx(4.0 * ci.I_R_endo, rel=1e-12)
    # Ricci-flat: the Ricci and scalar columns are numerical noise
    assert abs(ci.I_r) < 1e-6
    assert abs(ci.I_s2) < 1e-6
    assert ci.error_estimate < 1e-3
    assert ci.cutoff_rho == pytest.approx(5.0)
    assert ci.tail_exponent is not None and ci.tail_exponent > 2.5


def test_single_center_larger_cutoff_consistent():
    ci = integrate_invariants(backend("taub-nut-1"), resolution=3,
                              cutoff_rho=12.0)
    assert ci.I_gb == pytest.approx(1.0, rel=0.01)
    assert ci.I_p == pytest.approx(-2.0 / 3.0, rel=0.01)
    assert ci.cutoff_rho == 12.0


def test_two_center_doubles():
    ci = integrate_invariants(backend("taub-nut-2"), resolution=1)
    assert ci.I_gb == pytest.approx(2.0, rel=0.01)
    assert ci.I_p == pytest.approx(-4.0 / 3.0, rel=0.01)


def test_coincident_centers_integrate_as_one_charge_two_center():
    # the radial reduction with charge 2; the orbifold values are 1/2 and
    # -1/3.  I_gb is off by 1.82e-3 against an estimate of 1.45e-3: the
    # power-law tail leaves a floor that the estimate does not see
    nut = MultiTaubNut(0.5, ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)))
    coarse, fine = (integrate_invariants(nut, resolution=r) for r in (2, 4))
    assert coarse.I_gb == pytest.approx(0.5, abs=2.5e-3)
    assert coarse.I_p == pytest.approx(-1.0 / 3.0, abs=2.5e-3)
    assert fine.I_gb == pytest.approx(coarse.I_gb, abs=1e-9)
    assert fine.I_p == pytest.approx(coarse.I_p, abs=1e-9)


@functools.lru_cache(maxsize=None)
def two_center_i_gb(centers, facing=None):
    """I_gb of the pair, in the copy facing away from (0, 0, facing) if
    that is given, else in the gauge it is built in."""
    nut = MultiTaubNut(0.5, centers)
    if facing is not None:
        nut = nut.facing_away((0.0, 0.0, facing))
    return integrate_invariants(nut, resolution=1).I_gb


# the three gauges a copy facing away reaches: (1, 1), then (1, -1) or
# (-1, 1) depending on the centre order, then (-1, -1)
@pytest.mark.parametrize("facing", [2.0, 0.0, -2.0],
                         ids=["above", "between", "below"])
@pytest.mark.parametrize("centers", [((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
                                     ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))])
def test_two_center_string_gauge_invariant(centers, facing):
    # the Dirac strings are a gauge choice; no mesh may depend on it
    assert two_center_i_gb(centers, facing) == two_center_i_gb(centers)


@pytest.mark.parametrize("centers, shift", [
    (((0.0, 0.0, 0.0),), (1e4, 0.0, 0.0)),
    (((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)), (1e3, 0.0, 0.0))])
def test_translated_centers_integrate_alike(centers, shift):
    # moving every centre by one vector changes no invariant, so neither
    # the geometry scale nor the default cutoff may move
    here = MultiTaubNut(0.5, centers)
    there = MultiTaubNut(0.5, tuple(tuple(x + d for x, d in zip(c, shift))
                                    for c in centers))
    assert there.geometry_scale() == here.geometry_scale()
    a = integrate_invariants(here, resolution=2)
    b = integrate_invariants(there, resolution=2)
    assert b.cutoff_rho == a.cutoff_rho
    assert b.I_gb == pytest.approx(a.I_gb, abs=1e-9)


def test_schwarzschild_targets(schw_integrals):
    ci = schw_integrals
    assert ci.I_gb == pytest.approx(2.0, rel=0.01)
    assert abs(ci.I_p) < 0.02
    assert abs(ci.I_r) < 1e-6


_COLUMNS = ("I_R_full", "I_R_endo", "I_r", "I_s2", "I_gb", "I_p")
# the extreme corners of perfbench's seeded two-centre manifests, as
# (mass, half-separation c) with the centres at (0, 0, -c) and (0, 0, c)
SEEDED_TN2 = {"seeded-tn2-m0.25-c2.0": (0.25, 2.0),
              "seeded-tn2-m0.8-c0.3": (0.8, 0.3)}


# Round S4 is left out: its kernel is far off at the nodes next to the
# poles, which puts |I_2 - I_4| at 3.6 times its resolution-2 estimate.
@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2", "schwarzschild",
                                  *SEEDED_TN2])
def test_resolution_two_has_the_digits_of_four(integrals_at, name):
    # The CLI integrates at resolution 2.  On every ALF space the fitted
    # tail sets the estimate, so resolution 4's four times the nodes move
    # no column by more than 4.5e-5 of that estimate (measured).
    if name in SEEDED_TN2:
        mass, c = SEEDED_TN2[name]
        b = MultiTaubNut(mass, ((0.0, 0.0, -c), (0.0, 0.0, c)))
    else:
        b = backend(name)
    two, four = integrals_at(b, 2), integrals_at(b, 4)
    for col in _COLUMNS:
        x, y = getattr(two, col), getattr(four, col)
        # the estimate is relative to max(1, |I|), column by column
        assert abs(x - y) <= 1e-3 * two.error_estimate * max(1.0, abs(x)), col
    assert four.error_estimate == pytest.approx(two.error_estimate, rel=0.01)


def test_tail_with_a_sign_change_is_bounded_by_the_window():
    r = np.geomspace(6.2, 9.8, 12)
    v = np.cos(r) / r ** 3
    assert quad.fit_power_tail(r, v, 10.0) \
        == (0.0, np.max(np.abs(v)) * 10.0 * 0.5, None)


def test_graded_edges_are_even_when_the_first_width_covers_the_span():
    assert np.array_equal(quad.graded_edges(0.0, 1.0, 4, first_width=0.5),
                          np.linspace(0.0, 1.0, 5))


# ----------------------------------------------------------------- validation


def test_resolution_must_be_positive():
    with pytest.raises(DomainError) as err:
        integrate_invariants(backend("round-s4"), resolution=0)
    assert err.value.slug == "resolution-positive"


def test_resolution_cap():
    with pytest.raises(DomainError) as err:
        integrate_invariants(backend("round-s4"),
                             resolution=MAX_RESOLUTION + 1)
    assert err.value.slug == "resolution-cap"


def test_cutoff_too_small():
    b = backend("taub-nut-1")
    floor = CUTOFF_SCALE_MIN * b.geometry_scale()
    with pytest.raises(DomainError) as err:
        integrate_invariants(b, resolution=2, cutoff_rho=0.9 * floor)
    assert err.value.slug == "cutoff-too-small"


@pytest.mark.parametrize("integrate", [
    lambda: integrate_invariants(MultiTaubNut(), 1, math.nan),
    lambda: entry_integrals(get_entry("taub-nut-1"), 2, math.nan),
], ids=["integrate_invariants", "entry_integrals"])
def test_nan_cutoff_is_too_large(integrate, capfd, tmp_path, monkeypatch):
    # once LAPACK printed DLASCL lines and numpy raised LinAlgError, and the
    # catalog route failed on the cache key with json-nonfinite
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    with pytest.raises(Exception) as err:
        integrate()
    assert "DLASCL" not in "".join(capfd.readouterr())  # LAPACK's stdout
    assert isinstance(err.value, DomainError)
    assert err.value.slug == "cutoff-too-large"
    assert list(tmp_path.iterdir()) == []


def test_three_centers_unsupported():
    b = MultiTaubNut(mass=0.5,
                     centers=((0, 0, -1), (0, 0, 0), (0, 0, 1)))
    with pytest.raises(DomainError) as err:
        integrate_invariants(b, resolution=2)
    assert err.value.slug == "reduction-unsupported"


def test_unknown_backend_rejected():
    class Mystery:
        pass

    with pytest.raises(DomainError) as err:
        integrate_invariants(Mystery(), resolution=2)
    assert err.value.slug == "backend-unknown"


def test_as_dict_round_trip():
    ci = integrate_invariants(backend("flat-torus"), resolution=2)
    d = ci.as_dict()
    assert CurvatureIntegrals(**d).as_dict() == d


# ------------------------------------------------------------- chunked kernel


def test_chunked_columns_match_one_batch():
    b = backend("taub-nut-2")
    pts = sample_points(b, 5000)
    whole = curvature_batch(b, pts)
    expect = np.stack([getattr(whole, c) for c in integrals._COLS], axis=1)
    assert np.array_equal(integrals._columns(b, pts), expect)


CHARTS = ("flat-torus", "round-s4", "taub-nut-1", "taub-nut-2",
          "schwarzschild")


def _kernel_chunk(b):
    """Nodes per kernel call on `b`: 256 x 61 metric evaluations, rounded
    down to a multiple of 8 nodes."""
    return 256 * 61 // curvature.stencil_size(b) // 8 * 8


def test_kernel_chunk_is_sized_by_metric_evaluations():
    assert [curvature.stencil_size(backend(n)) for n in CHARTS] == [
        1, 113, 61, 61, 61]
    assert _kernel_chunk(backend("round-s4")) == 136
    assert _kernel_chunk(backend("taub-nut-2")) == quad._BLOCK == 256


@pytest.mark.parametrize("resolution", [2, 4])
@pytest.mark.parametrize("name", ["round-s4", "taub-nut-2"])
def test_integrand_batches_are_bounded(monkeypatch, name, resolution):
    blocks = []                    # [block size, its kernel call sizes]
    columns = integrals._columns

    def block_spy(backend, pts):
        blocks.append([len(pts), []])
        return columns(backend, pts)

    def call_spy(backend, pts):
        blocks[-1][1].append(len(pts))
        return curvature_batch(backend, pts)

    monkeypatch.setattr(integrals, "_columns", block_spy)
    monkeypatch.setattr(curvature, "curvature_batch", call_spy)
    b = backend(name)
    integrate_invariants(b, resolution=resolution)
    sizes = [n for _, calls in blocks for n in calls]
    # the refined meshes have more nodes than one chunk; no call holds
    # more than 256 x 61 stencil points, and each call is a whole number
    # of 8-node groups or the whole block (round S4's 60-node mesh at
    # resolution 2 is one call of 60)
    assert sum(sizes) > _kernel_chunk(b)
    assert max(sizes) * curvature.stencil_size(b) <= 256 * 61
    for size, calls in blocks:
        assert sum(calls) == size
        assert calls == [size] or all(n % 8 == 0 for n in calls), blocks


@pytest.mark.parametrize("name", CHARTS)
def test_chunk_size_does_not_change_integrals(monkeypatch, name):
    # The streamed sums do not depend on the block, but a node's kernel
    # values may depend on the size of its kernel call: on OpenBLAS 0.3.31
    # a call under about 80 nodes, or one whose count is 1 to 4 above a
    # multiple of 8, rounds some invariants differently (100- or 138-node
    # chunks moved I_gb by up to 2.3e-14).  The chunk sizes the rule
    # picks, and blocks and chunks of 1000 or 4096 nodes, give equal
    # integrals on every chart backend.
    b = backend(name)
    results = []
    for chunk in (_kernel_chunk(b), 1000, 4096):
        monkeypatch.setattr(quad, "_BLOCK", chunk)
        monkeypatch.setattr(integrals, "_CHUNK_POINTS",
                            chunk * curvature.stencil_size(b))
        results.append(integrate_invariants(
            b, resolution=2 if name == "taub-nut-2" else 4).as_dict())
    assert results[0] == results[1] == results[2]


def test_integral_peak_memory_is_bounded():
    # one kernel chunk's working set, not the mesh, sets the peak: about
    # 3.2 MiB at 256 nodes a chunk, where building the whole mesh first
    # peaked at 5.9 MiB here, 14.3 MiB at resolution 8 and 57 MiB at 16
    b = backend("taub-nut-2")
    integrate_invariants(b, resolution=1)     # lazy imports and tables
    tracemalloc.start()
    try:
        integrate_invariants(b, resolution=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# ------------------------------------------------------------- streamed mesh


def _whole_mesh_sum(f, axes, weights):
    """The quadrature sum with every node built at once, as `_tensor_sum`
    ran before it streamed."""
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.asarray(f(*(g.ravel() for g in grids)), dtype=float)
    vals = vals.reshape(tuple(len(x) for x in axes) + (-1,))
    for w in reversed(weights):
        vals = np.sum(w[:, None] * vals, axis=-2)
    return vals


def _bump(*coords):
    r2 = sum(c * c for c in coords)
    return np.exp(-r2)


def _columns3(*coords):
    r2 = sum(c * c for c in coords)
    return np.stack([np.exp(-r2), np.cos(coords[0]) * r2,
                     np.ones_like(r2)], axis=1)


@pytest.mark.parametrize("f", [_bump, _columns3], ids=["scalar", "columns"])
@pytest.mark.parametrize("panels", [(12500,), (40, 40), (267, 6)],
                         ids=["1d", "2d", "2d-short-rows"])
def test_streamed_sums_equal_the_whole_mesh(f, panels):
    # about 1e5 nodes on the given mesh, four times that refined; rows of
    # 320 nodes are a block each, rows of 48 go five to a block
    edges = [quad.uniform_edges(-1.0, 2.0, p) for p in panels]
    coarse, fine = ([quad.panel_rule(e, 8) for e in es]
                    for es in (edges, [quad.split_edges(e) for e in edges]))
    want = [_whole_mesh_sum(f, [x for x, _ in rules], [w for _, w in rules])
            for rules in (coarse, fine)]
    value, err = quad.integrate_refined(f, edges, 8)
    assert np.array_equal(value, want[1])
    assert np.array_equal(err, np.abs(want[1] - want[0]))
    r = np.linspace(0.5, 1.5, 12)
    assert np.array_equal(quad.first_axis_profile(f, r, edges, 8),
                          _whole_mesh_sum(f, [r] + [x for x, _ in coarse[1:]],
                                          [w for _, w in coarse[1:]]))


@pytest.mark.parametrize("panels", [40, 125])
def test_streamed_peak_memory_does_not_grow_with_the_mesh(panels):
    # 2-D meshes of 102,400 and 1e6 nodes (four times that refined): one
    # block of rows, not the mesh, sets the traced peak
    edges = [quad.uniform_edges(-1.0, 2.0, panels)] * 2
    r = np.linspace(0.5, 1.5, 12)
    quad.integrate_refined(_columns3, edges[:1], 8)     # the Gauss rule
    tracemalloc.start()
    try:
        quad.integrate_refined(_columns3, edges, 8)
        quad.first_axis_profile(_columns3, r, edges, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_NO_MA_CHILD = """
import contextlib, io, sys
from sdlab.cli import main
for name in ("taub-nut-1", "schwarzschild"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["integrate", "--manifold", name, "--no-cache",
                     "--resolution", "1"]) == 0, name
print("numpy.ma" in sys.modules)
"""


def test_alf_integrals_do_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma (12-15 ms) for np.median; the tail fit of
    # every ALF integral must not pay for it
    env = dict(os.environ, SDLAB_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NO_MA_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
