"""Volume integrals of curvature invariants over the built-in geometries.

Closed-form targets (radius-a round sphere, radius r = a*1 here):
    vol = 8 pi^2 a^4 / 3,  |R|^2 = 24/a^4,  |r|^2 = 36/a^4,  s^2 = 144/a^4
so the full-norm Riemann integral is 64 pi^2, the Ricci one 96 pi^2 and
the scalar one 384 pi^2, independent of a.  Gauss-Bonnet gives exactly 2.
The single-center ALF space has I_gb = 1, I_p = -2/3; the two-center one
doubles both.  The flat torus integrates identically to zero.
"""

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


def _seeded_or_entry(name):
    if name in SEEDED_TN2:
        mass, c = SEEDED_TN2[name]
        return MultiTaubNut(mass, ((0.0, 0.0, -c), (0.0, 0.0, c)))
    return backend(name)


# Round S4 is left out: its kernel is far off at the nodes next to the
# poles, which puts |I_2 - I_4| at 3.6 times its resolution-2 estimate.
@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2", "schwarzschild",
                                  *SEEDED_TN2])
def test_resolution_two_has_the_digits_of_four(integrals_at, name):
    # The CLI integrates at resolution 2.  On every ALF space the fitted
    # tail sets the estimate, so resolution 4's four times the nodes move
    # no column by more than 4.5e-5 of that estimate (measured).
    b = _seeded_or_entry(name)
    two, four = integrals_at(b, 2), integrals_at(b, 4)
    if name == "seeded-tn2-m0.25-c2.0":
        # The prolate chart took this corner's resolution-2 estimate down
        # 60-fold, to 3.8e-7, where |I_2 - I_4| (6.5e-10, measured) is the
        # kernel's own floor and the resolution-4 estimate (7.6e-8) is the
        # tail's: absolute bounds, tighter than the relative ones were
        # (2.3e-8 on the columns, 2.26e-5 on the estimate).
        for col in _COLUMNS:
            x, y = getattr(two, col), getattr(four, col)
            assert abs(x - y) <= 1e-8 * max(1.0, abs(x)), col
        assert two.error_estimate <= 1e-6
        return
    for col in _COLUMNS:
        x, y = getattr(two, col), getattr(four, col)
        # the estimate is relative to max(1, |I|), column by column
        assert abs(x - y) <= 1e-3 * two.error_estimate * max(1.0, abs(x)), col
    assert four.error_estimate == pytest.approx(two.error_estimate, rel=0.01)


# the node counts of the two-centre chart, fixed by the panel counts: a
# 3 x 3 ball and a 3 x 2 shell of order-8 panels at resolution 2, each
# refined once, and the tail window's 12 radii on the shell's angles;
# twice the panels at resolution 4.  The polar chart before it used
# 13,184 and 51,968 nodes
TWO_CENTRE_NODES = {2: 4992, 4: 19584}


@pytest.mark.parametrize("name", ["taub-nut-2", *SEEDED_TN2])
def test_two_centre_node_count_is_pinned(integrals_at, name):
    b = _seeded_or_entry(name)
    for resolution, nodes in TWO_CENTRE_NODES.items():
        assert integrals_at(b, resolution).node_count == nodes


# perfbench's seeded two-centre manifests span these corners
@pytest.mark.parametrize("mass", [0.25, 0.8])
@pytest.mark.parametrize("c", [0.3, 2.0])
def test_two_centre_quadrature_estimate_at_resolution_two(mass, c):
    # The quadrature's own doubled-mesh estimate, the tail left out: the
    # polar chart stalled at 1.5e-6 (c/m = 2) to 2.25e-5 (c/m = 8) at the
    # centre corners; the prolate ball is smooth up to the centres, and
    # reads 9.3e-10 on taub-nut-2 and at most 3.1e-7 on these corners
    # (measured)
    nut = MultiTaubNut(mass, ((0.0, 0.0, -c), (0.0, 0.0, c)))
    segments, _ = nut.reduction(2, integrals.effective_cutoff(nut, None))
    vals, errs = np.sum([quad.integrate_refined(integrals._integrand(seg),
                                                seg.edges, seg.order)
                         for seg in segments], axis=0)
    assert np.max(errs / np.maximum(1.0, np.abs(vals))) <= 1e-6


def test_tail_with_a_sign_change_is_bounded_by_the_window():
    r = np.geomspace(6.2, 9.8, 12)
    v = np.cos(r) / r ** 3
    assert quad.fit_power_tail(r, v, 10.0) \
        == (0.0, np.max(np.abs(v)) * 10.0 * 0.5, None)


def test_graded_edges_are_even_when_the_first_width_covers_the_span():
    assert np.array_equal(quad.graded_edges(0.0, 1.0, 4, first_width=0.5),
                          np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("anchor, far, panels, first_width", [
    (0.0, 1000.0, 2, 1e-3), (1.0, 15.0, 3, 0.05), (0.0, 100.0, 3, 0.5 / 6),
    (5.0, -95.0, 4, 1e-4), (0.0, 1.0, 6, 0.1)])
def test_graded_edges_honour_the_first_width(anchor, far, panels,
                                              first_width):
    # a ratio above 10 was once cut to 10 and every width rescaled, which
    # made the first panel 90.9 wide in the first case
    edges = quad.graded_edges(anchor, far, panels, first_width)
    widths = np.diff(edges) if far > anchor else np.diff(edges)[::-1]
    assert edges[[0, -1]] == pytest.approx(sorted((anchor, far)), rel=1e-15)
    assert widths[0] == pytest.approx(first_width, rel=1e-9)
    np.testing.assert_allclose(widths[1:] / widths[:-1],
                               widths[1] / widths[0], rtol=1e-9)


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


CHARTS = ("flat-torus", "round-s4", "taub-nut-1", "taub-nut-2",
          "schwarzschild")


def _call_cases():
    """(id, backend, 300 sample points) on each chart backend; the TN-2
    points lie below, between and above its centres, in three gauges."""
    for name in CHARTS:
        b = backend(name)
        pts = sample_points(b, 300)
        if name == "taub-nut-2":
            assert set(np.digitize(pts[:, 2], [-1.0, 1.0])) == {0, 1, 2}
        yield name, b, pts


CALL_CASES = list(_call_cases())


@pytest.mark.parametrize("name,b,pts", CALL_CASES,
                         ids=[c[0] for c in CALL_CASES])
def test_chunked_columns_match_one_batch(name, b, pts):
    # a node's bits depend on the node alone: chunked columns, every call
    # size from 1 to 300 and a few 5-node windows give one call's bits
    def columns(p):
        batch = curvature_batch(b, p)
        return np.stack([getattr(batch, c) for c in integrals._COLS], axis=1)

    whole = columns(pts)
    assert len(pts) == 300
    assert np.array_equal(integrals._columns(b, pts), whole)
    for size in range(1, len(pts) + 1):
        assert np.array_equal(columns(pts[:size]), whole[:size]), size
    for start in (1, 7, 133, 295):
        assert np.array_equal(columns(pts[start:start + 5]),
                              whole[start:start + 5]), start


def _kernel_chunk(b):
    """Nodes per kernel call on `b`: 256 x 61 metric evaluations."""
    return 256 * 61 // curvature.stencil_size(b)


def _kernel_calls(monkeypatch):
    """The node count of each kernel call from here on, in a list."""
    sizes = []

    def spy(backend, pts):
        sizes.append(len(pts))
        return curvature_batch(backend, pts)

    monkeypatch.setattr(curvature, "curvature_batch", spy)
    return sizes


def test_kernel_chunk_is_sized_by_metric_evaluations(monkeypatch):
    assert [curvature.stencil_size(backend(n)) for n in CHARTS] == [
        1, 113, 61, 61, 61]
    assert _kernel_chunk(backend("round-s4")) == 138
    assert _kernel_chunk(backend("taub-nut-2")) == quad._BLOCK == 256
    sizes = _kernel_calls(monkeypatch)
    for name in ("round-s4", "taub-nut-1"):
        b = backend(name)
        integrals._columns(b, sample_points(b, 300))
    # plain chunks of the kernel's size, the last one taking what is left
    assert sizes == [138, 138, 24, 256, 44]


@pytest.mark.parametrize("resolution", [2, 4])
@pytest.mark.parametrize("name", CHARTS)
def test_integrand_batches_are_bounded(monkeypatch, name, resolution):
    sizes = _kernel_calls(monkeypatch)
    b = backend(name)
    ci = integrate_invariants(b, resolution=resolution)
    # the kernel evaluates each node once, with no padding, and no call
    # holds more than 256 x 61 stencil points
    assert sum(sizes) == ci.node_count
    assert max(sizes) * curvature.stencil_size(b) <= 256 * 61
    if name == "taub-nut-2":
        assert ci.node_count == {2: 4992, 4: 19584}[resolution]


@pytest.mark.parametrize("resolution, calls", [(2, 22), (4, 90)])
def test_two_centre_integral_makes_one_kernel_call_a_block(monkeypatch,
                                                           resolution, calls):
    # each integrand block, whatever gauges its nodes take, is one kernel
    # call (44 and 180 calls when each gauge had a call of its own)
    blocks = []
    columns = integrals._columns

    def spy(b, pts):
        blocks.append(len(pts))
        return columns(b, pts)

    monkeypatch.setattr(integrals, "_columns", spy)
    sizes = _kernel_calls(monkeypatch)
    ci = integrate_invariants(backend("taub-nut-2"), resolution=resolution)
    assert sizes == blocks and len(sizes) == calls
    assert sum(sizes) == ci.node_count


@pytest.mark.parametrize("name", CHARTS)
def test_chunk_size_does_not_change_integrals(monkeypatch, name):
    # The streamed sums do not depend on the block, and a node's kernel
    # values do not depend on the size of its kernel call (no product in
    # the kernel has a shape that holds the node count).  The chunk size
    # the rule picks, 100- and 138-node chunks (each once moved I_gb by up
    # to 2.3e-14, when BLAS picked its kernels by the call's size), and
    # blocks and chunks of 1000 or 4096 nodes give equal integrals on
    # every chart backend.
    b = backend(name)
    results = []
    for chunk in (_kernel_chunk(b), 100, 138, 1000, 4096):
        monkeypatch.setattr(quad, "_BLOCK", chunk)
        monkeypatch.setattr(integrals, "_CHUNK_POINTS",
                            chunk * curvature.stencil_size(b))
        results.append(integrate_invariants(
            b, resolution=2 if name == "taub-nut-2" else 4).as_dict())
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("nut", [
    MultiTaubNut(0.5, ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))),
    MultiTaubNut(0.5, ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))),
    *map(_seeded_or_entry, SEEDED_TN2)],
    ids=["lower-first", "upper-first", *SEEDED_TN2])
def test_gauge_groups_integrate_to_the_bits_of_one_call(integrals_at,
                                                        monkeypatch, nut):
    # a kernel call once held the nodes of one gauge, those with as many
    # centres at or below them; one call a block gives the same bytes
    whole = integrals_at(nut, 2).as_dict()
    columns = integrals._columns

    def by_gauge(b, pts):
        out = np.empty((len(pts), len(integrals._COLS)))
        below = sum(pts[:, 2] >= c[2] for c in b.centers)
        for k in set(below):
            out[below == k] = columns(b, pts[below == k])
        return out

    monkeypatch.setattr(integrals, "_columns", by_gauge)
    assert integrate_invariants(nut, 2).as_dict() == whole


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
for name in ("taub-nut-1", "taub-nut-2", "schwarzschild"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["integrate", "--manifold", name, "--no-cache",
                     "--resolution", "1"]) == 0, name
print("numpy.ma" in sys.modules)
"""


def test_alf_integrals_do_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma (12-15 ms) for np.median, and np.unique
    # does too; the tail fit of every ALF integral must not pay for it
    env = dict(os.environ, SDLAB_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NO_MA_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
