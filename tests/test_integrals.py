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
from sdlab.catalog import get_entry
from sdlab.errors import DomainError
from sdlab.geometry import curvature, integrals
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
    # constant integrand needs a single node
    assert ci.node_count == 1


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


@functools.lru_cache(maxsize=None)
def two_center_i_gb(centers, signs=None):
    nut = MultiTaubNut(0.5, centers, signs)
    return integrate_invariants(nut, resolution=1).I_gb


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
@pytest.mark.parametrize("centers", [((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
                                     ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))])
def test_two_center_string_gauge_invariant(centers, signs):
    # the Dirac strings are a gauge choice; no mesh may depend on it
    assert two_center_i_gb(centers, signs) == two_center_i_gb(centers)


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


def test_integrand_batches_are_bounded(monkeypatch):
    sizes = []

    def spy(backend, pts, h=None):
        sizes.append(len(pts))
        return curvature_batch(backend, pts, h)

    monkeypatch.setattr(curvature, "curvature_batch", spy)
    integrate_invariants(backend("taub-nut-2"), resolution=2)
    # the refined outer mesh has more nodes than one chunk
    assert sum(sizes) > integrals._CHUNK
    assert max(sizes) == integrals._CHUNK == 256


def test_chunk_size_does_not_change_integrals(monkeypatch):
    # every node is computed on its own and sums run in node order, so
    # any chunk, one that divides no mesh (1000) included, gives equal
    # values
    results = []
    for chunk in (integrals._CHUNK, 4096, 1000):
        monkeypatch.setattr(integrals, "_CHUNK", chunk)
        results.append(integrate_invariants(backend("taub-nut-2"),
                                            resolution=2).as_dict())
    assert results[0] == results[1] == results[2]


def test_integral_peak_memory_is_bounded():
    # a chunk's working set, not the mesh, sets the peak: about 5.9 MiB
    # at 256 nodes a chunk, against 104 MiB at 4096
    b = backend("taub-nut-2")
    integrate_invariants(b, resolution=1)     # lazy imports and tables
    tracemalloc.start()
    try:
        integrate_invariants(b, resolution=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


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
