"""Truncation-sphere reports: extrinsic curvature decay and boundary area.

Far from the core the single-center ALF metric looks like a circle bundle
over flat 3-space, so the traceless second fundamental form falls off like
1/rho, the boundary heat densities integrate to O(1/rho) quantities, and
area(rho)/rho^2 tends to 8 pi^2 m (fiber circumference 4 pi m times the
4 pi rho^2 / (2m) base sphere reduction).  Doubling rho should roughly
halve pi_sup; the fitted decay order must stay near 1.
"""

import math

import numpy as np
import pytest

from sdlab.catalog import get_entry
from sdlab.cli import main
from sdlab.errors import DomainError
from sdlab.geometry import boundary, curvature, integrals
from sdlab.geometry.boundary import (TruncationReport, _second_fundamental_form,
                                     boundary_report)

RADII = (20.0, 40.0, 80.0)


@pytest.fixture(scope="module")
def tn_reports():
    b = get_entry("taub-nut-1").backend
    return [boundary_report(b, rho, resolution=4) for rho in RADII]


def test_pi_sup_halves_with_radius(tn_reports):
    sup = [r.pi_sup for r in tn_reports]
    for a, b in zip(sup[1:], sup[:-1]):
        assert 0.45 <= a / b <= 0.55


def test_heat_integrals_strictly_decrease(tn_reports):
    v40 = [abs(r.v40_integral) for r in tn_reports]
    v41 = [abs(r.v41_integral) for r in tn_reports]
    assert v40[0] > v40[1] > v40[2]
    assert v41[0] > v41[1] > v41[2]


def test_fitted_decay_order(tn_reports):
    sup = np.array([r.pi_sup for r in tn_reports])
    slope, _ = np.polyfit(np.log(RADII), np.log(sup), 1)
    assert -slope >= 0.8


def test_asymptotic_area_and_sup_scale(tn_reports):
    # area ~ 8 pi^2 rho^2 for unit-charge mass 1/2; pi_sup ~ 1/rho
    for rho, rep in zip(RADII, tn_reports):
        assert rep.boundary_area / rho**2 == pytest.approx(
            8.0 * math.pi**2, rel=0.05)
        assert rep.pi_sup * rho == pytest.approx(1.0, rel=0.05)


def test_schwarzschild_report():
    b = get_entry("schwarzschild").backend
    rep = boundary_report(b, 30.0, resolution=4)
    assert 0.5 <= rep.pi_sup * 30.0 <= 1.5
    assert rep.boundary_area / 30.0**2 == pytest.approx(
        32.0 * math.pi**2, rel=0.10)


@pytest.mark.parametrize("rho", [20.0, 30.0, 80.0])
def test_schwarzschild_pi_eigenvalues_exact(rho):
    # the sphere bends like -f/rho and the circle like -m/(rho^2 f), with
    # f = sqrt(1 - 2m/rho); the kernel's Christoffels set the error, since
    # the Hessian of the level function comes in closed form
    b = get_entry("schwarzschild").backend
    m = b.mass
    f = math.sqrt(1.0 - 2.0 * m / rho)
    exact = np.sort([-f / rho, -f / rho, -m / (rho * rho * f)])
    theta = (np.arange(32) + 0.5) * math.pi / 32
    pts, jac, _ = b.truncation_surface(rho, theta)
    pi, _ = _second_fundamental_form(b, pts, jac,
                                     curvature.curvature_batch(b, pts))
    err = np.abs(np.linalg.eigvalsh(pi) - exact)
    assert np.max(err) <= 1e-9 * np.max(np.abs(exact))


_OFFS = (-2.0, -1.0, 1.0, 2.0)
_W1 = (1 / 12, -8 / 12, 8 / 12, -1 / 12)


def _five_point(f, pts, h):
    """Fourth-order central differences of f at (n, 4) points along each
    chart axis with step h: f maps (m, 4) points to (m, ...) values, and the
    result is (n, 4, ...), the axis of the derivative first."""
    offs = h * np.array(_OFFS)
    moved = pts[:, None, None] + offs[:, None] * np.eye(4)[:, None]
    vals = f(moved.reshape(-1, 4))
    vals = vals.reshape(len(pts), 4, len(_OFFS), *vals.shape[1:])
    return np.moveaxis(vals, 2, -1) @ np.array(_W1) / h


@pytest.mark.parametrize("rho", [20.0, 80.0, 320.0])
@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2",
                                  "schwarzschild"])
def test_radius_derivatives_match_finite_differences(name, rho):
    # radius, its closed-form derivatives and the truncation surface are one
    # function: the surface is radius = rho, the gradient the oracle's
    # derivative of radius and the Hessian the oracle's of the gradient, to
    # 1e-8 of the largest entry (the step 1e-3 rho leaves about 1e-12)
    b = get_entry(name).backend
    theta = (np.arange(16) + 0.5) * math.pi / 16
    pts, _, _ = b.truncation_surface(rho, theta)
    grad, hess = b.radius_derivatives(pts)
    radius = [b.radius(p) for p in pts]
    assert radius == pytest.approx([rho] * len(pts), rel=1e-14)
    h = 1e-3 * rho
    oracle = _five_point(lambda x: np.array([b.radius(p) for p in x]), pts, h)
    assert np.max(np.abs(oracle - grad)) <= 1e-8 * np.max(np.abs(grad))
    oracle = _five_point(lambda x: b.radius_derivatives(x)[0], pts, h)
    assert np.max(np.abs(oracle - hess)) <= 1e-8 * np.max(np.abs(hess))
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))


def _closed_form_area(name, rho):
    # Schwarzschild: the sphere 4 pi rho^2 times the Killing circle 8 pi m f,
    # f = sqrt(1 - 2m/rho); TN-1: the sphere 4 pi rho^2 V times the fiber
    # 4 pi m V^(-1/2), V = 1 + m/rho
    m = get_entry(name).backend.mass
    if name == "schwarzschild":
        f = math.sqrt(1.0 - 2.0 * m / rho)
        return 32.0 * math.pi ** 2 * m * rho ** 2 * f
    return 16.0 * math.pi ** 2 * m * rho ** 2 * math.sqrt(1.0 + m / rho)


@pytest.mark.parametrize("resolution", [2, 4])
@pytest.mark.parametrize("name", ["schwarzschild", "taub-nut-1"])
@pytest.mark.parametrize("rho", [20.0, 80.0])
def test_boundary_area_matches_closed_form(name, rho, resolution):
    rep = boundary_report(get_entry(name).backend, rho, resolution=resolution)
    assert rep.boundary_area == pytest.approx(_closed_form_area(name, rho),
                                              rel=1e-12)
    assert 0.0 < rep.error_estimate < 1e-5


@pytest.mark.parametrize("rho", [20, 80, 320])
def test_schwarzschild_v40_exact(rho):
    # Pi has eigenvalues lam on the (theta, psi, phi) legs and R_i4i4 reads
    # K there; the density is constant on the sphere
    b = get_entry("schwarzschild").backend
    m = b.mass
    f = math.sqrt(1.0 - 2.0 * m / rho)
    lam = np.array([-f / rho, -m / (rho * rho * f), -f / rho])
    k = np.array([-m, 2.0 * m, -m]) / rho ** 3
    density = (-16.0 * np.sum(k * lam) + (40.0 / 21.0) * np.sum(lam) ** 3
               - (88.0 / 7.0) * np.sum(lam ** 2) * np.sum(lam)
               + (320.0 / 21.0) * np.sum(lam ** 3)) / 360.0
    rep = boundary_report(b, rho, resolution=2)
    area = _closed_form_area("schwarzschild", rho)
    assert rep.v40_integral == pytest.approx(density * area, rel=1e-6)
    assert rep.v41_integral == 4.0 * rep.v40_integral


def test_taub_nut_2_v40_agrees_across_resolutions():
    b = get_entry("taub-nut-2").backend
    v40 = [boundary_report(b, 40.0, resolution=r).v40_integral
           for r in (2, 4, 8)]
    assert max(v40) - min(v40) <= 1e-5 * abs(v40[-1])


@pytest.mark.parametrize("resolution", [2, 3, 4, 5, 8])
def test_report_uses_at_most_16_points_per_resolution_step(monkeypatch,
                                                           resolution):
    # the budget of the midpoint theta grid the Gauss panels replaced
    batches = []
    batch = curvature.curvature_batch

    def spy_batch(backend, pts):
        batches.append(len(pts))
        return batch(backend, pts)

    monkeypatch.setattr(boundary, "curvature_batch", spy_batch)
    boundary_report(get_entry("taub-nut-1").backend, 30.0,
                    resolution=resolution)
    assert len(batches) == 2 and batches[1] == 2 * batches[0]
    assert sum(batches) <= 16 * resolution


@pytest.mark.parametrize("name", ["taub-nut-1", "schwarzschild"])
def test_report_makes_one_kernel_call(monkeypatch, name):
    # one batch on each surface mesh (coarse and doubled), whose metric is
    # evaluated only by the kernel's stencil
    b = get_entry(name).backend
    batches, metric_calls, inside = [], [], []
    batch, derivs = curvature.curvature_batch, curvature._metric_derivatives
    metric = type(b).metric

    def spy_batch(backend, pts):
        batches.append(len(pts))
        return batch(backend, pts)

    def spy_derivs(*args):
        inside.append(True)
        try:
            return derivs(*args)
        finally:
            inside.pop()

    def spy_metric(self, x, nodes=None):
        metric_calls.append(bool(inside))
        return metric(self, x, nodes)

    monkeypatch.setattr(boundary, "curvature_batch", spy_batch)
    monkeypatch.setattr(curvature, "_metric_derivatives", spy_derivs)
    monkeypatch.setattr(type(b), "metric", spy_metric)
    boundary_report(b, 30.0, resolution=4)
    assert batches == [16, 32]
    assert metric_calls == [True, True]


def test_as_dict_round_trip(tn_reports):
    d = tn_reports[0].as_dict()
    assert TruncationReport(**d).as_dict() == d
    assert d["rho"] == 20.0


def test_rho_inside_core_rejected():
    b = get_entry("taub-nut-1").backend
    with pytest.raises(DomainError) as err:
        boundary_report(b, 0.5, resolution=2)
    assert err.value.slug == "rho-inside-core"


@pytest.mark.parametrize("name", ["taub-nut-1", "taub-nut-2",
                                  "schwarzschild"])
def test_rho_capped_like_the_cutoff(name, capsys):
    # one reach caps a volume cutoff, a boundary rho and a curvature point:
    # each passes at it exactly and is refused just above it
    b = get_entry(name).backend
    cap = integrals.alf_reach(b)
    assert cap == integrals.CUTOFF_SCALE_MAX * b.geometry_scale()
    assert integrals.effective_cutoff(b, cap) == cap
    with pytest.raises(DomainError) as err:
        integrals.effective_cutoff(b, math.nextafter(cap, math.inf))
    assert err.value.slug == "cutoff-too-large"
    rep = boundary_report(b, cap, resolution=2)
    assert all(math.isfinite(v) for v in rep.as_dict().values())
    for rho in (math.nextafter(cap, math.inf), 1e100, 1e200, math.nan):
        with pytest.raises(DomainError) as err:
            boundary_report(b, rho, resolution=2)
        assert err.value.slug == "rho-too-large"
    # on the x axis about the centroid, the origin; Schwarzschild's radius
    # is 2m + X^2 + Y^2, off the poles theta = 0 and pi
    x, *rest = ((math.sqrt(cap - 2.0 * b.mass), 0.0, 1.1, 0.8)
                if name == "schwarzschild" else (cap, 0.0, 0.0, 0.3))
    at, above = (x, *rest), (math.nextafter(x, math.inf), *rest)
    assert b.radius(at) == cap < b.radius(above)
    for point, code in ((at, 0), (above, 1)):
        argv = ["curvature", "--manifold", name,
                "--point", ",".join(map(repr, point))]
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: point-too-far:") and err.count("\n") == 1


def test_compact_backend_rejected():
    with pytest.raises(DomainError) as err:
        boundary_report(get_entry("round-s4").backend, 20.0, resolution=2)
    assert err.value.slug == "boundary-needs-alf"


@pytest.mark.parametrize("resolution, slug", [
    (0, "resolution-positive"), (65, "resolution-cap"),
    (2.5, "resolution-positive")])
def test_resolution_bounds(resolution, slug):
    # the same validator as integrate_invariants
    b = get_entry("taub-nut-1").backend
    with pytest.raises(DomainError) as err:
        boundary_report(b, 20.0, resolution=resolution)
    assert err.value.slug == slug
