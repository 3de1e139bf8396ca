"""End-to-end acceptance gate, one test per shipped guarantee.

Each test states its tolerance inline and runs the public API the way a
user would; `pytest -v` then gives one pass/fail line per guarantee.
The stated time budgets are asserted, not aspirational.
"""

import math
import time

import numpy as np
import pytest

from sampling import sample_points
from sdlab.assembly import (
    anomaly_counterterms,
    assemble_partition,
    imtau_exponent,
    neck_check,
    verify_modularity,
    weights_for,
)
from sdlab.catalog import _GEOMETRIES, entry_integrals, get_entry
from sdlab.errors import ConsistencyError
from sdlab.geometry.curvature import curvature_at
from sdlab.geometry.boundary import boundary_report
from sdlab.geometry.integrals import integrate_invariants
from sdlab.lattice_sum import brute_force_partition, theta_product
from sdlab.modular_forms import (
    cot_contour_theta,
    principal_power,
    s_transform_residual,
    theta,
)
from sdlab.spectral_zeta import (
    epstein_zeta_at_zero,
    heat_zeta_zero,
    torus_zeta_zero,
)

TAUS = (0.3 + 0.8j, -1.1 + 0.4j, 0.05 + 2.2j, 0.77 + 1.3j, -2.4 + 0.15j)


def test_criterion_01_theta_transformation_laws():
    """20 couplings: shift-by-2 residual <= 1e-12, inversion <= 1e-9, < 1 s."""
    rng = np.random.default_rng(2024)
    taus = [complex(re, im) for re, im in
            zip(rng.uniform(-3, 3, 20), rng.uniform(0.2, 3.0, 20))]
    t0 = time.perf_counter()
    for tau in taus:
        base = theta(tau).value
        shifted = theta(tau + 2.0).value
        assert abs(shifted - base) <= 1e-12 * abs(base)
        assert s_transform_residual(tau) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_lattice_factorization():
    """Brute-force box-30 sums match theta-power products to 1e-8, < 10 s."""
    tau = 0.3 + 0.7j
    t0 = time.perf_counter()
    for bplus, bminus in ((1, 0), (0, 1), (1, 1), (2, 1)):
        brute = brute_force_partition(bplus, bminus, 30, tau)
        product = theta_product(bplus, bminus, tau)
        assert abs(brute - product) <= 1e-8 * abs(product)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_gauss_bonnet_integrals():
    """Euler integrals: 0 exact, 2 +- 1e-3, 1 +- 1%, 2 +- 2%, 2 +- 1%; < 5 min."""
    t0 = time.perf_counter()
    torus = integrate_invariants(get_entry("flat-torus").backend, 4)
    assert torus.I_gb == 0.0
    s4 = integrate_invariants(get_entry("round-s4").backend, 3)
    assert abs(s4.I_gb - 2.0) <= 1e-3
    tn1 = integrate_invariants(get_entry("taub-nut-1").backend, 4)
    assert abs(tn1.I_gb - 1.0) <= 0.01
    tn2 = integrate_invariants(get_entry("taub-nut-2").backend, 6)
    assert abs(tn2.I_gb - 2.0) <= 0.04
    schw = integrate_invariants(get_entry("schwarzschild").backend, 4)
    assert abs(schw.I_gb - 2.0) <= 0.02
    assert time.perf_counter() - t0 < 300.0


def test_criterion_04_ricci_flatness_of_alf_metrics():
    """|Ricci| <= 1e-6 |Riemann| at 50 sampled points on each ALF space.
    Boundary reports rest on this, so every ALF backend is tested."""
    names = ("taub-nut-1", "taub-nut-2", "schwarzschild")
    alf = {build for build, _ in _GEOMETRIES.values()
           if getattr(build, "alf", False)}
    assert {type(get_entry(name).backend) for name in names} == alf
    for name in names:
        backend = get_entry(name).backend
        for point in sample_points(backend, 50):
            s = curvature_at(backend, point)
            # the Frobenius norms of the frame Ricci and Riemann tensors
            assert math.sqrt(s.inv_r) <= 1e-6 * math.sqrt(s.inv_R_full)


def test_criterion_05_spectral_zeta_dual_routes():
    """Epstein continuation matches the heat-coefficient route to 1e-14."""
    desc = get_entry("flat-torus").descriptor
    zeros, _, _ = entry_integrals(get_entry("flat-torus"), resolution=2)
    heat0 = heat_zeta_zero(desc, zeros, 0).zeta_at_zero
    assert heat0 == -1.0
    for seed in (11, 23, 47):
        rng = np.random.default_rng(seed)
        basis = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        val, _ = epstein_zeta_at_zero(basis)
        assert abs(val - heat0) <= 1e-14
    one_forms = torus_zeta_zero(np.eye(4), 1).zeta_at_zero
    assert abs(one_forms - (-4.0)) <= 1e-14


def test_criterion_06_single_center_weights_and_factors(tn1_integrals):
    """Quadrature route: E = 1/30 and (alpha, beta) = (-1/30, 7/15) +- 2%,
    with the partition value reproduced factor by factor."""
    desc = get_entry("taub-nut-1").descriptor
    e = imtau_exponent(desc, tn1_integrals)
    assert e == pytest.approx(1.0 / 30.0, rel=0.02)
    w = weights_for(desc, tn1_integrals)
    assert w.alpha == pytest.approx(-1.0 / 30.0, rel=0.02)
    assert w.beta == pytest.approx(7.0 / 15.0, rel=0.02)
    tau = 0.3 + 0.8j
    ev = assemble_partition(desc, tau, curv=tn1_integrals)
    f = ev.factors
    assert f["theta_plus"] == 1.0
    assert f["theta_minus"] == pytest.approx(
        theta(-tau.conjugate()).value, rel=1e-12)
    assert f["imtau_power_exponent"] == e
    assert f["torsion_factor"] == 1.0 and f["torus_volume"] == 1.0
    product = (f["torsion_factor"] * f["theta_plus"] * f["theta_minus"]
               * f["torus_volume"] * f["det_factor"]
               * principal_power(tau.imag / (8.0 * math.pi ** 2), e))
    assert abs(product - ev.value) <= 1e-12 * abs(ev.value)


def test_criterion_07_boundary_term_decay():
    """Doubling radii 20/40/80: sup ratios in [0.45, 0.55], quartic
    boundary integrals strictly decreasing, fitted order >= 0.8."""
    backend = get_entry("taub-nut-1").backend
    reports = [boundary_report(backend, rho, resolution=4)
               for rho in (20.0, 40.0, 80.0)]
    sups = [r.pi_sup for r in reports]
    for later, earlier in zip(sups[1:], sups[:-1]):
        assert 0.45 <= later / earlier <= 0.55
    for field in ("v40_integral", "v41_integral"):
        seq = [abs(getattr(r, field)) for r in reports]
        assert seq[0] > seq[1] > seq[2]
    slope, _ = np.polyfit(np.log((20.0, 40.0, 80.0)), np.log(sups), 1)
    assert -slope >= 0.8


def test_criterion_08_neck_rule_and_anomaly_gate(tn1_integrals,
                                                 schw_integrals):
    """Neck condition derives b1_D = 0 on the circle-fibered spaces and
    refuses on the spin-flip one, which then fails the anomaly map."""
    assert neck_check(get_entry("taub-nut-1").descriptor) == {
        "condition_holds": True, "derived_b1_D": 0}
    assert neck_check(get_entry("taub-nut-2").descriptor) == {
        "condition_holds": True, "derived_b1_D": 0}
    assert neck_check(get_entry("schwarzschild").descriptor) == {
        "condition_holds": False, "derived_b1_D": None}
    report = anomaly_counterterms(get_entry("taub-nut-1").descriptor,
                                  tn1_integrals)
    assert report["reconstructed_alpha"] == pytest.approx(
        report["weights_alpha"], abs=1e-12)
    with pytest.raises(ConsistencyError):
        anomaly_counterterms(get_entry("schwarzschild").descriptor,
                             schw_integrals)


def test_criterion_09_modular_covariance(tn1_integrals):
    """Inversion plus shift law at 5 couplings: residual <= 1e-8 on the
    compact entries and <= 1e-6 on the quadrature-backed ALF one."""
    for name in ("flat-torus", "k3-analytic"):
        entry = get_entry(name)
        curv, _, _ = entry_integrals(entry, 2)
        assert verify_modularity(entry.descriptor, TAUS, curv=curv) <= 1e-8
    assert verify_modularity(get_entry("taub-nut-1").descriptor, TAUS,
                             curv=tn1_integrals) <= 1e-6


def test_criterion_10_contour_route_for_theta():
    """Cotangent-kernel contour sums match the series to 1e-6 and are
    stable across shift parameters in [0.1, 0.3]."""
    for u in (1j, 2j, 0.5 + 1j):
        ref = theta(u, tol=1e-12).value
        minus_values = []
        for eps in (0.1, 0.15, 0.2, 0.25, 0.3):
            plus, minus = cot_contour_theta(u, eps, tol=1e-8)
            assert abs(minus - ref) <= 1e-6
            assert abs(plus + ref) <= 1e-6
            minus_values.append(minus)
        assert max(abs(v - minus_values[0]) for v in minus_values) <= 1e-6


def test_criterion_11_convention_pair(tn1_integrals):
    """Both curvature conventions are reported, and on Ricci-flat input
    the full-norm correction is exactly twice the endomorphism one."""
    desc = get_entry("taub-nut-1").descriptor
    w_paper = weights_for(desc, tn1_integrals, "paper-endo")
    w_gilkey = weights_for(desc, tn1_integrals, "gilkey-full")
    assert w_paper.convention == "paper-endo"
    assert w_gilkey.convention == "gilkey-full"
    e_paper = imtau_exponent(desc, tn1_integrals, "paper-endo")
    e_gilkey = imtau_exponent(desc, tn1_integrals, "gilkey-full")
    assert abs(e_gilkey - 2.0 * e_paper) <= 1e-12
    assert (w_paper.alpha - w_paper.beta) == (w_gilkey.alpha
                                              - w_gilkey.beta)
    for conv in ("paper-endo", "gilkey-full"):
        report = anomaly_counterterms(desc, tn1_integrals, conv)
        assert report["convention"] == conv
        assert report["reconstructed_alpha"] == pytest.approx(
            report["weights_alpha"], abs=1e-12)
