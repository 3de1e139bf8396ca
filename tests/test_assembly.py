"""Descriptor assembly: weights, partition factors, anomaly coefficients.

Weight targets below are hand-derived from the closed-form integrals.
Flat torus: all corrections vanish, (alpha, beta, E) = (0, 0, 3/2).
Round sphere: endomorphism convention gives E = (7/30 - 1)/2 = -23/60 and
alpha = beta = 23/60; the full-norm convention shifts 7/30 to 11/30,
hence 19/60.  The L2-data ALF spaces use derived Dirichlet numbers
(0, 0); with the exact integrals 8 pi^2 (endo) and -2/3 the single-center
space lands on (-1/30, 7/15, E = 1/30).
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.assembly import (
    ManifoldDescriptor,
    ModularWeights,
    anomaly_counterterms,
    assemble_partition,
    imtau_exponent,
    neck_check,
    pathological_partition,
    verify_modularity,
    weights_for,
)
from sdlab.catalog import get_entry
from sdlab.errors import ConsistencyError, DescriptorError, DomainError
from sdlab.geometry.integrals import CurvatureIntegrals
from sdlab.modular_forms import theta

PI2 = math.pi**2
TAUS = (0.3 + 0.8j, -1.1 + 0.4j, 0.05 + 2.2j, 0.77 + 1.3j, -2.4 + 0.15j)


def ci(**kw):
    base = dict(I_R_full=0.0, I_R_endo=0.0, I_r=0.0, I_s2=0.0,
                I_gb=0.0, I_p=0.0, error_estimate=0.0, resolution=0,
                cutoff_rho=None, node_count=0)
    base.update(kw)
    return CurvatureIntegrals(**base)


ZERO = ci()
S4 = ci(I_R_full=64 * PI2, I_R_endo=16 * PI2, I_r=96 * PI2,
        I_s2=384 * PI2, I_gb=2.0)
TN1 = ci(I_R_full=32 * PI2, I_R_endo=8 * PI2, I_gb=1.0, I_p=-2.0 / 3.0)
TN2 = ci(I_R_full=64 * PI2, I_R_endo=16 * PI2, I_gb=2.0, I_p=-4.0 / 3.0)


def desc(name):
    return get_entry(name).descriptor


# ------------------------------------------------------- descriptor validity


@pytest.mark.parametrize("kw,slug", [
    (dict(kind="closed"), "kind-unknown"),
    (dict(b1=-1), "betti-nonnegative"),
    (dict(torsion_order=0), "torsion-positive"),
    (dict(vol_flat_torus_factor=-2.0), "volume-factor-positive"),
    (dict(b0=0), "connected-b0"),
    (dict(b0_D=0), "dirichlet-data-compact"),
])
def test_compact_descriptor_rejections(kw, slug):
    base = dict(name="x", kind="compact", b0=1, b1=0,
                bplus_l2=1, bminus_l2=1)
    base.update(kw)
    with pytest.raises(DescriptorError) as err:
        ManifoldDescriptor(**base)
    assert err.value.slug == slug


@pytest.mark.parametrize("kw,slug", [
    (dict(b0_D=None, b1_D=None), "dirichlet-data-missing"),
    (dict(b1_D="derive", h1_neck_trivial=None), "neck-flag-missing"),
    (dict(b1_D=3), "dirichlet-betti-bound"),
])
def test_alf_descriptor_rejections(kw, slug):
    base = dict(name="x", kind="alf", b0=1, b1=2, bplus_l2=0,
                bminus_l2=1, b0_D=0, b1_D=0, h1_neck_trivial=True)
    base.update(kw)
    with pytest.raises(DescriptorError) as err:
        ManifoldDescriptor(**base)
    assert err.value.slug == slug


def test_integrals_required():
    with pytest.raises(DescriptorError) as err:
        weights_for(desc("flat-torus"))
    assert err.value.slug == "integrals-missing"


# --------------------------------------------------------------- the weights


def test_torus_weights():
    w = weights_for(desc("flat-torus"), ZERO)
    assert w.alpha == 0.0 and w.beta == 0.0 and w.sigma_phase == 0.0
    assert imtau_exponent(desc("flat-torus"), ZERO) == 1.5


@pytest.mark.parametrize("convention,frac", [
    ("paper-endo", 23.0), ("gilkey-full", 19.0)])
def test_sphere_weights_both_conventions(convention, frac):
    w = weights_for(desc("round-s4"), S4, convention)
    assert w.alpha == pytest.approx(frac / 60.0, abs=1e-12)
    assert w.beta == pytest.approx(frac / 60.0, abs=1e-12)
    e = imtau_exponent(desc("round-s4"), S4, convention)
    assert e == pytest.approx(-frac / 60.0, abs=1e-12)
    assert w.convention == convention


def test_k3_weights_from_stored_integrals():
    w = weights_for(desc("k3-analytic"))
    assert w.alpha == pytest.approx(1.2, abs=1e-12)
    assert w.beta == pytest.approx(9.2, abs=1e-12)
    assert w.sigma_phase == -8.0
    assert imtau_exponent(desc("k3-analytic")) == pytest.approx(
        0.3, abs=1e-12)


@pytest.mark.parametrize("convention,a,b,e", [
    ("paper-endo", -1.0 / 30.0, 7.0 / 15.0, 1.0 / 30.0),
    ("gilkey-full", -1.0 / 15.0, 13.0 / 30.0, 1.0 / 15.0)])
def test_single_center_weights(convention, a, b, e):
    w = weights_for(desc("taub-nut-1"), TN1, convention)
    assert w.alpha == pytest.approx(a, abs=1e-12)
    assert w.beta == pytest.approx(b, abs=1e-12)
    assert imtau_exponent(desc("taub-nut-1"), TN1, convention) == \
        pytest.approx(e, abs=1e-12)


def test_two_center_weights():
    w = weights_for(desc("taub-nut-2"), TN2)
    assert w.alpha == pytest.approx(-1.0 / 15.0, abs=1e-12)
    assert w.beta == pytest.approx(14.0 / 15.0, abs=1e-12)


def test_explicit_dirichlet_weights():
    d = ManifoldDescriptor(name="capped", kind="alf", b0=1, b1=0,
                           bplus_l2=1, bminus_l2=1, b0_D=0, b1_D=0,
                           h1_neck_trivial=False)
    w = weights_for(d, ci(I_gb=2.0))
    assert w.alpha == 0.5 and w.beta == 0.5
    assert imtau_exponent(d, ci(I_gb=2.0)) == 0.0


def test_underived_dirichlet_rejected(schw_integrals):
    with pytest.raises(DescriptorError) as err:
        weights_for(desc("schwarzschild"), schw_integrals)
    assert err.value.slug == "dirichlet-underived"


def test_engine_integrals_near_exact(tn1_integrals):
    w = weights_for(desc("taub-nut-1"), tn1_integrals)
    assert w.alpha == pytest.approx(-1.0 / 30.0, rel=0.02)
    assert w.beta == pytest.approx(7.0 / 15.0, rel=0.02)


def test_weight_identities_all_entries():
    cases = [("flat-torus", ZERO), ("round-s4", S4), ("k3-analytic", None),
             ("taub-nut-1", TN1), ("taub-nut-2", TN2)]
    for name, curv in cases:
        d = desc(name)
        for conv in ("paper-endo", "gilkey-full"):
            w = weights_for(d, curv, conv)
            e = imtau_exponent(d, curv, conv)
            assert w.alpha - w.beta == pytest.approx(
                0.5 * (d.bplus_l2 - d.bminus_l2), abs=5e-15)
            assert w.alpha == pytest.approx(0.5 * d.bplus_l2 - e, abs=5e-15)
            assert w.sigma_phase == 0.5 * (d.bplus_l2 - d.bminus_l2)


def test_convention_factor_two_on_ricci_flat():
    # zero Ricci and scalar columns: the correction doubles exactly
    e_paper = imtau_exponent(desc("taub-nut-1"), TN1, "paper-endo")
    e_gilkey = imtau_exponent(desc("taub-nut-1"), TN1, "gilkey-full")
    assert e_gilkey == 2.0 * e_paper


def test_unknown_convention_rejected():
    with pytest.raises(DomainError) as err:
        weights_for(desc("flat-torus"), ZERO, "minimal-subtraction")
    assert err.value.slug == "convention-unknown"


def test_weights_as_dict():
    d = weights_for(desc("k3-analytic")).as_dict()
    assert set(d) == {"alpha", "beta", "sigma_phase", "convention"}


# ---------------------------------------------------------- partition values


def test_torus_partition_at_i():
    ev = assemble_partition(desc("flat-torus"), 1j, curv=ZERO)
    th = theta(1j).value
    assert ev.value == pytest.approx(
        th**6 * (1.0 / (8.0 * PI2)) ** 1.5, rel=1e-13)
    f = ev.factors
    assert f["theta_plus"] == pytest.approx(th**3, rel=1e-13)
    assert f["theta_minus"] == pytest.approx(th**3, rel=1e-13)
    assert f["imtau_power_exponent"] == 1.5
    assert f["torsion_factor"] == 1.0
    assert f["det_factor"] == 1.0


def test_factor_product_reproduces_value():
    from sdlab.modular_forms import principal_power

    for name, curv in [("k3-analytic", None), ("taub-nut-1", TN1)]:
        for tau in TAUS:
            ev = assemble_partition(desc(name), tau, curv=curv)
            f = ev.factors
            prod = (f["torsion_factor"] * f["theta_plus"] * f["theta_minus"]
                    * f["torus_volume"] * f["det_factor"]
                    * principal_power(tau.imag / (8.0 * PI2),
                                      f["imtau_power_exponent"]))
            assert abs(prod - ev.value) <= 1e-12 * abs(ev.value)


def test_alf_partition_has_trivial_plus_factor():
    ev = assemble_partition(desc("taub-nut-1"), 0.3 + 0.8j, curv=TN1)
    assert ev.factors["theta_plus"] == 1.0
    assert ev.factors["theta_minus"] != 1.0


def test_partition_requires_upper_half_plane():
    with pytest.raises(DomainError) as err:
        assemble_partition(desc("k3-analytic"), 0.3 - 0.8j)
    assert err.value.slug == "tau-upper-half"


def test_partition_as_dict():
    d = assemble_partition(desc("k3-analytic"), 1j).as_dict()
    assert set(d) == {"value", "factors"}


# ------------------------------------------------------------ modular law


def test_modularity_torus_exact():
    assert verify_modularity(desc("flat-torus"), TAUS, curv=ZERO) < 1e-12


def test_modularity_k3():
    assert verify_modularity(desc("k3-analytic"), TAUS) < 1e-8


@pytest.mark.parametrize("convention", ["paper-endo", "gilkey-full"])
def test_modularity_single_center_exact_integrals(convention):
    res = verify_modularity(desc("taub-nut-1"), TAUS, convention, TN1)
    assert res < 1e-12


def test_modularity_engine_integrals(tn1_integrals):
    # quadrature error cancels between weights and exponent
    res = verify_modularity(desc("taub-nut-1"), TAUS, curv=tn1_integrals)
    assert res < 1e-12


# ----------------------------------------------------------------- neck rule


def test_neck_check_results():
    assert neck_check(desc("taub-nut-1")) == {
        "condition_holds": True, "derived_b1_D": 0}
    assert neck_check(desc("taub-nut-2")) == {
        "condition_holds": True, "derived_b1_D": 0}
    assert neck_check(desc("schwarzschild")) == {
        "condition_holds": False, "derived_b1_D": None}


def test_neck_check_compact_rejected():
    with pytest.raises(DescriptorError) as err:
        neck_check(desc("flat-torus"))
    assert err.value.slug == "neck-check-compact"


# --------------------------------------------------------------- anomaly map


def test_anomaly_single_center_exact():
    rep = anomaly_counterterms(desc("taub-nut-1"), TN1)
    assert rep["c_gb"] == 0.25
    assert rep["c_p"] == 0.375
    assert rep["reconstructed_alpha"] == pytest.approx(
        rep["weights_alpha"], abs=1e-12)
    assert rep["reconstructed_beta"] == pytest.approx(
        rep["weights_beta"], abs=1e-12)
    # L2 signature -1 differs from the density integral -2/3
    assert rep["sigma_discrepancy_flag"] is True
    assert rep["chi_topological"] == 1.0


def test_anomaly_single_center_engine(tn1_integrals):
    rep = anomaly_counterterms(desc("taub-nut-1"), tn1_integrals)
    assert rep["c_gb"] == pytest.approx(0.25, rel=1e-3)
    assert rep["c_p"] == pytest.approx(0.375, rel=1e-3)
    assert rep["reconstructed_alpha"] == pytest.approx(
        rep["weights_alpha"], abs=1e-12)


def test_anomaly_k3():
    rep = anomaly_counterterms(desc("k3-analytic"))
    assert rep["c_gb"] == 0.25
    assert rep["c_p"] == 0.25
    assert rep["sigma_discrepancy_flag"] is False
    assert rep["reconstructed_alpha"] == pytest.approx(1.2, abs=1e-12)
    assert rep["reconstructed_beta"] == pytest.approx(9.2, abs=1e-12)


def test_anomaly_sphere_gilkey():
    rep = anomaly_counterterms(desc("round-s4"), S4, "gilkey-full")
    assert rep["c_gb"] == 0.25
    assert rep["c_p"] == 0.0
    assert rep["reconstructed_alpha"] == pytest.approx(
        19.0 / 60.0, abs=1e-12)


def test_anomaly_torus_coefficients_vanish():
    rep = anomaly_counterterms(desc("flat-torus"), ZERO)
    assert rep["c_gb"] == 0.0 and rep["c_p"] == 0.0
    assert rep["reconstructed_alpha"] == 0.0


def test_anomaly_not_local_without_neck(schw_integrals):
    with pytest.raises(ConsistencyError) as err:
        anomaly_counterterms(desc("schwarzschild"), schw_integrals)
    assert err.value.slug == "weights-not-local"
    assert "dirichlet-underived" in str(err.value)


def test_anomaly_euler_gate():
    bad = ManifoldDescriptor(name="x", kind="compact", b0=1, b1=0,
                             bplus_l2=3, bminus_l2=3)
    with pytest.raises(ConsistencyError) as err:
        anomaly_counterterms(bad, ZERO)
    assert err.value.slug == "euler-mismatch"


def test_anomaly_signature_gate_compact():
    bad = ManifoldDescriptor(name="x", kind="compact", b0=1, b1=0,
                             bplus_l2=3, bminus_l2=1)
    with pytest.raises(ConsistencyError) as err:
        anomaly_counterterms(bad, ci(I_gb=6.0))
    assert err.value.slug == "signature-mismatch"


def test_anomaly_degenerate_signature_density():
    d = ManifoldDescriptor(name="x", kind="alf", b0=1, b1=0,
                           bplus_l2=0, bminus_l2=1, b0_D=0, b1_D=0,
                           h1_neck_trivial=False)
    with pytest.raises(ConsistencyError) as err:
        anomaly_counterterms(d, ci(I_gb=1.0))
    assert err.value.slug == "signature-density-degenerate"


# ---------------------------------------------------------------- pathology


def test_pathology_documented_values():
    at_i = pathological_partition(1j)
    assert at_i["gaussian_factor"] == pytest.approx(1j, abs=1e-15)
    at_2i = pathological_partition(2j)
    assert at_2i["gaussian_factor"] == pytest.approx(1j / math.sqrt(2.0),
                                                     abs=1e-15)
    rep = at_i["weight_report"]
    assert rep["tau_weight"] == 0.0
    assert rep["tau_bar_weight"] == -0.5
    assert rep["fits_weight_pair"] is False


def test_pathology_rejects_lower_half():
    with pytest.raises(DomainError):
        pathological_partition(1.0 - 0.5j)


@given(st.complex_numbers(min_magnitude=0.05, max_magnitude=50.0))
@settings(max_examples=80)
def test_pathology_modulus_invariant(tau):
    if not tau.imag > 1e-8:
        return
    g = pathological_partition(tau)["gaussian_factor"]
    assert abs(g) ** 2 * abs(tau.conjugate()) == pytest.approx(1.0,
                                                               rel=1e-10)


# ------------------------------------------------------ structural identities


@st.composite
def random_case(draw):
    d = ManifoldDescriptor(
        name="h", kind="compact",
        b0=draw(st.integers(1, 2)), b1=draw(st.integers(0, 4)),
        bplus_l2=draw(st.integers(0, 5)), bminus_l2=draw(st.integers(0, 5)),
        torsion_order=draw(st.integers(1, 3)))
    f = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    c = ci(I_R_full=draw(f), I_R_endo=draw(f), I_r=draw(f), I_s2=draw(f),
           I_gb=draw(f), I_p=draw(f))
    return d, c


@given(random_case(), st.sampled_from(["paper-endo", "gilkey-full"]))
@settings(max_examples=100)
def test_identities_hold_generically(case, convention):
    d, c = case
    w = weights_for(d, c, convention)
    e = imtau_exponent(d, c, convention)
    assert w.alpha - w.beta == pytest.approx(
        0.5 * (d.bplus_l2 - d.bminus_l2), abs=1e-12)
    assert w.alpha == pytest.approx(0.5 * d.bplus_l2 - e, abs=1e-12)
