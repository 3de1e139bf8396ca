"""Spectral zeta values at the origin, Epstein route and heat route.

Oracles
-------
* Cubic lattice, s = 3: the Epstein series over Z^4 factorizes through
  the sum-of-squares counting function, sum r4(n) n^-s with
  r4(n) = 8 sigma(n) - 32 sigma(n/4), giving 8 (1 - 4^(1-s)) zeta(s)
  zeta(s-1).  Computed with mpmath, independent of the package code.
* Round sphere, scalar Laplacian: eigenvalues l(l+3) with degeneracy
  (2l+3)(l+1)(l+2)/6.  Substituting x = l + 3/2 turns zeta(s) into a
  binomial series of Hurwitz zetas evaluated at x >= 5/2; the value at
  s -> 0 is taken by Richardson extrapolation from small s because three
  of the Hurwitz factors sit next to poles whose finite parts contribute.
  The result equals -61/90 and must match the curvature-integral route.
* Upper incomplete gamma: mpmath's `gammainc` at 30 digits.
* Shell norms: the scan of the whole cube of side 2 ceil(R / sigma_min) + 1,
  R = sqrt(cut / pi), around the origin of the basis as given.
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest

from sdlab import spectral_zeta
from sdlab.catalog import get_entry
from sdlab.cli import main
from sdlab.errors import DescriptorError, DomainError, ResourceError
from sdlab.geometry.boundary import boundary_report
from sdlab.geometry.integrals import CurvatureIntegrals
from sdlab.spectral_zeta import (
    LATTICE_CONDITION_CAP,
    _CUT,
    _epstein,
    _gamma_upper,
    _shell_norms,
    epstein_zeta_at_zero,
    heat_zeta_zero,
    torus_zeta_zero,
)

mp.mp.dps = 30


# ------------------------------------------------------------- epstein route


def test_cubic_lattice_matches_dirichlet_series():
    s = 3.0
    oracle = float(8 * (1 - mp.mpf(4) ** (1 - s)) * mp.zeta(s) * mp.zeta(s - 1))
    val = _epstein(np.eye(4))(s)
    assert val == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("s,c", [(1.3, 1.7), (3.0, 0.6), (-0.7, 2.5)])
def test_epstein_scaling_law(s, c):
    rng = np.random.default_rng(7)
    basis = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    assert _epstein(c * basis)(s) == pytest.approx(
        c ** (-2 * s) * _epstein(basis)(s), rel=1e-10)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_zeta_at_zero_is_minus_one(seed):
    rng = np.random.default_rng(seed)
    basis = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    val, err = epstein_zeta_at_zero(basis)
    assert val == pytest.approx(-1.0, abs=1e-14)
    assert err < 1e-6


def _rotated(seed, sigma):
    """Q1 diag(sigma) Q2 with seeded random rotations."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    return q1 @ np.diag(sigma) @ q2


def test_lattice_at_the_condition_cap_is_enumerated():
    # condition number 1e4, which this seed rounds to just inside the cap
    lattice = _rotated(1, (0.03, 0.5, 3.0, 300.0))
    assert np.linalg.cond(lattice) <= LATTICE_CONDITION_CAP
    start = time.process_time()
    res = torus_zeta_zero(lattice, 0)
    assert time.process_time() - start < 1.0
    assert res.zeta_at_zero == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("a", [-1.0, -0.7, -2e-4, -1e-4, 0.0, 1e-4, 2e-4, 0.7,
                               1 - 1e-4, 1 + 1e-4, 1.3, 2 - 2e-4, 2 - 1e-4,
                               2 + 1e-4, 2 + 2e-4, 2.7, 3.0])
def test_gamma_upper_matches_mpmath(a):
    x = np.geomspace(1e-6, 40.0, 200)
    exact = np.array([float(mp.gammainc(a, t)) for t in x])
    assert np.max(np.abs(_gamma_upper(a, x) / exact - 1.0)) <= 1e-13


def _cube_shell_norms(basis):
    """The shell norms of `_shell_norms`, scanned over the whole cube whose
    half-side is R over the smallest singular value of the basis."""
    sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
    n_max = int(math.ceil(math.sqrt(_CUT / math.pi) / sigma_min))
    axis = np.arange(-n_max, n_max + 1)
    g1, g2, g3 = np.meshgrid(axis, axis, axis, indexing="ij")
    base = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    out = []
    for n4 in axis:  # chunk along the last axis to bound memory
        n = np.concatenate([base, np.full((base.shape[0], 1), n4)], axis=1)
        v = n @ basis
        q = np.einsum("ij,ij->i", v, v)
        out.append(q[(q > 0) & (math.pi * q <= _CUT)])
    return np.concatenate(out)


def _scanned_lattices():
    cases = {"eye": np.eye(4)}
    for seed in (11, 23, 47):
        rng = np.random.default_rng(seed)
        basis = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        cases[f"seed{seed}"] = basis
        cases[f"seed{seed}-dual"] = np.linalg.inv(basis).T
    # the two scans of torus_zeta_zero on a lattice like the CLI benchmark's
    spectral = 2.0 * math.pi * np.linalg.inv(_rotated(2, (2.5, 3.0, 3.5, 4.0))).T
    cases["cli"] = spectral
    cases["cli-dual"] = np.linalg.inv(spectral).T
    return cases


SCANNED = _scanned_lattices()


@pytest.mark.parametrize("name", list(SCANNED))
def test_shell_norms_match_cube_scan(name):
    basis = SCANNED[name]
    got, want = np.sort(_shell_norms(basis)), np.sort(_cube_shell_norms(basis))
    assert got.shape == want.shape and got.size > 0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_torus_form_degrees_give_binomials():
    # radii near sqrt(2 pi) keep both Epstein enumeration boxes small
    lattice = np.diag([2.5, 2.4, 2.6, 2.5])
    for k, target in enumerate((-1.0, -4.0, -6.0, -4.0, -1.0)):
        res = torus_zeta_zero(lattice, k)
        assert res.zeta_at_zero == pytest.approx(target, abs=1e-6)
        assert res.method == "epstein-continuation"


def test_epstein_and_heat_routes_agree_on_torus():
    desc = get_entry("flat-torus").descriptor
    zeros = CurvatureIntegrals(I_R_full=0.0, I_R_endo=0.0, I_r=0.0,
                               I_s2=0.0, I_gb=0.0, I_p=0.0,
                               error_estimate=0.0, resolution=1,
                               cutoff_rho=None, node_count=1)
    rng = np.random.default_rng(3)
    lattice = 2.5 * (np.eye(4) + 0.25 * rng.standard_normal((4, 4)))
    spec = torus_zeta_zero(lattice, 0)
    heat = heat_zeta_zero(desc, zeros, 0)
    assert heat.method == "heat-kernel-formula"
    assert heat.zeta_at_zero == -float(desc.b0)
    assert spec.zeta_at_zero == pytest.approx(heat.zeta_at_zero, abs=1e-6)
    # degree one: -b1 = -4 on both routes
    assert torus_zeta_zero(lattice, 1).zeta_at_zero == pytest.approx(
        heat_zeta_zero(desc, zeros, 1).zeta_at_zero, abs=1e-6)


# ----------------------------------------------------------------- heat route


def _sphere_scalar_zeta(s):
    s = mp.mpf(s)
    total = mp.mpf(0)
    for j in range(60):
        coeff = mp.binomial(s + j - 1, j) * mp.mpf("2.25") ** j
        total += coeff * (mp.zeta(2 * s + 2 * j - 3, mp.mpf("2.5"))
                          - mp.zeta(2 * s + 2 * j - 1, mp.mpf("2.5")) / 4)
    return total / 3


def _sphere_integrals():
    pi2 = math.pi ** 2
    return CurvatureIntegrals(I_R_full=64.0 * pi2, I_R_endo=16.0 * pi2,
                              I_r=96.0 * pi2, I_s2=384.0 * pi2,
                              I_gb=2.0, I_p=0.0, error_estimate=0.0,
                              resolution=0, cutoff_rho=None, node_count=0)


def test_sphere_scalar_zeta_zero_against_spectrum():
    delta = mp.mpf("1e-6")
    oracle = float(2 * _sphere_scalar_zeta(delta)
                   - _sphere_scalar_zeta(2 * delta))
    assert oracle == pytest.approx(-61.0 / 90.0, abs=1e-10)
    res = heat_zeta_zero(get_entry("round-s4").descriptor,
                         _sphere_integrals(), 0)
    assert res.zeta_at_zero == pytest.approx(oracle, abs=1e-10)
    assert res.zeta_at_zero == pytest.approx(-61.0 / 90.0, abs=1e-12)


def test_heat_route_truncated_space_converges(tn1_integrals):
    entry = get_entry("taub-nut-1")
    vals = []
    for rho in (20.0, 40.0, 80.0):
        rep = boundary_report(entry.backend, rho, resolution=4)
        res = heat_zeta_zero(entry.descriptor, tn1_integrals, 0,
                             boundary=rep)
        vals.append(res.zeta_at_zero)
    # boundary terms decay, so successive differences shrink
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    # derived Dirichlet b0 is zero: no -1 offset in the limit value
    assert abs(vals[2]) < 0.1


def test_heat_route_truncation_error_carries_the_boundary_estimate(
        tn1_integrals):
    entry = get_entry("taub-nut-1")
    rep = boundary_report(entry.backend, 40.0, resolution=2)
    for k, v4 in ((0, rep.v40_integral), (1, rep.v41_integral)):
        res = heat_zeta_zero(entry.descriptor, tn1_integrals, k, boundary=rep)
        bulk = heat_zeta_zero(entry.descriptor, tn1_integrals, k)
        term = abs(v4) / (16.0 * math.pi ** 2) * rep.error_estimate
        assert term > 0.0
        assert res.truncation_error == pytest.approx(
            bulk.truncation_error + term, rel=1e-14)


def test_dirichlet_one_forms_need_neck_condition(schw_integrals):
    entry = get_entry("schwarzschild")
    rep = boundary_report(entry.backend, 30.0, resolution=2)
    with pytest.raises(DescriptorError) as err:
        heat_zeta_zero(entry.descriptor, schw_integrals, 1, boundary=rep)
    assert err.value.slug == "dirichlet-underived"


def test_dirichlet_constants_need_no_neck_condition(schw_integrals):
    # a derived b0_D is 0 whatever the neck does, so k = 0 goes through
    entry = get_entry("schwarzschild")
    rep = boundary_report(entry.backend, 30.0, resolution=2)
    res = heat_zeta_zero(entry.descriptor, schw_integrals, 0, boundary=rep)
    explicit = dataclasses.replace(entry.descriptor, b0_D=0)
    assert res == heat_zeta_zero(explicit, schw_integrals, 0, boundary=rep)


# ----------------------------------------------------------------- validation


def test_lattice_shape_checked():
    with pytest.raises(DomainError) as err:
        _epstein(np.eye(3))(3.0)
    assert err.value.slug == "lattice-shape"


def test_singular_lattice_rejected():
    with pytest.raises(DomainError) as err:
        torus_zeta_zero(np.zeros((4, 4)), 0)
    assert err.value.slug == "lattice-singular"


# condition number 1e9: scaled to unit covolume its three short axes give
# a box of 1269^3 > 2e8 points.  Within the condition cap the unit-covolume
# boxes stay below a million points, so the CLI reaches the enumeration cap
# only with the condition cap raised.
CAPPED = np.diag([1.0, 1.0, 1.0, 1e9])


def test_enumeration_cap_is_a_resource_error():
    with pytest.raises(ResourceError) as err:
        epstein_zeta_at_zero(CAPPED)
    assert err.value.slug == "lattice-enumeration"


def test_enumeration_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(spectral_zeta, "LATTICE_CONDITION_CAP", 1e10)
    lattice = np.linalg.inv(CAPPED)  # torus_zeta_zero scans 2 pi x its dual
    code = main(["zeta", "--lattice", ",".join(map(str, lattice.ravel())),
                 "--k", "1"])
    assert code == 2 and "lattice-enumeration" in capsys.readouterr().err


def test_ill_conditioned_lattice_rejected():
    with pytest.raises(DomainError) as err:
        torus_zeta_zero(np.diag([1.0, 1.0, 1.0, 1e-5]), 0)
    assert err.value.slug == "lattice-condition"


@pytest.mark.parametrize("k", [-1, 5])
def test_form_degree_range(k):
    with pytest.raises(DomainError) as err:
        torus_zeta_zero(np.eye(4), k)
    assert err.value.slug == "form-degree"


def test_heat_route_degree_range():
    with pytest.raises(DomainError) as err:
        heat_zeta_zero(get_entry("flat-torus").descriptor,
                       _sphere_integrals(), 2)
    assert err.value.slug == "form-degree"
