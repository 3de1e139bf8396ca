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
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from sdlab.catalog import get_entry
from sdlab.cli import main
from sdlab.errors import DescriptorError, DomainError, ResourceError
from sdlab.geometry.boundary import boundary_report
from sdlab.geometry.integrals import CurvatureIntegrals
from sdlab.spectral_zeta import (
    epstein_zeta,
    epstein_zeta_at_zero,
    heat_zeta_zero,
    torus_zeta_zero,
)

mp.mp.dps = 30


# ------------------------------------------------------------- epstein route


def test_cubic_lattice_matches_dirichlet_series():
    s = 3.0
    oracle = float(8 * (1 - mp.mpf(4) ** (1 - s)) * mp.zeta(s) * mp.zeta(s - 1))
    val = epstein_zeta(s, np.eye(4))
    assert val == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("s,c", [(1.3, 1.7), (3.0, 0.6), (-0.7, 2.5)])
def test_epstein_scaling_law(s, c):
    rng = np.random.default_rng(7)
    basis = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    assert epstein_zeta(s, c * basis) == pytest.approx(
        c ** (-2 * s) * epstein_zeta(s, basis), rel=1e-10)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_zeta_at_zero_is_minus_one(seed):
    rng = np.random.default_rng(seed)
    basis = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    val, err = epstein_zeta_at_zero(basis)
    assert val == pytest.approx(-1.0, abs=1e-6)
    assert err < 1e-6


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
        epstein_zeta(3.0, np.eye(3))
    assert err.value.slug == "lattice-shape"


def test_singular_lattice_rejected():
    with pytest.raises(DomainError) as err:
        torus_zeta_zero(np.zeros((4, 4)), 0)
    assert err.value.slug == "lattice-singular"


CAPPED = np.diag([1.0, 1.0, 1.0, 0.3])  # dual scan box 151^4 > 2e8


def test_enumeration_cap_is_a_resource_error():
    with pytest.raises(ResourceError) as err:
        torus_zeta_zero(CAPPED, 1)
    assert err.value.slug == "lattice-enumeration"


def test_enumeration_cap_exit_code(capsys):
    code = main(["zeta", "--lattice", ",".join(map(str, CAPPED.ravel())),
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
