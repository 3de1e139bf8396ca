"""Theta series against an independent high-precision route (mpmath),
plus the algebraic laws the series must satisfy identically."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.errors import BranchError, DomainError, ResourceError
from sdlab.modular_forms import (cot_contour_theta, principal_power,
                                 s_transform_residual, theta)

mp.mp.dps = 40


def mp_theta(tau: complex) -> complex:
    q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
    return complex(mp.jtheta(3, 0, q))


GRID = [complex(0.0, 1.0), complex(0.0, 2.0), complex(0.3, 0.7),
        complex(-0.9, 0.25), complex(2.7, 0.08), complex(-4.2, 3.5),
        complex(0.5, 1.0), complex(1e-3, 0.04)]


@pytest.mark.parametrize("tau", GRID)
def test_matches_mpmath(tau):
    tv = theta(tau)
    ref = mp_theta(tau)
    assert abs(tv.value - ref) <= tv.tail_bound + 1e-13 * abs(ref)


def test_classical_value_at_i():
    # theta(i) = pi^(1/4) / Gamma(3/4), an independent closed form
    ref = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(theta(1j).value - ref) < 1e-15
    assert abs(theta(1j).value.imag) < 1e-16


def test_value_at_2i():
    assert abs(theta(2j).value - mp_theta(2j)) < 1e-15


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
def test_tail_bound_certified(tol):
    tau = complex(0.4, 0.31)
    tv = theta(tau, tol=tol)
    assert tv.tail_bound <= tol
    assert abs(tv.value - mp_theta(tau)) <= tv.tail_bound + 1e-14


def test_domain_rejections():
    with pytest.raises(DomainError):
        theta(complex(0.5, -1.0))
    with pytest.raises(DomainError):
        theta(complex(0.5, 0.0))
    with pytest.raises(DomainError):
        theta(1j, tol=0.0)
    with pytest.raises(ResourceError):
        theta(complex(0.0, 1e-12))


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-3, 3), im=st.floats(0.05, 5))
def test_reflection_and_shift(re, im):
    tau = complex(re, im)
    tv = theta(tau)
    # theta(-conj tau) = conj theta(tau): term-by-term conjugation
    refl = theta(complex(-re, im))
    assert abs(refl.value - tv.value.conjugate()) <= 2 * tv.tail_bound + 1e-13
    shift = theta(tau + 2.0)
    assert abs(shift.value - tv.value) <= 2e-12 + 2 * tv.tail_bound \
        + 1e-12 * abs(tv.value)


@settings(max_examples=40, deadline=None)
@given(re=st.floats(-2, 2), im=st.floats(0.1, 4))
def test_inversion_residual(re, im):
    assert s_transform_residual(complex(re, im)) < 1e-10


def test_principal_power_laws():
    for z in (complex(2.0, 1.0), complex(-1.0, 0.5), complex(0.3, -0.7)):
        assert principal_power(z, 1.0) == pytest.approx(z, abs=1e-15)
        ab = principal_power(z, 0.7) * principal_power(z, 0.3)
        assert abs(ab - z) < 1e-14
    with pytest.raises(BranchError):
        principal_power(0.0, 0.5)
    with pytest.raises(BranchError):
        principal_power(complex(-2.0, 0.0), 0.5)


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-4, 4), im=st.floats(-4, 4),
       a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_principal_power_additive(re, im, a, b):
    z = complex(re, im)
    if abs(z) < 1e-6 or (im == 0.0 and re < 0.0):
        return  # keep |z^w| finite; the cut itself is tested above
    lhs = principal_power(z, a) * principal_power(z, b)
    rhs = principal_power(z, a + b)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("u", [1j, 2j, complex(0.5, 1.0)])
def test_contour_route_matches_series(u):
    ref = theta(u, tol=1e-12).value
    values = []
    for eps in (0.1, 0.2, 0.3):
        plus, minus = cot_contour_theta(u, eps, tol=1e-8)
        assert abs(minus - ref) < 1e-6
        assert abs(plus + ref) < 1e-6  # opposite shift flips the sign
        values.append(minus)
    # epsilon independence within the quadrature tolerance
    assert max(abs(a - values[0]) for a in values) < 1e-6


def test_contour_domain_checks():
    with pytest.raises(DomainError):
        cot_contour_theta(1j, 0.0)
    with pytest.raises(DomainError):
        cot_contour_theta(1j, 0.5)
    with pytest.raises(DomainError):
        cot_contour_theta(complex(1.0, -0.2), 0.2)
