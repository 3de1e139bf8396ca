"""Theta series against an independent high-precision route (mpmath),
plus the algebraic laws the series must satisfy identically."""

import cmath
import math
import random
import warnings

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.errors import BranchError, DomainError, ResourceError
from sdlab.geometry import quadrature as quad
from sdlab.modular_forms import (_tail_bound, cot_contour_theta,
                                 principal_power, s_transform_residual, theta)

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


@pytest.mark.parametrize("seed", [5, 17])
def test_error_estimate_bounds_the_error(seed):
    # 150 tau, Re(tau) uniform in (-2, 2) and Im(tau) log-uniform in
    # [0.01, 4]; the tail bound alone leaves out the rounding, which grows
    # with the phase pi |tau| k^2 of each term, and misses some of them
    rng = random.Random(seed)
    missed = 0
    for _ in range(150):
        tau = complex(rng.uniform(-2.0, 2.0),
                      math.exp(rng.uniform(math.log(0.01), math.log(4.0))))
        tv = theta(tau)
        err = abs(tv.value - mp_theta(tau))
        assert err <= tv.error_estimate, tau
        assert tv.error_estimate >= tv.tail_bound
        missed += err > tv.tail_bound
    assert missed > 0


def test_tail_bound_is_infinite_when_the_ratio_rounds_to_one():
    assert _tail_bound(1e-20, 1) == math.inf


@pytest.mark.parametrize("k", [1, 10**3, 10**6, 10**12, 5 * 10**15])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.7, -0.9])
def test_shift_by_two_holds_at_large_real_part(x, k):
    # exp(i pi n^2 tau) once rounded the phase away: theta(1e12 + i) had an
    # imaginary part of -2.3e-5 and theta(1e16 + i) an error of 0.033.
    # r is the real part x + 2k rounds to, less 2k, exactly
    re = x + 2.0 * k
    r = re - 2.0 * k
    assert abs(theta(complex(re, 1.0)).value - theta(complex(r, 1.0)).value) \
        <= 1e-12


def test_subnormal_im_tau_or_tol_is_counted_not_overflowed():
    # int() of an infinite starting term count once raised OverflowError
    for tau in (complex(0.1, 1e-320), complex(0.1, 1e-300)):
        with pytest.raises(ResourceError) as err:
            theta(tau)
        assert err.value.slug == "theta-term-cap"
    # a subnormal tol alone needs few terms: exp(-pi n^2) underflows
    assert abs(theta(1j, tol=1e-320).value - theta(1j).value) <= 1e-15


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


# at 0.1 + 1e-3i a half-width blind to the drift 2 pi |Re u| eps |c| of the
# exponent cut the line short: off by 4.8e-5 at eps = 0.3, 0.117 at 0.45
@pytest.mark.parametrize("u", [1j, 2j, complex(0.5, 1.0), complex(0.1, 1e-3)])
def test_contour_route_matches_series(u):
    ref = theta(u, tol=1e-12).value
    values = []
    for eps in (0.1, 0.2, 0.3, 0.45):
        plus, minus = cot_contour_theta(u, eps, tol=1e-8)
        assert abs(minus - ref) < 1e-6
        assert abs(plus + ref) < 1e-6  # opposite shift flips the sign
        values.append(minus)
    # epsilon independence within the quadrature tolerance
    assert max(abs(a - values[0]) for a in values) < 1e-6


@pytest.mark.parametrize("seed, most_refused", [(5, 37), (17, 49)])
def test_contour_route_is_within_tol_or_refused(seed, most_refused):
    # 150 (u, eps), Re(u) uniform in (-2, 2), Im(u) log-uniform in [1e-3, 4]
    # and eps in [0.05, 0.49]; a line cut short once returned 18 values off
    # by up to 1.13 unrefused, and refused 37 and 49 of the two samples
    rng = random.Random(seed)
    refused = 0
    for _ in range(150):
        u = complex(rng.uniform(-2.0, 2.0),
                    math.exp(rng.uniform(math.log(1e-3), math.log(4.0))))
        eps = rng.uniform(0.05, 0.49)
        try:
            plus, minus = cot_contour_theta(u, eps, tol=1e-8)
        except ResourceError as err:
            assert err.slug == "quadrature-non-convergence"
            refused += 1
            continue
        ref = mp_theta(u)
        assert abs(minus - ref) <= 1e-8 and abs(plus + ref) <= 1e-8, (u, eps)
    assert refused <= most_refused


def test_contour_route_runs_integrate_refined(monkeypatch):
    calls, integrate_refined = [], quad.integrate_refined

    def counting(*args):
        calls.append(args)
        return integrate_refined(*args)

    monkeypatch.setattr(quad, "integrate_refined", counting)
    cot_contour_theta(1j, 0.2)
    assert len(calls) == 2      # one line a shift, neither split


def test_contour_overflow_is_refused_quietly():
    # the envelope peaks at exp(pi Re(u)^2 eps^2 / Im(u)), past the float
    # range here, so the integrand overflows on a line that fits the cap
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ResourceError) as err:
            cot_contour_theta(complex(2.0, 3.27e-3), 0.49)
    assert err.value.slug == "quadrature-non-convergence"
    assert caught == []


def test_contour_domain_checks():
    # a subnormal Im(u) or tol once made the half-width overflow; the
    # first has no finite half-width, the second is a tol no sum can meet.
    # Half-widths of 2.5e150 and 7.9e4 (Im(u) = 1e-300 and 1e-9) once ended
    # in a ValueError from np.linspace, and in overflow warnings and an
    # OverflowError; they pass the panel cap, and no case warns
    for u, tol in ((complex(0.1, 1e-320), 1e-8), (1j, 5e-324),
                   (complex(0.1, 1e-300), 1e-8), (complex(0.1, 1e-9), 1e-8)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ResourceError) as err:
                cot_contour_theta(u, 0.1, tol=tol)
        assert err.value.slug == "quadrature-non-convergence"
        assert caught == [], u
    with pytest.raises(DomainError):
        cot_contour_theta(1j, 0.0)
    with pytest.raises(DomainError):
        cot_contour_theta(1j, 0.5)
    with pytest.raises(DomainError) as err:
        cot_contour_theta(complex(1.0, -0.2), 0.2)
    assert err.value.slug == "tau-upper-half"
