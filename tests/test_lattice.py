"""Flux-lattice sums: the brute-force route and the theta-product route
are independent implementations and must agree to truncation accuracy."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.errors import DomainError, ResourceError
from sdlab.lattice_sum import (LATTICE_BOX_CAP, brute_force_partition,
                               theta_product)
from sdlab.modular_forms import theta

TAU = complex(0.3, 0.7)


@pytest.mark.parametrize("bplus,bminus", [(0, 0), (1, 0), (0, 1), (1, 1),
                                          (2, 1)])
def test_brute_force_equals_theta_product(bplus, bminus):
    brute = brute_force_partition(bplus, bminus, 12, TAU)
    prod = theta_product(bplus, bminus, TAU)
    assert abs(brute - prod) < 1e-12 * max(1.0, abs(prod))


def test_empty_lattice_is_one():
    assert brute_force_partition(0, 0, 5, TAU) == 1.0
    assert theta_product(0, 0, TAU) == 1.0


def test_theta_product_definition():
    got = theta_product(2, 3, TAU)
    expect = theta(TAU).value ** 2 * theta(-TAU.conjugate()).value ** 3
    assert cmath.isclose(got, expect, rel_tol=1e-13)


def test_box_growth_converges():
    vals = [brute_force_partition(1, 1, box, TAU) for box in (4, 8, 16)]
    ref = theta_product(1, 1, TAU)
    errs = [abs(v - ref) for v in vals]
    assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-15


def test_box_cap_enforced():
    # (2*30+1)^6 far exceeds the enumeration cap
    assert 61 ** 6 > LATTICE_BOX_CAP
    with pytest.raises(ResourceError):
        brute_force_partition(3, 3, 30, TAU)


def test_brute_force_validates_inputs():
    with pytest.raises(DomainError):
        brute_force_partition(-1, 0, 5, TAU)
    with pytest.raises(DomainError):
        brute_force_partition(1, 0, 0, TAU)
    with pytest.raises(DomainError):
        brute_force_partition(1, 0, 5, complex(1.0, 0.0))


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(0.3, 2.5))
def test_factorization_property(re, im):
    tau = complex(re, im)
    brute = brute_force_partition(1, 1, 10, tau)
    prod = theta_product(1, 1, tau)
    assert abs(brute - prod) < 1e-9 * max(1.0, abs(prod))
