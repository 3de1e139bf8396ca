"""The brute-force flux-lattice sum and its factorization into theta series.

The partition sum over integer fluxes splits into a product of one theta
series per self-dual direction and one conjugate-reflected theta per
anti-self-dual direction; ``brute_force_partition`` performs the raw
lattice sum so the factorization can be tested rather than assumed.
"""
from __future__ import annotations

import math
from functools import reduce

from . import _lazy
from .errors import DomainError, ResourceError
from .modular_forms import _as_tau, theta

np = _lazy("numpy")

# (2N+1)^(bplus+bminus) may not exceed this many lattice points.
LATTICE_BOX_CAP = 20_000_000


def _coordinate_weights(sigma: complex, box: int) -> np.ndarray:
    sigma = complex(math.fmod(sigma.real, 2.0), sigma.imag)  # as in `theta`
    n = np.arange(-box, box + 1, dtype=float)
    return np.exp(1j * math.pi * sigma * n * n)


def brute_force_partition(bplus: int, bminus: int, box: int, tau: complex) -> complex:
    """Sum exp(-action) over the full box [-box, box]^(bplus+bminus).

    Terms are laid out lexicographically and reduced pairwise, so the result
    is independent of how the work is sliced.
    """
    v = _as_tau(tau)
    if bplus < 0 or bminus < 0:
        raise DomainError("betti-nonnegative",
                          f"(bplus, bminus) = ({bplus}, {bminus}) must be >= 0")
    if box < 1:
        raise DomainError("box-positive", f"box = {box} must be >= 1")
    d = bplus + bminus
    if d == 0:
        return 1.0 + 0.0j
    if (2 * box + 1) ** d > LATTICE_BOX_CAP:
        raise ResourceError(
            "lattice-box-cap",
            f"(2*{box}+1)^{d} lattice points exceed the cap {LATTICE_BOX_CAP}")
    # exp(-S) factorizes per coordinate; the sum itself is still taken over
    # the full box, in C order (= lexicographic in the coordinates).
    axes = [_coordinate_weights(v, box) for _ in range(bplus)]
    axes += [_coordinate_weights(-v.conjugate(), box) for _ in range(bminus)]
    terms = reduce(np.multiply.outer, axes)
    return complex(np.sum(terms.ravel()))


def theta_product(bplus: int, bminus: int, tau: complex) -> complex:
    """theta(tau)^bplus * theta(-conj(tau))^bminus at series tolerance 1e-13."""
    v = _as_tau(tau)
    if bplus < 0 or bminus < 0:
        raise DomainError("betti-nonnegative",
                          f"(bplus, bminus) = ({bplus}, {bminus}) must be >= 0")
    out = 1.0 + 0.0j
    if bplus:
        out *= theta(v, tol=1e-13).value ** bplus
    if bminus:
        out *= theta(-v.conjugate(), tol=1e-13).value ** bminus
    return out
