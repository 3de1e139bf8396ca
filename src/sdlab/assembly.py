"""Modular weights and partition values of the abelian gauge theory.

A manifold enters as a small topological record (Betti data, torsion,
kind) plus curvature integrals from the geometry engine or supplied
analytically.  From these the holomorphic and anti-holomorphic modular
weights, the coupling-dependent partition value, and the modular-law
residuals are assembled.

Two norm conventions for the quartic curvature correction are carried
everywhere: "paper-endo" consumes the curvature operator norm on
2-forms, "gilkey-full" the full tensor contraction (4x larger on the
same geometry).  Reports always state which one produced a number.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

from . import _lazy
from .errors import ConsistencyError, DescriptorError, DomainError

# runs where a theta value or a principal power is formed, not for weights
modular_forms = _lazy("sdlab.modular_forms")

_KINDS = ("compact", "alf")


@dataclasses.dataclass(frozen=True)
class ManifoldDescriptor:
    """Topological and normalization data of one manifold."""

    name: str
    kind: str
    b0: int
    b1: int
    bplus_l2: int
    bminus_l2: int
    torsion_order: int = 1
    b0_D: int | str | None = None        # int or "derive"; ALF only
    b1_D: int | str | None = None
    h1_neck_trivial: bool | None = None  # ALF only
    vol_flat_torus_factor: float = 1.0

    def __post_init__(self):
        n = self.name
        if self.kind not in _KINDS:
            raise DescriptorError("kind-unknown", f"{n}: kind {self.kind!r}")
        counts = [("b0", self.b0, None), ("b1", self.b1, None),
                  ("bplus_l2", self.bplus_l2, None),
                  ("bminus_l2", self.bminus_l2, None)]
        if self.kind == "alf":
            # given Dirichlet counts are bounded by b0, b1 (checked first)
            counts += [(lab, v, bound) for lab, v, bound in
                       (("b0_D", self.b0_D, self.b0),
                        ("b1_D", self.b1_D, self.b1))
                       if v is not None and v != "derive"]
        for lab, v, bound in counts:
            if not isinstance(v, int) or v < 0:
                raise DescriptorError("betti-nonnegative", f"{n}: {lab} = {v!r}")
            if bound is not None and v > bound:
                raise DescriptorError(
                    "dirichlet-betti-bound",
                    f"{n}: {lab} = {v} exceeds its absolute bound {bound}")
        if not isinstance(self.torsion_order, int) or self.torsion_order < 1:
            raise DescriptorError("torsion-positive",
                                  f"{n}: torsion_order = {self.torsion_order!r}")
        if not self.vol_flat_torus_factor > 0:
            raise DescriptorError(
                "volume-factor-positive",
                f"{n}: vol_flat_torus_factor = {self.vol_flat_torus_factor!r}")
        if self.kind == "compact":
            if self.b0 < 1:
                raise DescriptorError("connected-b0",
                                      f"{n}: compact descriptor needs b0 >= 1")
            if (self.b0_D is not None or self.b1_D is not None
                    or self.h1_neck_trivial is not None):
                raise DescriptorError(
                    "dirichlet-data-compact",
                    f"{n}: Dirichlet fields are ALF-only")
            return
        if self.b0_D is None or self.b1_D is None:
            raise DescriptorError("dirichlet-data-missing",
                                  f"{n}: ALF descriptor needs b0_D and b1_D")
        if not isinstance(self.h1_neck_trivial, bool):
            raise DescriptorError("neck-flag-missing",
                                  f"{n}: ALF descriptor needs h1_neck_trivial")


@dataclasses.dataclass(frozen=True)
class ModularWeights:
    alpha: float
    beta: float
    sigma_phase: float  # half the signature-like integer in the phase
    convention: str


@dataclasses.dataclass(frozen=True)
class PartitionEvaluation:
    value: complex
    factors: dict


def neck_check(desc: ManifoldDescriptor) -> dict:
    """Decide whether the 1-form Dirichlet count is derivable.

    The derivation needs the first cohomology of the asymptotic neck to
    vanish; then the truncated and complete spaces share their 1-form
    count, while Dirichlet constants are always excluded.
    """
    if desc.kind != "alf":
        raise DescriptorError("neck-check-compact",
                              f"{desc.name}: neck check is ALF-only")
    holds = bool(desc.h1_neck_trivial)
    return {"condition_holds": holds,
            "derived_b1_D": int(desc.b1) if holds else None}


def harmonic_count(desc: ManifoldDescriptor, k: int) -> int:
    """Number of harmonic k-forms (k = 0, 1) that enter the weights.

    Compact spaces use the Betti number b_k, ALF spaces the Dirichlet
    number.  A derived b0_D is 0, since constants violate the Dirichlet
    condition; a derived b1_D is b1 and needs the neck condition.
    """
    if desc.kind == "compact":
        return desc.b0 if k == 0 else desc.b1
    given = desc.b0_D if k == 0 else desc.b1_D
    if given != "derive":
        return int(given)
    if k == 0:
        return 0
    check = neck_check(desc)
    if not check["condition_holds"]:
        raise DescriptorError(
            "dirichlet-underived",
            f"{desc.name}: b1_D marked derive but the neck condition "
            f"fails; supply it explicitly")
    return check["derived_b1_D"]


def euler_number(desc: ManifoldDescriptor) -> int:
    """Topological Euler number 2 h0 - 2 h1 + b+ + b-, with h_k the
    `harmonic_count` of k-forms."""
    return (2 * harmonic_count(desc, 0) - 2 * harmonic_count(desc, 1)
            + desc.bplus_l2 + desc.bminus_l2)


def _riemann_norm(curv, convention: str) -> tuple[float, float]:
    """(integrated Riemann-square norm, its divisor in the correction)."""
    # the two norms differ by 4 on any metric, the divisors by 2, so the
    # quotients agree exactly on Ricci-flat spaces and only there
    if convention == "paper-endo":
        return curv.I_R_endo, 120.0
    if convention == "gilkey-full":
        return curv.I_R_full, 240.0
    raise DomainError("convention-unknown", repr(convention))


def _correction(curv, convention: str) -> float:
    """Quartic-curvature bracket shared by the weights and the exponent."""
    i_R, divisor = _riemann_norm(curv, convention)
    return i_R / divisor - 87.0 / 2880.0 * curv.I_r + curv.I_s2 / 128.0


def imtau_exponent(desc: ManifoldDescriptor, curv,
                   convention: str = "paper-endo") -> float:
    """Exponent of Im(tau)/8pi^2 in the one-loop partition value."""
    b0, b1 = harmonic_count(desc, 0), harmonic_count(desc, 1)
    return 0.5 * (b1 - b0 + _correction(curv, convention) / math.pi ** 2)


def weights_for(desc: ManifoldDescriptor, curv,
                convention: str = "paper-endo") -> ModularWeights:
    """Modular weights (alpha, beta) and the phase of the inversion law."""
    base = 2.0 * harmonic_count(desc, 0) - 2.0 * harmonic_count(desc, 1)
    corr = 2.0 * _correction(curv, convention) / math.pi ** 2
    alpha = 0.25 * (base + 2.0 * desc.bplus_l2 - corr)
    beta = 0.25 * (base + 2.0 * desc.bminus_l2 - corr)
    return ModularWeights(alpha=alpha, beta=beta,
                          sigma_phase=0.5 * (desc.bplus_l2 - desc.bminus_l2),
                          convention=convention)


def assemble_partition(desc: ManifoldDescriptor, tau,
                       convention: str = "paper-endo", *,
                       curv) -> PartitionEvaluation:
    """One-loop partition value at coupling tau, factor by factor."""
    tau = modular_forms._as_tau(tau)
    exponent = imtau_exponent(desc, curv, convention)
    th_p = modular_forms.theta(tau).value ** desc.bplus_l2
    th_m = modular_forms.theta(-tau.conjugate()).value ** desc.bminus_l2
    imtau_power = modular_forms.principal_power(
        tau.imag / (8.0 * math.pi ** 2), exponent)
    torsion = float(desc.torsion_order)
    det_factor = 1.0  # determinant normalizations deliberately suppressed
    value = (torsion * th_p * th_m * desc.vol_flat_torus_factor
             * det_factor * imtau_power)
    factors = {
        "torsion_factor": torsion,
        "theta_plus": th_p,
        "theta_minus": th_m,
        "imtau_power_exponent": exponent,
        "torus_volume": desc.vol_flat_torus_factor,
        "det_factor": det_factor,
    }
    return PartitionEvaluation(value=value, factors=factors)


def verify_modularity(desc: ManifoldDescriptor, tau_samples,
                      convention: str = "paper-endo", *, curv) -> float:
    """Largest relative residual of the inversion and shift laws.

    For each sample tau the inversion law compares Z(-1/tau) against
    (-i)^(sigma/2) tau^alpha conj(tau)^beta Z(tau) with the descriptor's
    weights; the shift law compares Z(tau + 2) against Z(tau).
    """
    w = weights_for(desc, curv, convention)
    phase = modular_forms.principal_power(complex(0.0, -1.0), w.sigma_phase)
    worst = 0.0
    for tau in tau_samples:
        tau = modular_forms._as_tau(tau)
        z, z_inv, z_shift = (
            assemble_partition(desc, t, convention, curv=curv).value
            for t in (tau, -1.0 / tau, tau + 2.0))
        rhs = (phase * modular_forms.principal_power(tau, w.alpha)
               * modular_forms.principal_power(tau.conjugate(), w.beta) * z)
        scale = abs(z)
        worst = max(worst, abs(z_inv - rhs) / scale, abs(z_shift - z) / scale)
    return worst


_CONSISTENCY_TOL = 0.05


def anomaly_counterterms(desc: ManifoldDescriptor, curv,
                         convention: str = "paper-endo") -> dict:
    """Local-density coefficients that reproduce the modular weights.

    Writes alpha = c_gb*I_gb + c_p*I_p + c_R*I_R + c_r*I_r + c_s2*I_s2
    (beta likewise with the sign of the c_p term flipped).  This only
    exists when the topological content of the weights is itself given
    by the curvature integrals; descriptors where that fails (the
    non-derivable ALF case, or Betti data inconsistent with the
    integrals) raise a consistency error.
    """
    try:
        chi_top = float(euler_number(desc))
    except DescriptorError as exc:
        raise ConsistencyError(
            "weights-not-local",
            f"{desc.name}: weights are not locally representable; "
            f"{exc}") from exc
    sigma_top = float(desc.bplus_l2 - desc.bminus_l2)

    if abs(chi_top - curv.I_gb) > _CONSISTENCY_TOL * max(1.0, abs(chi_top)):
        raise ConsistencyError(
            "euler-mismatch",
            f"{desc.name}: descriptor Euler number {chi_top} vs curvature "
            f"integral {curv.I_gb:.6f}")
    sigma_matches = (abs(sigma_top - curv.I_p)
                     <= _CONSISTENCY_TOL * max(1.0, abs(sigma_top)))
    if desc.kind == "compact" and not sigma_matches:
        raise ConsistencyError(
            "signature-mismatch",
            f"{desc.name}: descriptor signature {sigma_top} vs curvature "
            f"integral {curv.I_p:.6f}")

    c_gb = 0.0 if chi_top == 0.0 else chi_top / (4.0 * curv.I_gb)
    if sigma_top == 0.0:
        c_p = 0.0
    elif abs(curv.I_p) < 1e-12:
        raise ConsistencyError(
            "signature-density-degenerate",
            f"{desc.name}: nonzero signature {sigma_top} with vanishing "
            f"density integral")
    else:
        c_p = sigma_top / (4.0 * curv.I_p)
    i_R, divisor = _riemann_norm(curv, convention)
    c_R = -1.0 / (2.0 * divisor * math.pi ** 2)
    c_r = 87.0 / (5760.0 * math.pi ** 2)
    c_s2 = -1.0 / (256.0 * math.pi ** 2)

    curv_part = c_R * i_R + c_r * curv.I_r + c_s2 * curv.I_s2
    alpha_rec = c_gb * curv.I_gb + c_p * curv.I_p + curv_part
    beta_rec = c_gb * curv.I_gb - c_p * curv.I_p + curv_part
    w = weights_for(desc, curv, convention)
    return {
        "c_R": c_R, "c_r": c_r, "c_s2": c_s2, "c_gb": c_gb, "c_p": c_p,
        "convention": convention,
        "reconstructed_alpha": alpha_rec,
        "reconstructed_beta": beta_rec,
        "weights_alpha": w.alpha,
        "weights_beta": w.beta,
        "chi_topological": chi_top,
        "chi_integral": curv.I_gb,
        "sigma_topological": sigma_top,
        "sigma_integral": curv.I_p,
        "sigma_discrepancy_flag": not sigma_matches,
    }


def pathological_partition(tau) -> dict:
    """Gaussian zero-mode factor arising without the holonomy constraint.

    The leftover c-field Gaussian contributes (i/conj tau)^(1/2), a bare
    anti-holomorphic weight -1/2 with no holomorphic partner, so no
    (alpha, beta) pair of the standard transformation law fits it.  On
    the negative real axis the square root takes its upper-half-plane
    limit (documented edge: tau = i gives exactly i).
    """
    tau = modular_forms._as_tau(tau)
    z = 1j / tau.conjugate()
    if z.imag == 0.0 and z.real < 0.0:
        gaussian = cmath.exp(0.5 * (math.log(abs(z)) + 1j * math.pi))
    else:
        gaussian = modular_forms.principal_power(z, 0.5)
    report = {
        "tau_weight": 0.0,
        "tau_bar_weight": -0.5,
        "fits_weight_pair": False,
        "note": ("single anti-holomorphic weight -1/2 on conj(tau) only; "
                 "no (alpha, beta) pair of the inversion law reproduces "
                 "an isolated half-integer conjugate weight"),
    }
    return {"gaussian_factor": gaussian, "weight_report": report}
