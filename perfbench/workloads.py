"""Workload inputs, op lists and per-op correctness checks.

Every input is drawn from the benchmark seed; sdlab itself only sees the
generated command lines, manifests, lattices and couplings.  Each op
carries a check against an exact reference (or an independent route) and
reports, where an exact value exists, the relative error
|value - exact| / max(1, |exact|) and that error over the reported
error estimate.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# the workloads BENCHMARK.json lists, and one that runs by hand only: with
# spectral listed too, the gated runs fit their time limit only at about
# 40 s a run, one pass of integrate-cold when the host is busy
WORKLOADS = ("integrate-cold", "cli-warm")
EXTRA_WORKLOADS = ("spectral",)
# random stream of each workload's inputs
_STREAMS = {"integrate-cold": 0, "spectral": 1, "cli-warm": 2}

# integrals every cli-warm op reads from the primed cache
PRIMED = ("flat-torus", "round-s4", "taub-nut-1", "schwarzschild")

# singular values of the spectral workload's lattices; the enumeration box
# depends only on these, so every seed scans the same number of points
SIGMA_LADDER = ((4.5, 5.0, 5.5, 6.0), (1.5, 2.0, 2.5, 3.0),
                (1.2, 1.5, 2.0, 2.5), (1.0, 1.2, 1.5, 2.0),
                (0.7, 1.0, 1.3, 2.0))
# well inside LATTICE_CONDITION_CAP, but its dual box exceeds the scan limit
SIGMA_REFUSED = (0.35, 1.0, 1.5, 3.0)
SIGMA_CLI = (2.5, 3.0, 3.5, 4.0)
BRUTE_BOX = 30
IM_TAU = {"theta": 1.0, "lattice": 0.7, "partition": 0.8, "pathology": 0.9}


@dataclass
class Outcome:
    code: int
    stdout: str
    value: object = None
    error: str | None = None


@dataclass
class Verdict:
    ok: bool = True
    notes: list = field(default_factory=list)
    ref_errs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)

    def near(self, label: str, value, exact, tol: float,
             estimate: float | None = None, exact_ref: bool = True) -> None:
        """value within tol (absolute) of exact; logs the reference error."""
        try:
            diff = abs(complex(value) - complex(exact))
        except (TypeError, ValueError):
            self.fail(f"{label}: not a number: {value!r}")
            return
        if exact_ref:
            rel = diff / max(1.0, abs(exact))
            self.ref_errs.append(rel)
            if estimate:
                self.ratios.append(rel / estimate)
        if not diff <= tol:
            self.fail(f"{label}: {value!r} vs {exact!r} (tol {tol:g})")

    def truth(self, label: str, cond: bool) -> None:
        if not cond:
            self.fail(label)


@dataclass
class Op:
    name: str
    check: Callable[[Outcome, "Context", Verdict], None]
    argv: list | None = None          # CLI op: arguments after "sdlab"
    call: Callable | None = None      # library op: () -> value
    refusal: str | None = None        # known defect: this slug is accepted


@dataclass
class Context:
    cache_dir: str


def judge(op: Op, out: Outcome, ctx: Context) -> Verdict:
    v = Verdict()
    if op.argv is not None:
        if out.code != 0:
            v.fail(f"exit code {out.code}: {out.error or ''}".strip())
            return v
        try:
            env = json.loads(out.stdout)
        except ValueError:
            v.fail("stdout is not JSON")
            return v
        try:
            op.check(env, ctx, v)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            v.fail(f"malformed output: {exc!r}")
        return v
    if out.error is not None:
        if op.refusal is not None and out.error == op.refusal:
            v.notes.append(f"refused: {out.error}")
        else:
            v.fail(f"raised {out.error}")
        return v
    op.check(out.value, ctx, v)
    return v


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"]) if isinstance(obj, dict) else complex(obj)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _orthogonal(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


def seeded_lattice(rng, sigma) -> np.ndarray:
    """Q1 diag(sigma) Q2 with Haar-random rotations: singular values sigma."""
    return _orthogonal(rng) @ np.diag(sigma) @ _orthogonal(rng)


def _tau(rng, im: float) -> complex:
    return complex(float(rng.uniform(-1.0, 1.0)), im)


def _tau_arg(tau: complex) -> str:
    return f"{tau.real!r}{tau.imag:+.17g}i"


def _floats_arg(values) -> str:
    return ",".join(repr(float(x)) for x in values)


# ------------------------------------------------------------------ checks

def _cache_record(env: dict, ctx: Context) -> dict:
    path = os.path.join(ctx.cache_dir, env["cache_key"] + ".json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _check_gb(chi: float, tol: float, record: dict, v: Verdict) -> None:
    v.near("I_gb", record["I_gb"], chi, tol, estimate=record["error_estimate"])


def _gb_tol(kind: str, chi: float) -> float:
    # references: torus 0 exactly, S4 2 +- 1e-3, Taub-NUT chains the centre
    # count +- 1%, Schwarzschild 2 +- 2%
    return {"flat-torus": 1e-12, "round-s4": 1e-3, "multi-taub-nut": 0.01 * chi,
            "schwarzschild": 0.02 * chi}[kind]


def _check_weights(kind: str, chi: float, centers: int = 0):
    def check(env, ctx, v):
        res = env["results"]
        record = _cache_record(env, ctx)
        _check_gb(chi, _gb_tol(kind, chi), record, v)
        if kind == "round-s4":
            for key in ("alpha", "beta"):
                v.near(key, res[key], 23.0 / 60.0, 1e-3)
        elif kind == "multi-taub-nut":
            # Ricci-flat with b0_D = b1_D = 0: alpha = -n/30, beta = 7n/15
            v.near("alpha", res["alpha"], -centers / 30.0, 0.02 * centers / 30.0)
            v.near("beta", res["beta"], 7.0 * centers / 15.0,
                   0.02 * 7.0 * centers / 15.0)
    return check


def _check_integrate(kind: str, chi: float, expect_hit: bool):
    def check(env, ctx, v):
        res = env["results"]
        _check_gb(chi, _gb_tol(kind, chi), res, v)
        v.truth(f"cache_hit is {res['cache_hit']}, expected {expect_hit}",
                res["cache_hit"] is expect_hit)
    return check


def _check_zeta(k: int):
    exact = -float(math.comb(4, k))

    def check(res, ctx, v):
        value = res["zeta_at_zero"] if isinstance(res, dict) else res.zeta_at_zero
        err = (res["truncation_error"] if isinstance(res, dict)
               else res.truncation_error)
        v.near(f"zeta_{k}(0)", value, exact, 1e-6, estimate=err)
    return check


def _check_zeta_env(k: int):
    inner = _check_zeta(k)
    return lambda env, ctx, v: inner(env["results"], ctx, v)


def _check_brute(res, ctx, v):
    for brute, product in res:
        v.near("brute force vs theta product", brute, product,
               1e-8 * abs(product))


def _check_lattice(env, ctx, v):
    res = env["results"]
    brute, product = _complex(res["brute_force"]), _complex(res["theta_product"])
    v.near("brute force vs theta product", brute, product, 1e-8 * abs(product))


def _direct_theta(tau: complex) -> complex:
    n = np.arange(-60, 61, dtype=float)
    return complex(np.sum(np.exp(1j * math.pi * tau * n * n)))


def _check_theta(tau: complex):
    def check(env, ctx, v):
        v.near("theta vs direct sum", _complex(env["results"]["value"]),
               _direct_theta(tau), 1e-12, exact_ref=False)
    return check


def _check_curvature(kind: str):
    def check(env, ctx, v):
        res = env["results"]
        if kind == "round-s4":
            v.near("scalar curvature", res["scalar"], 12.0, 1e-5,
                   exact_ref=False)
        else:
            v.truth("Ricci-flat to 1e-6 of Riemann",
                    res["inv_r"] <= 1e-12 * res["inv_R_full"])
    return check


def _check_boundary(count: int):
    def check(env, ctx, v):
        reports = env["results"]["reports"]
        v.truth("one report per radius", len(reports) == count)
        v.truth("positive boundary areas",
                all(r["boundary_area"] > 0 for r in reports))
    return check


def _check_partition(env, ctx, v):
    f = env["results"]["factors"]
    v.truth("theta_plus is 1 on taub-nut-1", _complex(f["theta_plus"]) == 1.0)
    v.near("exponent", f["imtau_power_exponent"], 1.0 / 30.0, 0.02 / 30.0,
           exact_ref=False)


def _check_anomaly(env, ctx, v):
    res = env["results"]
    v.near("reconstructed alpha", res["reconstructed_alpha"],
           res["weights_alpha"], 1e-12, exact_ref=False)


def _check_pathology(tau: complex):
    def check(env, ctx, v):
        expected = cmath.exp(0.5 * cmath.log(1j / tau.conjugate()))
        v.near("gaussian factor", _complex(env["results"]["gaussian_factor"]),
               expected, 1e-12, exact_ref=False)
    return check


def _check_neck(env, ctx, v):
    v.truth("neck rule derives b1_D = 0",
            env["results"] == {"condition_holds": True, "derived_b1_D": 0})


def _check_catalog_list(env, ctx, v):
    names = [row["name"] for row in env["results"]["manifolds"]]
    v.truth("six built-in manifolds", names == [
        "flat-torus", "round-s4", "k3-analytic", "taub-nut-1", "taub-nut-2",
        "schwarzschild"])


def _check_catalog_show(env, ctx, v):
    res = env["results"]
    v.truth("taub-nut-2 is ALF with b-_L2 = 2",
            res["kind"] == "alf" and res["bminus_l2"] == 2)


def _check_verify(env, ctx, v):
    v.truth("verify reports pass", env["results"]["pass"] is True)


# ---------------------------------------------------------------- workloads

@dataclass
class Plan:
    """A workload's generated inputs and its op list for one pass."""

    workload: str
    seed: int
    inputs: dict
    ops: list
    manifest: str | None = None   # INI text the CLI ops read, if any


def _manifest_section(name: str, mass: float, centers) -> str:
    return "\n".join([
        f"[{name}]", "kind = alf", "b0 = 1", "b1 = 0", "bplus_l2 = 0",
        f"bminus_l2 = {len(centers)}", "b0_d = derive", "b1_d = derive",
        "h1_neck_trivial = yes", "geometry = multi-taub-nut",
        f"mass = {mass!r}",
        "centers = " + ", ".join(" ".join(repr(c) for c in ctr)
                                 for ctr in centers), ""])


def plan_integrate_cold(seed: int, manifest_path: str) -> Plan:
    rng = _rng(seed, "integrate-cold")
    m2 = float(rng.uniform(0.25, 0.8))
    half = float(rng.uniform(0.3, 2.0))
    m1a, m1b = (float(x) for x in rng.uniform(0.25, 2.0, 2))
    seeded = [("seeded-tn2", m2, ((0.0, 0.0, -half), (0.0, 0.0, half))),
              ("seeded-tn1-a", m1a, ((0.0, 0.0, 0.0),)),
              ("seeded-tn1-b", m1b, ((0.0, 0.0, 0.0),))]
    manifest = "\n".join(_manifest_section(*s) for s in seeded)
    ops = [
        Op("weights flat-torus", _check_weights("flat-torus", 0.0),
           ["weights", "--manifold", "flat-torus", "--json"]),
        Op("weights round-s4", _check_weights("round-s4", 2.0),
           ["weights", "--manifold", "round-s4", "--json"]),
        Op("weights taub-nut-1", _check_weights("multi-taub-nut", 1.0, 1),
           ["weights", "--manifold", "taub-nut-1", "--json"]),
        Op("weights taub-nut-2", _check_weights("multi-taub-nut", 2.0, 2),
           ["weights", "--manifold", "taub-nut-2", "--json"]),
        # weights on schwarzschild is refused by design (dirichlet-underived)
        Op("integrate schwarzschild",
           _check_integrate("schwarzschild", 2.0, expect_hit=False),
           ["integrate", "--manifold", "schwarzschild", "--json"]),
    ]
    for name, _, centers in seeded:
        n = len(centers)
        ops.append(Op(f"weights {name}",
                      _check_weights("multi-taub-nut", float(n), n),
                      ["weights", "--manifold", name, "--manifest",
                       manifest_path, "--json"]))
    inputs = {"two_center": {"mass": m2, "half_separation": half},
              "single_center_masses": [m1a, m1b], "manifest": manifest}
    return Plan("integrate-cold", seed, inputs, ops, manifest)


def plan_spectral(seed: int) -> Plan:
    from sdlab import lattice_sum, spectral_zeta

    rng = _rng(seed, "spectral")
    ops = []
    lattices = []
    ladder = list(SIGMA_LADDER) + [SIGMA_REFUSED]
    for i, sigma in enumerate(ladder):
        basis = seeded_lattice(rng, sigma)
        k = i % 5
        lattices.append({"sigma": list(sigma), "k": k,
                         "basis": basis.tolist()})
        refused = sigma == SIGMA_REFUSED
        ops.append(Op(f"zeta sigma={sigma} k={k}", _check_zeta(k),
                      call=(lambda b=basis, k=k:
                            spectral_zeta.torus_zeta_zero(b, k)),
                      refusal="lattice-enumeration" if refused else None))
    # one op checks every split b+ + b- = d <= 4; with the six zeta ops that
    # makes seven, and the median op is one of the two that take about 0.5 s
    splits = [(bplus, d - bplus, _tau(rng, IM_TAU["lattice"]))
              for d in range(1, 5) for bplus in range(d, -1, -1)]
    ops.append(Op(
        "lattice d<=4", _check_brute,
        call=lambda: [(lattice_sum.brute_force_partition(p, m, BRUTE_BOX, t),
                       lattice_sum.theta_product(p, m, t))
                      for p, m, t in splits]))
    brute = [{"bplus": p, "bminus": m, "tau": [t.real, t.imag]}
             for p, m, t in splits]
    inputs = {"lattices": lattices, "brute_force": brute, "box": BRUTE_BOX}
    return Plan("spectral", seed, inputs, ops)


def plan_cli_warm(seed: int) -> Plan:
    rng = _rng(seed, "cli-warm")
    tau_theta = _tau(rng, IM_TAU["theta"])
    tau_lattice = _tau(rng, IM_TAU["lattice"])
    tau_part = _tau(rng, IM_TAU["partition"])
    tau_path = _tau(rng, IM_TAU["pathology"])
    r, th, ph = (float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.5, 2.6)),
                 float(rng.uniform(0.0, 2.0 * math.pi)))
    tn_point = (r * math.sin(th) * math.cos(ph), r * math.sin(th) * math.sin(ph),
                r * math.cos(th), float(rng.uniform(0.0, 2.0 * math.pi)))
    s4_point = tuple(float(x) for x in rng.uniform(0.5, 2.6, 3)) + (
        float(rng.uniform(0.0, 2.0 * math.pi)),)
    rhos = sorted(float(x) for x in rng.uniform(15.0, 40.0, 2))
    rho0 = float(rng.uniform(20.0, 30.0))
    decay = (rho0, 2.0 * rho0, 4.0 * rho0)
    basis = seeded_lattice(rng, SIGMA_CLI)
    k = int(rng.integers(0, 5))

    def manifold(cmd, name, *extra):
        return [*cmd.split(), "--manifold", name, *extra, "--json"]

    ops = [
        Op("theta", _check_theta(tau_theta),
           ["theta", "--tau=" + _tau_arg(tau_theta), "--json"]),
        Op("lattice", _check_lattice,
           ["lattice", "--tau=" + _tau_arg(tau_lattice), "--bplus", "2",
            "--bminus", "1", "--box", str(BRUTE_BOX), "--json"]),
        Op("curvature taub-nut-1", _check_curvature("taub-nut-1"),
           manifold("curvature", "taub-nut-1", "--point=" + _floats_arg(tn_point))),
        Op("curvature round-s4", _check_curvature("round-s4"),
           manifold("curvature", "round-s4", "--point=" + _floats_arg(s4_point))),
        Op("integrate round-s4", _check_integrate("round-s4", 2.0, True),
           manifold("integrate", "round-s4")),
        Op("integrate taub-nut-1",
           _check_integrate("multi-taub-nut", 1.0, True),
           manifold("integrate", "taub-nut-1")),
        Op("integrate schwarzschild",
           _check_integrate("schwarzschild", 2.0, True),
           manifold("integrate", "schwarzschild")),
        Op("boundary taub-nut-1", _check_boundary(len(rhos)),
           manifold("boundary", "taub-nut-1", "--rho=" + _floats_arg(rhos))),
        Op("zeta", _check_zeta_env(k),
           ["zeta", "--lattice=" + _floats_arg(basis.ravel()), "--k", str(k),
            "--json"]),
        Op("weights taub-nut-1", _check_weights("multi-taub-nut", 1.0, 1),
           manifold("weights", "taub-nut-1")),
        Op("weights round-s4", _check_weights("round-s4", 2.0),
           manifold("weights", "round-s4")),
        Op("weights flat-torus", _check_weights("flat-torus", 0.0),
           manifold("weights", "flat-torus")),
        Op("partition taub-nut-1", _check_partition,
           manifold("partition", "taub-nut-1", "--tau=" + _tau_arg(tau_part))),
        Op("anomaly taub-nut-1", _check_anomaly,
           manifold("anomaly", "taub-nut-1")),
        Op("pathology", _check_pathology(tau_path),
           ["pathology", "--tau=" + _tau_arg(tau_path), "--json"]),
        Op("neck taub-nut-2", _check_neck, manifold("neck", "taub-nut-2")),
        Op("catalog list", _check_catalog_list, ["catalog", "list", "--json"]),
        Op("catalog show", _check_catalog_show,
           ["catalog", "show", "taub-nut-2", "--json"]),
        Op("verify theta", _check_verify, ["verify", "theta", "--json"]),
        Op("verify modularity", _check_verify,
           manifold("verify modularity", "taub-nut-1")),
        Op("verify gauss-bonnet", _check_verify,
           manifold("verify gauss-bonnet", "taub-nut-1")),
        Op("verify decay", _check_verify,
           manifold("verify decay", "taub-nut-1", "--rho=" + _floats_arg(decay))),
    ]
    inputs = {"tau": {"theta": [tau_theta.real, tau_theta.imag],
                      "lattice": [tau_lattice.real, tau_lattice.imag],
                      "partition": [tau_part.real, tau_part.imag],
                      "pathology": [tau_path.real, tau_path.imag]},
              "points": {"taub-nut-1": list(tn_point), "round-s4": list(s4_point)},
              "boundary_rho": rhos, "decay_rho": list(decay),
              "zeta": {"sigma": list(SIGMA_CLI), "k": k,
                       "basis": basis.tolist()}}
    return Plan("cli-warm", seed, inputs, ops)


def priming_argv() -> list:
    return [["integrate", "--manifold", name, "--json"] for name in PRIMED]
