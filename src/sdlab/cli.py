"""Command-line interface.

Every command prints a human-readable report by default and a canonical
JSON envelope with --json (byte-identical for identical inputs).  Exit
codes: 0 success, 1 domain/consistency failures, 2 exhausted resource
budgets, 64 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings

import numpy as np

from . import __version__, cache
from .assembly import (anomaly_counterterms, assemble_partition,
                       harmonic_count, imtau_exponent, neck_check,
                       pathological_partition, verify_modularity, weights_for)
from .catalog import (BUILTINS, CatalogEntry, builtin_names, entry_integrals,
                      get_entry, parse_manifest)
from .errors import SdlabError, UsageError
from .geometry import CurvatureIntegrals, boundary_report, curvature_at
from .jsonio import canonical_dumps
from .lattice_sum import brute_force_partition, theta_product
from .modular_forms import cot_contour_theta, s_transform_residual, theta
from .spectral_zeta import torus_zeta_zero

_DEFAULT_TAUS = (complex(0.3, 0.8), complex(-1.1, 0.4), complex(0.05, 2.2),
                 complex(0.77, 1.3), complex(-2.4, 0.15))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems leave with code 64
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- small parsers

def parse_complex(text: str) -> complex:
    """Accept a+bi literals (i or j suffix)."""
    cleaned = text.strip().replace(" ", "").lower().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError("complex-literal",
                         f"{text!r} is not a complex number like 0.3+0.7i")


def parse_floats(text: str, count: int | None = None,
                 label: str = "values") -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise UsageError("float-list", f"{label}: {text!r}")
    if count is not None and len(vals) != count:
        raise UsageError("float-list",
                         f"{label}: expected {count} numbers, got {len(vals)}")
    return vals


def _convention(args) -> str:
    return {"paper": "paper-endo", "gilkey": "gilkey-full"}[args.convention]


# ------------------------------------------------------------ report helpers

def _fmt(value) -> str:
    if isinstance(value, complex):
        return "%.17g %+.17gi" % (value.real, value.imag)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _print_human(data: dict, indent: str = "") -> None:
    for key, value in data.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print(f"{indent}{key}[{i}]:")
                _print_human(item, indent + "  ")
        elif isinstance(value, (list, tuple)):
            print(f"{indent}{key}: [{', '.join(_fmt(v) for v in value)}]")
        else:
            print(f"{indent}{key}: {_fmt(value)}")


def _envelope(command: str, inputs: dict, results: dict,
              convention: str | None = None,
              error_estimate: float | None = None,
              cache_key: str | None = None) -> dict:
    env = {"command": command, "version": __version__, "inputs": inputs}
    if convention is not None:
        env["convention"] = convention
    env["results"] = results
    if error_estimate is not None:
        env["error_estimate"] = error_estimate
    if cache_key is not None:
        env["cache_key"] = cache_key
    return env


def _emit(args, env: dict, csv_rows: list[dict] | None = None) -> None:
    if getattr(args, "json", False):
        print(canonical_dumps(env))
        return
    if getattr(args, "csv", False):
        if not csv_rows:
            raise UsageError("csv-unavailable",
                             "this command produced no tabular rows")
        cols = list(csv_rows[0])
        print(",".join(cols))
        for row in csv_rows:
            print(",".join(_fmt(row[c]) for c in cols))
        return
    _print_human(env)


# ------------------------------------------------------------ catalog wiring

def _entry(args) -> CatalogEntry:
    extra = parse_manifest(args.manifest) if getattr(args, "manifest", None) else None
    return get_entry(args.manifold, extra)


_INTEGRAL_FIELDS = {f.name for f in dataclasses.fields(CurvatureIntegrals)}


def _integrals_for(entry: CatalogEntry, resolution: int,
                   cutoff: float | None, use_cache: bool = True):
    """(integrals, cache_key or None, hit) for a catalog entry; only
    integrals computed from a chart are cached."""
    compute = functools.partial(entry_integrals, entry, resolution, cutoff)
    if entry.descriptor.analytic_integrals is not None:
        return compute(), None, False
    backend = entry.backend
    payload = {"kind": "curvature-integrals", "backend": backend.id,
               "params": backend.params, "resolution": resolution,
               "cutoff": cutoff}
    if not use_cache:
        return compute(), cache.cache_key(payload), False
    record, key, hit = cache.get_or_compute(payload,
                                            lambda: compute().as_dict())
    if not (isinstance(record, dict) and record.keys() == _INTEGRAL_FIELDS):
        warnings.warn(f"cache entry {key} does not hold curvature "
                      f"integrals, recomputing")
        record, hit = compute().as_dict(), False
        cache.store(key, record)
    return CurvatureIntegrals(**record), key, hit


def _require_backend(entry: CatalogEntry):
    if entry.backend is None:
        raise UsageError("no-chart",
                         f"{entry.name} is analytic; it has no coordinate chart")
    return entry.backend


# ------------------------------------------------------------------ commands

def cmd_theta(args):
    tv = theta(parse_complex(args.tau), tol=args.tol)
    env = _envelope("theta",
                    {"tau": parse_complex(args.tau), "tol": args.tol},
                    {"value": tv.value, "tail_bound": tv.tail_bound,
                     "terms_used": tv.terms_used},
                    error_estimate=tv.tail_bound)
    return env, 0


def cmd_lattice(args):
    tau = parse_complex(args.tau)
    brute = brute_force_partition(args.bplus, args.bminus, args.box, tau)
    prod = theta_product(args.bplus, args.bminus, tau)
    diff = abs(brute - prod)
    env = _envelope("lattice",
                    {"bplus": args.bplus, "bminus": args.bminus,
                     "box": args.box, "tau": tau},
                    {"brute_force": brute, "theta_product": prod,
                     "abs_difference": diff})
    return env, 0


def cmd_curvature(args):
    entry = _entry(args)
    backend = _require_backend(entry)
    point = parse_floats(args.point, 4, "--point")
    s = curvature_at(backend, point)
    results = {
        "scalar": s.scalar, "inv_R_full": s.inv_R_full,
        "inv_R_endo": s.inv_R_endo, "inv_r": s.inv_r, "inv_s2": s.inv_s2,
        "gb_density": s.gb_density, "pontryagin_density": s.pontryagin_density,
        "bianchi_residual": s.bianchi_residual, "step": s.step,
    }
    env = _envelope("curvature",
                    {"manifold": entry.name, "point": list(point)}, results,
                    error_estimate=s.error_estimate)
    return env, 0


def cmd_integrate(args):
    entry = _entry(args)
    ci, key, hit = _integrals_for(entry, args.resolution, args.cutoff,
                                  use_cache=not args.no_cache)
    results = ci.as_dict()
    results["cache_hit"] = hit
    env = _envelope("integrate",
                    {"manifold": entry.name, "resolution": args.resolution,
                     "cutoff": args.cutoff},
                    results, error_estimate=ci.error_estimate, cache_key=key)
    return env, 0


def cmd_boundary(args):
    entry = _entry(args)
    backend = _require_backend(entry)
    rhos = parse_floats(args.rho, None, "--rho")
    rows = [boundary_report(backend, rho, resolution=args.resolution).as_dict()
            for rho in rhos]
    env = _envelope("boundary",
                    {"manifold": entry.name, "rho": list(rhos),
                     "resolution": args.resolution},
                    {"reports": rows})
    return env, 0, rows


def cmd_zeta(args):
    basis = np.array(parse_floats(args.lattice, 16, "--lattice"),
                     dtype=float).reshape(4, 4)
    res = torus_zeta_zero(basis, args.k)
    env = _envelope("zeta",
                    {"lattice": [list(row) for row in basis.tolist()],
                     "k": args.k},
                    res.as_dict(), error_estimate=res.truncation_error)
    return env, 0


def cmd_weights(args):
    entry = _entry(args)
    conv = _convention(args)
    ci, key, _ = _integrals_for(entry, args.resolution, args.cutoff)
    w = weights_for(entry.descriptor, ci, conv)
    exponent = imtau_exponent(entry.descriptor, ci, conv)
    env = _envelope("weights",
                    {"manifold": entry.name, "resolution": args.resolution,
                     "cutoff": args.cutoff},
                    {"alpha": w.alpha, "beta": w.beta,
                     "sigma_phase": w.sigma_phase,
                     "imtau_power_exponent": exponent},
                    convention=conv, error_estimate=ci.error_estimate,
                    cache_key=key)
    return env, 0


def cmd_partition(args):
    entry = _entry(args)
    conv = _convention(args)
    tau = parse_complex(args.tau)
    ci, key, _ = _integrals_for(entry, args.resolution, args.cutoff)
    pe = assemble_partition(entry.descriptor, tau, conv, ci)
    env = _envelope("partition",
                    {"manifold": entry.name, "tau": tau,
                     "resolution": args.resolution, "cutoff": args.cutoff},
                    {"value": pe.value, "factors": pe.factors},
                    convention=conv, error_estimate=ci.error_estimate,
                    cache_key=key)
    return env, 0


def cmd_anomaly(args):
    entry = _entry(args)
    conv = _convention(args)
    ci, key, _ = _integrals_for(entry, args.resolution, args.cutoff)
    record = anomaly_counterterms(entry.descriptor, ci, conv)
    record.pop("convention")
    env = _envelope("anomaly",
                    {"manifold": entry.name, "resolution": args.resolution,
                     "cutoff": args.cutoff},
                    record, convention=conv,
                    error_estimate=ci.error_estimate, cache_key=key)
    return env, 0


def cmd_pathology(args):
    tau = parse_complex(args.tau)
    out = pathological_partition(tau)
    env = _envelope("pathology", {"tau": tau},
                    {"gaussian_factor": out["gaussian_factor"],
                     "weight_report": out["weight_report"]})
    return env, 0


def cmd_neck(args):
    entry = _entry(args)
    res = neck_check(entry.descriptor)
    env = _envelope("neck", {"manifold": entry.name}, res)
    return env, 0


def cmd_catalog(args):
    extra = parse_manifest(args.manifest) if args.manifest else {}
    if args.action == "list":
        rows = []
        for name in list(builtin_names()) + sorted(extra):
            d = (extra.get(name) or BUILTINS[name]).descriptor
            rows.append({"name": name, "kind": d.kind, "b0": d.b0,
                         "b1": d.b1, "bplus_l2": d.bplus_l2,
                         "bminus_l2": d.bminus_l2, "geometry": d.geometry})
        env = _envelope("catalog", {"action": "list"}, {"manifolds": rows})
        return env, 0
    entry = get_entry(args.name, extra)
    d = entry.descriptor
    results = {
        "name": d.name, "kind": d.kind, "b0": d.b0, "b1": d.b1,
        "bplus_l2": d.bplus_l2, "bminus_l2": d.bminus_l2,
        "torsion_order": d.torsion_order, "geometry": d.geometry,
        "vol_flat_torus_factor": d.vol_flat_torus_factor,
    }
    if d.kind == "alf":
        results["b0_D"] = d.b0_D
        results["b1_D"] = d.b1_D
        results["h1_neck_trivial"] = d.h1_neck_trivial
    if entry.backend is not None:
        results["backend_params"] = entry.backend.params
    if d.analytic_integrals is not None:
        results["analytic_integrals"] = d.analytic_integrals.as_dict()
    env = _envelope("catalog", {"action": "show", "name": args.name}, results)
    return env, 0


# -------------------------------------------------------------------- verify

def _verdict(name: str, ok: bool, details: dict) -> dict:
    return {"check": name, "pass": bool(ok), **details}


def cmd_verify_theta(args):
    worst_s = 0.0
    for tau in _DEFAULT_TAUS:
        worst_s = max(worst_s, s_transform_residual(tau))
    contour = []
    worst_c = 0.0
    for u in (1j, 2j, complex(0.5, 1.0)):
        ref = theta(u, tol=1e-10).value
        for eps in (0.1, 0.2, 0.3):
            plus, minus = cot_contour_theta(u, eps, tol=1e-8)
            err = abs(minus - ref)
            worst_c = max(worst_c, err)
            contour.append({"u": u, "eps": eps, "contour_minus": minus,
                            "abs_error": err})
    ok = worst_s <= 1e-9 and worst_c <= 1e-6
    env = _envelope("verify",
                    {"check": "theta"},
                    _verdict("theta", ok,
                             {"max_s_transform_residual": worst_s,
                              "max_contour_error": worst_c,
                              "contour": contour}))
    return env, 0 if ok else 1


def cmd_verify_modularity(args):
    entry = _entry(args)
    conv = _convention(args)
    taus = ([parse_complex(t) for t in args.taus.split(",")]
            if args.taus else list(_DEFAULT_TAUS))
    ci, key, _ = _integrals_for(entry, args.resolution, args.cutoff)
    residual = verify_modularity(entry.descriptor, taus, conv, ci)
    tol = args.tol if args.tol is not None else (
        1e-8 if entry.descriptor.kind == "compact" else 1e-6)
    ok = residual <= tol
    env = _envelope("verify",
                    {"check": "modularity", "manifold": entry.name,
                     "taus": taus, "tol": tol},
                    _verdict("modularity", ok,
                             {"max_relative_residual": residual}),
                    convention=conv, cache_key=key)
    return env, 0 if ok else 1


def cmd_verify_gauss_bonnet(args):
    entry = _entry(args)
    d = entry.descriptor
    ci, key, _ = _integrals_for(entry, args.resolution, args.cutoff)
    chi = (2 * harmonic_count(d, 0) - 2 * harmonic_count(d, 1)
           + d.bplus_l2 + d.bminus_l2)
    diff = abs(chi - ci.I_gb)
    tol = 0.03 * max(1.0, abs(chi))
    ok = diff <= tol
    env = _envelope("verify",
                    {"check": "gauss-bonnet", "manifold": entry.name,
                     "resolution": args.resolution, "cutoff": args.cutoff},
                    _verdict("gauss-bonnet", ok,
                             {"euler_topological": float(chi),
                              "euler_integral": ci.I_gb,
                              "abs_difference": diff, "tolerance": tol}),
                    error_estimate=ci.error_estimate, cache_key=key)
    return env, 0 if ok else 1


def cmd_verify_decay(args):
    entry = _entry(args)
    backend = _require_backend(entry)
    rhos = parse_floats(args.rho, None, "--rho")
    if len(rhos) < 3:
        raise UsageError("rho-sequence", "need at least three radii")
    for a, b in zip(rhos, rhos[1:]):
        if abs(b - 2.0 * a) > 1e-9 * b:
            raise UsageError("rho-sequence",
                             f"radii must double: {a} -> {b}")
    reports = [boundary_report(backend, r, resolution=args.resolution)
               for r in rhos]
    ratios = [reports[i + 1].pi_sup / reports[i].pi_sup
              for i in range(len(reports) - 1)]
    ratios_ok = all(0.45 <= q <= 0.55 for q in ratios)
    v40 = [abs(r.v40_integral) for r in reports]
    v41 = [abs(r.v41_integral) for r in reports]
    decreasing = (all(a > b for a, b in zip(v40, v40[1:]))
                  and all(a > b for a, b in zip(v41, v41[1:])))
    slope = np.polyfit(np.log(np.asarray(rhos, dtype=float)),
                       np.log(np.asarray(v40)), 1)[0]
    order = -float(slope)
    order_ok = order >= 0.8
    ok = ratios_ok and decreasing and order_ok
    env = _envelope("verify",
                    {"check": "decay", "manifold": entry.name,
                     "rho": list(rhos), "resolution": args.resolution},
                    _verdict("decay", ok,
                             {"pi_sup_ratios": [float(q) for q in ratios],
                              "ratios_in_window": ratios_ok,
                              "v4_strictly_decreasing": decreasing,
                              "fitted_decay_order": order,
                              "reports": [r.as_dict() for r in reports]}))
    return env, 0 if ok else 1


# --------------------------------------------------------------------- main

def _add_manifold_opts(p):
    p.add_argument("--manifold", required=True, help="catalog entry name")
    p.add_argument("--manifest", default=None,
                   help="INI manifest adding user manifolds")
    p.add_argument("--resolution", type=int, default=4)
    p.add_argument("--cutoff", type=float, default=None,
                   help="ALF truncation radius (default 10x geometry scale)")


def _add_convention(p):
    p.add_argument("--convention", choices=("paper", "gilkey"),
                   default="paper",
                   help="quartic-curvature norm convention")


def _command(sub, name: str, handler, help: str, *adders):
    """Subparser for one command: --json, then each adder's options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=handler)
    for add in adders:
        add(p)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="sdlab",
                     description="modular structure of abelian gauge fields "
                                 "on four-manifolds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", metavar="command")

    p = _command(sub, "theta", cmd_theta, "theta series with certified tail")
    p.add_argument("--tau", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = _command(sub, "lattice", cmd_lattice,
                 "brute-force flux sum vs theta product")
    p.add_argument("--tau", required=True)
    p.add_argument("--bplus", type=int, required=True)
    p.add_argument("--bminus", type=int, required=True)
    p.add_argument("--box", type=int, default=30)

    p = _command(sub, "curvature", cmd_curvature,
                 "pointwise curvature invariants", _add_manifold_opts)
    p.add_argument("--point", required=True, help="x1,x2,x3,x4")

    p = _command(sub, "integrate", cmd_integrate, "volume curvature integrals",
                 _add_manifold_opts)
    p.add_argument("--no-cache", action="store_true")

    p = _command(sub, "boundary", cmd_boundary, "truncation-boundary reports",
                 _add_manifold_opts)
    p.add_argument("--rho", required=True, help="comma-separated radii")
    p.add_argument("--csv", action="store_true")

    p = _command(sub, "zeta", cmd_zeta, "flat-torus spectral zeta at s = 0")
    p.add_argument("--lattice", required=True,
                   help="16 floats, 4x4 generator rows")
    p.add_argument("--k", type=int, required=True, choices=range(0, 5))

    _command(sub, "weights", cmd_weights, "modular weights (alpha, beta)",
             _add_manifold_opts, _add_convention)
    p = _command(sub, "partition", cmd_partition,
                 "partition value at a coupling",
                 _add_manifold_opts, _add_convention)
    p.add_argument("--tau", required=True)
    _command(sub, "anomaly", cmd_anomaly, "local counterterm coefficients",
             _add_manifold_opts, _add_convention)

    p = _command(sub, "pathology", cmd_pathology,
                 "leftover Gaussian factor without the holonomy constraint")
    p.add_argument("--tau", required=True)

    p = _command(sub, "neck", cmd_neck, "1-form Dirichlet derivability check")
    p.add_argument("--manifold", required=True)
    p.add_argument("--manifest", default=None)

    p = _command(sub, "catalog", cmd_catalog, "list or show catalog entries")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--manifest", default=None)

    v = sub.add_parser("verify", help="dual-route consistency checks")
    vsub = v.add_subparsers(dest="verify_cmd", metavar="check")
    _command(vsub, "theta", cmd_verify_theta, "inversion law and contour route")
    p = _command(vsub, "modularity", cmd_verify_modularity,
                 "partition transformation law",
                 _add_manifold_opts, _add_convention)
    p.add_argument("--taus", default=None,
                   help="comma-separated coupling samples")
    p.add_argument("--tol", type=float, default=None)
    _command(vsub, "gauss-bonnet", cmd_verify_gauss_bonnet,
             "Euler number vs curvature integral", _add_manifold_opts)
    p = _command(vsub, "decay", cmd_verify_decay, "boundary-term falloff",
                 _add_manifold_opts)
    p.add_argument("--rho", required=True,
                   help="comma-separated doubling radii, at least three")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 64
    if getattr(args, "cmd", None) == "catalog" and args.action == "show" \
            and not args.name:
        parser.print_usage(sys.stderr)
        print("sdlab: error: catalog show needs a name", file=sys.stderr)
        return 64
    try:
        out = handler(args)
    except SdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    env, code = out[0], out[1]
    csv_rows = out[2] if len(out) > 2 else None
    _emit(args, env, csv_rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
