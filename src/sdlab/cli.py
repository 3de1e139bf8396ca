"""Command-line interface.

Every command prints a human-readable report by default and a canonical
JSON envelope with --json (byte-identical for identical inputs).  A
handler returns only its own part, ``(inputs, results, extras)``, or for
a ``verify`` check ``(inputs, ok, details, extras)``; extras may hold
``convention``, ``error_estimate``, ``cache_key`` and ``csv_rows``.
`main` builds the envelope, prints it and sets the exit code: 0 success,
1 domain/consistency failures and failed checks, 2 exhausted resource
budgets, 64 usage errors.  `run` is `main` for a process that exits next.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import sys

from . import __version__, _lazy
from .errors import DomainError, SdlabError, UsageError
from .jsonio import canonical_dumps, finite_float, finite_floats

# Every sdlab module is registered here and runs at its first attribute
# access, so a process executes only the modules its command reaches, and
# `import sdlab.cli` still puts each of them in sys.modules (perfbench's
# `spans.instrument` wraps the functions of every module it finds there).
assembly = _lazy("sdlab.assembly")
_lazy("sdlab.cache")
catalog = _lazy("sdlab.catalog")
_lazy("sdlab.geometry.backends")
boundary = _lazy("sdlab.geometry.boundary")
curvature = _lazy("sdlab.geometry.curvature")
integrals = _lazy("sdlab.geometry.integrals")
_lazy("sdlab.geometry.quadrature")
lattice_sum = _lazy("sdlab.lattice_sum")
modular_forms = _lazy("sdlab.modular_forms")
spectral_zeta = _lazy("sdlab.spectral_zeta")
np = _lazy("numpy")

_DEFAULT_TAUS = (complex(0.3, 0.8), complex(-1.1, 0.4), complex(0.05, 2.2),
                 complex(0.77, 1.3), complex(-2.4, 0.15))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems leave with code 64
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- small parsers

def parse_complex(text: str) -> complex:
    """Accept finite a+bi literals (i or j suffix)."""
    cleaned = text.strip().replace(" ", "").lower().replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise UsageError("complex-literal",
                         f"{text!r} is not a finite complex number like "
                         f"0.3+0.7i")
    return value


def parse_floats(text: str, count: int | None = None,
                 label: str = "values") -> tuple[float, ...]:
    try:
        vals = finite_floats(text)
    except ValueError:
        raise UsageError("float-list", f"{label}: {text!r}")
    if not vals or count not in (None, len(vals)):
        raise UsageError("float-list", f"{label}: expected "
                         f"{count or 'one or more'} numbers, got {len(vals)}")
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


def _envelope(command: str, inputs: dict, results: dict, extras: dict) -> dict:
    """The --json envelope in key order, without absent or None extras."""
    env = {"command": command, "version": __version__, "inputs": inputs,
           "convention": extras.get("convention"), "results": results,
           "error_estimate": extras.get("error_estimate"),
           "cache_key": extras.get("cache_key")}
    return {k: v for k, v in env.items() if v is not None}


def _emit(args, env: dict, csv_rows: list[dict] | None = None) -> None:
    if getattr(args, "json", False):
        print(canonical_dumps(env))
        return
    if getattr(args, "csv", False):
        cols = list(csv_rows[0])
        print(",".join(cols))
        for row in csv_rows:
            print(",".join(_fmt(row[c]) for c in cols))
        return
    _print_human(env)


# ------------------------------------------------------------ catalog wiring

def _entry(args) -> catalog.CatalogEntry:
    manifest = getattr(args, "manifest", None)
    extra = catalog.parse_manifest(manifest) if manifest else None
    return catalog.get_entry(args.manifold, extra)


def _integrals(args):
    """(entry, integrals, cache_key or None, hit) for the command's args."""
    entry = _entry(args)
    return (entry, *catalog.entry_integrals(
        entry, args.resolution, args.cutoff, getattr(args, "no_cache", False)))


def _chart(args):
    entry = _entry(args)
    if entry.backend is None:
        raise UsageError("no-chart",
                         f"{entry.name} is analytic; it has no coordinate chart")
    return entry, entry.backend


def _scope(entry: catalog.CatalogEntry, args) -> dict:
    return {"manifold": entry.name, "resolution": args.resolution,
            "cutoff": args.cutoff}


# ------------------------------------------------------------------ commands

def cmd_theta(args):
    tau = parse_complex(args.tau)
    tv = modular_forms.theta(tau, tol=args.tol)
    return ({"tau": tau, "tol": args.tol},
            {"value": tv.value, "tail_bound": tv.tail_bound,
             "terms_used": tv.terms_used},
            {"error_estimate": tv.error_estimate})


def cmd_lattice(args):
    tau = parse_complex(args.tau)
    brute = lattice_sum.brute_force_partition(args.bplus, args.bminus,
                                              args.box, tau)
    prod = lattice_sum.theta_product(args.bplus, args.bminus, tau)
    return ({"bplus": args.bplus, "bminus": args.bminus, "box": args.box,
             "tau": tau},
            {"brute_force": brute, "theta_product": prod,
             "abs_difference": abs(brute - prod)}, {})


def cmd_curvature(args):
    entry, backend = _chart(args)
    point = parse_floats(args.point, 4, "--point")
    reach = integrals.alf_reach(backend) if backend.alf else None
    if reach is not None and not backend.radius(point) <= reach:
        raise DomainError("point-too-far", f"--point {point} lies beyond "
                          f"the reach {reach} of the truncated space")
    s = curvature.curvature_at(backend, point)
    return ({"manifold": entry.name, "point": list(point)},
            {f: v for f, v in s._asdict().items() if f != "point"}, {})


def cmd_integrate(args):
    entry, ci, key, hit = _integrals(args)
    return (_scope(entry, args), {**ci.as_dict(), "cache_hit": hit},
            {"error_estimate": ci.error_estimate, "cache_key": key})


def cmd_boundary(args):
    entry, backend = _chart(args)
    rhos = parse_floats(args.rho, None, "--rho")
    rows = [boundary.boundary_report(backend, rho,
                                     resolution=args.resolution).as_dict()
            for rho in rhos]
    return ({"manifold": entry.name, "rho": list(rhos),
             "resolution": args.resolution},
            {"reports": rows}, {"csv_rows": rows, "error_estimate": max(
                r["error_estimate"] for r in rows)})


def cmd_zeta(args):
    basis = np.array(parse_floats(args.lattice, 16, "--lattice"),
                     dtype=float).reshape(4, 4)
    res = spectral_zeta.torus_zeta_zero(basis, args.k)
    return ({"lattice": [list(row) for row in basis.tolist()], "k": args.k},
            res.as_dict(), {"error_estimate": res.truncation_error})


def cmd_weights(args):
    entry, ci, key, _ = _integrals(args)
    conv = _convention(args)
    w = assembly.weights_for(entry.descriptor, ci, conv)
    return (_scope(entry, args),
            {"alpha": w.alpha, "beta": w.beta, "sigma_phase": w.sigma_phase,
             "imtau_power_exponent": assembly.imtau_exponent(
                 entry.descriptor, ci, conv)},
            {"convention": conv, "error_estimate": ci.error_estimate,
             "cache_key": key})


def cmd_partition(args):
    tau = parse_complex(args.tau)
    entry, ci, key, _ = _integrals(args)
    conv = _convention(args)
    pe = assembly.assemble_partition(entry.descriptor, tau, conv, curv=ci)
    return ({"manifold": entry.name, "tau": tau,
             "resolution": args.resolution, "cutoff": args.cutoff},
            {"value": pe.value, "factors": pe.factors},
            {"convention": conv, "error_estimate": ci.error_estimate,
             "cache_key": key})


def cmd_anomaly(args):
    entry, ci, key, _ = _integrals(args)
    conv = _convention(args)
    record = assembly.anomaly_counterterms(entry.descriptor, ci, conv)
    record.pop("convention")
    return (_scope(entry, args), record,
            {"convention": conv, "error_estimate": ci.error_estimate,
             "cache_key": key})


def cmd_pathology(args):
    tau = parse_complex(args.tau)
    return {"tau": tau}, assembly.pathological_partition(tau), {}


def cmd_neck(args):
    entry = _entry(args)
    return {"manifold": entry.name}, assembly.neck_check(entry.descriptor), {}


def cmd_catalog(args):
    extra = catalog.parse_manifest(args.manifest) if args.manifest else {}
    if args.action == "list":
        rows = []
        for name in list(catalog.builtin_names()) + sorted(extra):
            entry = extra.get(name) or catalog.BUILTINS[name]
            d = entry.descriptor
            rows.append({"name": name, "kind": d.kind, "b0": d.b0, "b1": d.b1,
                         "bplus_l2": d.bplus_l2, "bminus_l2": d.bminus_l2,
                         "geometry": entry.geometry})
        return {"action": "list"}, {"manifolds": rows}, {}
    entry = catalog.get_entry(args.name, extra)
    d = entry.descriptor
    results = {
        "name": d.name, "kind": d.kind, "b0": d.b0, "b1": d.b1,
        "bplus_l2": d.bplus_l2, "bminus_l2": d.bminus_l2,
        "torsion_order": d.torsion_order, "geometry": entry.geometry,
        "vol_flat_torus_factor": d.vol_flat_torus_factor}
    if d.kind == "alf":
        results.update(b0_D=d.b0_D, b1_D=d.b1_D,
                       h1_neck_trivial=d.h1_neck_trivial)
    if entry.backend is not None:
        results["backend_params"] = entry.backend.params
    if entry.integrals is not None:
        results["analytic_integrals"] = entry.integrals.as_dict()
    return {"action": "show", "name": args.name}, results, {}


# -------------------------------------------------------------------- verify

def cmd_verify_theta(args):
    worst_s = max(modular_forms.s_transform_residual(tau)
                  for tau in _DEFAULT_TAUS)
    contour = []
    for u in (1j, 2j, complex(0.5, 1.0)):
        ref = modular_forms.theta(u, tol=1e-10).value
        for eps in (0.1, 0.2, 0.3):
            minus = modular_forms.cot_contour_theta(u, eps, tol=1e-8)[1]
            contour.append({"u": u, "eps": eps, "contour_minus": minus,
                            "abs_error": abs(minus - ref)})
    worst_c = max(c["abs_error"] for c in contour)
    return ({}, worst_s <= 1e-9 and worst_c <= 1e-6,
            {"max_s_transform_residual": worst_s,
             "max_contour_error": worst_c, "contour": contour}, {})


def cmd_verify_modularity(args):
    taus = ([parse_complex(t) for t in args.taus.split(",")]
            if args.taus else list(_DEFAULT_TAUS))
    if args.tol is not None and not args.tol > 0:
        raise DomainError("tol-positive", f"tol = {args.tol} must be > 0")
    entry, ci, key, _ = _integrals(args)
    conv = _convention(args)
    residual = assembly.verify_modularity(entry.descriptor, taus, conv,
                                          curv=ci)
    tol = args.tol if args.tol is not None else (
        1e-8 if entry.descriptor.kind == "compact" else 1e-6)
    return ({"manifold": entry.name, "taus": taus, "tol": tol},
            residual <= tol, {"max_relative_residual": residual},
            {"convention": conv, "cache_key": key})


def cmd_verify_gauss_bonnet(args):
    entry, ci, key, _ = _integrals(args)
    chi = assembly.euler_number(entry.descriptor)
    diff = abs(chi - ci.I_gb)
    tol = 0.03 * max(1.0, abs(chi))
    return (_scope(entry, args), diff <= tol,
            {"euler_topological": float(chi), "euler_integral": ci.I_gb,
             "abs_difference": diff, "tolerance": tol},
            {"error_estimate": ci.error_estimate, "cache_key": key})


def cmd_verify_decay(args):
    entry, backend = _chart(args)
    rhos = parse_floats(args.rho, None, "--rho")
    if len(rhos) < 3 or any(abs(b - 2.0 * a) > 1e-9 * b
                            for a, b in zip(rhos, rhos[1:])):
        raise UsageError("rho-sequence", f"need at least three radii, each "
                         f"double the one before: {args.rho!r}")
    reports = [boundary.boundary_report(backend, r, resolution=args.resolution)
               for r in rhos]
    ratios = [b.pi_sup / a.pi_sup for a, b in zip(reports, reports[1:])]
    ratios_ok = all(0.45 <= q <= 0.55 for q in ratios)
    v40 = [abs(r.v40_integral) for r in reports]  # v41 = 4 v40
    decreasing = all(a > b for a, b in zip(v40, v40[1:]))
    order = -float(np.polyfit(np.log(rhos), np.log(v40), 1)[0])
    return ({"manifold": entry.name, "rho": list(rhos),
             "resolution": args.resolution},
            ratios_ok and decreasing and order >= 0.8,
            {"pi_sup_ratios": [float(q) for q in ratios],
             "ratios_in_window": ratios_ok,
             "v4_strictly_decreasing": decreasing,
             "fitted_decay_order": order,
             "reports": [r.as_dict() for r in reports]},
            {"error_estimate": max(r.error_estimate for r in reports)})


# --------------------------------------------------------------------- main

def _add_manifold(p):
    p.add_argument("--manifold", required=True, help="catalog entry name")
    p.add_argument("--manifest", default=None,
                   help="INI manifest adding user manifolds")


def _add_resolution(p):
    p.add_argument("--resolution", type=int, default=2)


def _add_integral_opts(p):
    _add_manifold(p)
    _add_resolution(p)
    p.add_argument("--cutoff", type=finite_float, default=None,
                   help="ALF truncation radius, 10x to 1000x the geometry "
                        "scale (default 10x)")


def _add_convention(p):
    p.add_argument("--convention", choices=("paper", "gilkey"),
                   default="paper",
                   help="quartic-curvature norm convention")


def _opt(*flags, **kwargs):
    """An adder of the one option ``add_argument(*flags, **kwargs)``."""
    return lambda p: p.add_argument(*flags, **kwargs)


_TAU = _opt("--tau", required=True)

# name: (handler, help, the adders of its options after --json), in the
# order `sdlab --help` lists them; `verify` follows them with `_CHECKS`
_COMMANDS = {
    "theta": (cmd_theta, "theta series with certified tail", _TAU,
              _opt("--tol", type=finite_float, default=1e-12)),
    "lattice": (cmd_lattice, "brute-force flux sum vs theta product", _TAU,
                _opt("--bplus", type=int, required=True),
                _opt("--bminus", type=int, required=True),
                _opt("--box", type=int, default=30)),
    "curvature": (cmd_curvature, "pointwise curvature invariants",
                  _add_manifold,
                  _opt("--point", required=True, help="x1,x2,x3,x4")),
    "integrate": (cmd_integrate, "volume curvature integrals",
                  _add_integral_opts,
                  _opt("--no-cache", action="store_true")),
    "boundary": (cmd_boundary, "truncation-boundary reports",
                 _add_manifold, _add_resolution,
                 _opt("--rho", required=True, help="comma-separated radii"),
                 _opt("--csv", action="store_true")),
    "zeta": (cmd_zeta, "flat-torus spectral zeta at s = 0",
             _opt("--lattice", required=True,
                  help="16 floats, 4x4 generator rows"),
             _opt("--k", type=int, required=True, choices=range(0, 5))),
    "weights": (cmd_weights, "modular weights (alpha, beta)",
                _add_integral_opts, _add_convention),
    "partition": (cmd_partition, "partition value at a coupling",
                  _add_integral_opts, _add_convention, _TAU),
    "anomaly": (cmd_anomaly, "local counterterm coefficients",
                _add_integral_opts, _add_convention),
    "pathology": (cmd_pathology,
                  "leftover Gaussian factor without the holonomy constraint",
                  _TAU),
    "neck": (cmd_neck, "1-form Dirichlet derivability check", _add_manifold),
    "catalog": (cmd_catalog, "list or show catalog entries",
                _opt("action", choices=("list", "show")),
                _opt("name", nargs="?", default=None),
                _opt("--manifest", default=None)),
}
_CHECKS = {
    "theta": (cmd_verify_theta, "inversion law and contour route"),
    "modularity": (cmd_verify_modularity, "partition transformation law",
                   _add_integral_opts, _add_convention,
                   _opt("--taus", default=None,
                        help="comma-separated coupling samples"),
                   _opt("--tol", type=finite_float, default=None)),
    "gauss-bonnet": (cmd_verify_gauss_bonnet,
                     "Euler number vs curvature integral", _add_integral_opts),
    "decay": (cmd_verify_decay, "boundary-term falloff",
              _add_manifold, _add_resolution,
              _opt("--rho", required=True,
                   help="comma-separated doubling radii, at least three")),
}


def _command(sub, name: str, handler, help: str, *adders):
    """Subparser for one command: --json, then each adder's options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=handler)
    for add in adders:
        add(p)
    return p


def build_parser(command=None, check=None) -> _Parser:
    """The sdlab parser, or for a known `command` (and `check`, after
    ``verify``) one with only the subparser that parses it.

    Any other name, None included, builds every subparser at its level,
    so help and "invalid choice" errors list them all.  A subparser's
    help and errors do not depend on its siblings, so both parsers read
    a command's arguments to the same result and bytes.  ``--version``
    first builds none: it prints and exits before a command is read.
    """
    parser = _Parser(prog="sdlab",
                     description="modular structure of abelian gauge fields "
                                 "on four-manifolds")
    parser.add_argument("--version", action="version", version=__version__)
    if command == "--version":
        return parser
    if command != "verify" and command not in _COMMANDS:
        command = None
    sub = parser.add_subparsers(dest="cmd", metavar="command")
    for name, spec in _COMMANDS.items():
        if command in (None, name):
            _command(sub, name, *spec)
    if command in (None, "verify"):
        v = sub.add_parser("verify", help="dual-route consistency checks")
        vsub = v.add_subparsers(dest="verify_cmd", metavar="check")
        for name, spec in _CHECKS.items():
            if check not in _CHECKS or check == name:
                _command(vsub, name, *spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process parses one command, so it builds only that subparser
    # (about 4 ms less than all of them in a fresh process)
    parser = build_parser(*argv[:2])
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
    ok = True
    try:
        if args.cmd == "verify":
            inputs, ok, details, extras = handler(args)
            inputs = {"check": args.verify_cmd, **inputs}
            results = {"check": args.verify_cmd, "pass": bool(ok), **details}
        else:
            inputs, results, extras = handler(args)
        _emit(args, _envelope(args.cmd, inputs, results, extras),
              extras.get("csv_rows"))
    except SdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0 if ok else 1


def run() -> int:
    """`main` for a process that exits when it returns: the ``sdlab``
    console script and ``python -m sdlab.cli``.

    It freezes the heap last, so the interpreter's exit does not walk
    every object still alive (15 ms or more once numpy is loaded).  `main`
    never freezes: a caller that goes on would keep its garbage alive.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
