"""Built-in manifold catalog and user manifest loading.

Each entry binds a topological descriptor to the metric backend that
realizes it (or to stored analytic integrals when no chart is needed);
`entry_integrals` alone decides where an entry's integrals come from.
User manifests are flat key-value INI sections, one manifold per
section; built-in names cannot be overridden.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import warnings

from . import cache
from .assembly import ManifoldDescriptor
from .errors import DescriptorError, UsageError
from .geometry import (CurvatureIntegrals, FlatTorus, GeometryBackend,
                       MultiTaubNut, RoundS4, Schwarzschild,
                       integrate_invariants)
from .geometry.integrals import check_resolution, effective_cutoff


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    descriptor: ManifoldDescriptor
    backend: GeometryBackend | None  # None when purely analytic

    @property
    def name(self) -> str:
        return self.descriptor.name


def _k3_integrals() -> CurvatureIntegrals:
    # hyperkahler K3: scalar and trace-free Ricci vanish, the curvature
    # norm is pinned by the Euler and signature integrals
    endo = 192.0 * math.pi ** 2
    return CurvatureIntegrals(
        I_R_full=4.0 * endo, I_R_endo=endo, I_r=0.0, I_s2=0.0,
        I_gb=24.0, I_p=-16.0, error_estimate=0.0,
        resolution=0, cutoff_rho=None, node_count=0)


def _builtins() -> dict:
    entries = [
        CatalogEntry(
            ManifoldDescriptor(
                name="flat-torus", kind="compact", b0=1, b1=4,
                bplus_l2=3, bminus_l2=3, geometry="flat-torus"),
            FlatTorus()),
        CatalogEntry(
            ManifoldDescriptor(
                name="round-s4", kind="compact", b0=1, b1=0,
                bplus_l2=0, bminus_l2=0, geometry="round-s4"),
            RoundS4(a=1.0)),
        CatalogEntry(
            ManifoldDescriptor(
                name="k3-analytic", kind="compact", b0=1, b1=0,
                bplus_l2=3, bminus_l2=19, geometry="analytic",
                analytic_integrals=_k3_integrals()),
            None),
        CatalogEntry(
            ManifoldDescriptor(
                name="taub-nut-1", kind="alf", b0=1, b1=0,
                bplus_l2=0, bminus_l2=1, b0_D="derive", b1_D="derive",
                h1_neck_trivial=True, geometry="multi-taub-nut"),
            MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))),
        CatalogEntry(
            ManifoldDescriptor(
                name="taub-nut-2", kind="alf", b0=1, b1=0,
                bplus_l2=0, bminus_l2=2, b0_D="derive", b1_D="derive",
                h1_neck_trivial=True, geometry="multi-taub-nut"),
            MultiTaubNut(mass=0.5,
                         centers=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))),
        CatalogEntry(
            ManifoldDescriptor(
                name="schwarzschild", kind="alf", b0=1, b1=0,
                bplus_l2=1, bminus_l2=1, b0_D="derive", b1_D="derive",
                h1_neck_trivial=False, geometry="schwarzschild"),
            Schwarzschild(mass=1.0)),
    ]
    return {e.name: e for e in entries}


BUILTINS = _builtins()


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTINS)


def get_entry(name: str, extra: dict | None = None) -> CatalogEntry:
    if name in BUILTINS:
        return BUILTINS[name]
    if extra and name in extra:
        return extra[name]
    known = ", ".join(sorted(BUILTINS) + sorted(extra or ())) or "none"
    raise UsageError("manifold-unknown", f"{name!r}; known: {known}")


def entry_integrals(entry: CatalogEntry, resolution: int = 4,
                    cutoff_rho: float | None = None, no_cache: bool = False):
    """(integrals, cache key or None, hit): stored integrals when the
    entry has them, else integrals over its chart, cached under the
    parameters the integration uses.  An unusable record warns and is
    recomputed and overwritten; `no_cache` neither reads nor writes."""
    if entry.descriptor.analytic_integrals is not None:
        return entry.descriptor.analytic_integrals, None, False
    backend = entry.backend
    if backend is None:
        raise DescriptorError(
            "integrals-missing",
            f"{entry.name}: neither stored integrals nor a backend")
    check_resolution(resolution)
    cutoff = effective_cutoff(backend, cutoff_rho)
    key = cache.cache_key({
        "kind": "curvature-integrals", "backend": backend.id,
        "params": backend.params, "resolution": int(resolution),
        "cutoff": cutoff})
    if not no_cache:
        try:
            record = cache.load(key)
            if record is not None:
                return CurvatureIntegrals.from_record(record), key, True
        except (OSError, ValueError) as exc:
            warnings.warn(f"cache entry {key} unusable ({exc}), recomputing")
    ci = integrate_invariants(backend, resolution, cutoff)
    if not no_cache:
        cache.store(key, ci.as_dict())
    return ci, key, False


# ---------------------------------------------------------------- manifests

def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError("expected a boolean")


def _dirichlet(raw: str) -> int | str:
    raw = raw.strip()
    return "derive" if raw == "derive" else int(raw)


def finite_float(text: str) -> float:
    """float(text); nan and inf are a ValueError, as a non-number is."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(finite_float, raw.replace(",", " ").split()))


def _signs(raw: str) -> tuple[int, ...]:
    vals = _floats(raw)
    if not all(v.is_integer() for v in vals):
        raise ValueError("string signs must be whole numbers")
    return tuple(int(v) for v in vals)


# manifest key -> conversion of its raw string
_DESC_KEYS = {
    "kind": str.strip, "b0": int, "b1": int, "bplus_l2": int,
    "bminus_l2": int, "torsion_order": int, "b0_d": _dirichlet,
    "b1_d": _dirichlet, "h1_neck_trivial": _bool, "geometry": str.strip,
    "vol_flat_torus_factor": finite_float,
}
_BACKEND_KEYS = {"mass": finite_float, "centers": _floats,
                 "string_signs": _signs, "radius": finite_float,
                 "radii": _floats}
_ANALYTIC_KEYS = ("i_r_full", "i_r_endo", "i_ricci", "i_s2", "i_gb", "i_p")
_KEY_TYPES = {**_DESC_KEYS, **_BACKEND_KEYS,
              **dict.fromkeys(_ANALYTIC_KEYS, finite_float)}
# manifest keys whose descriptor field is spelled differently
_FIELDS = {"b0_d": "b0_D", "b1_d": "b1_D"}


def _convert(section: str, key: str, raw: str):
    """`raw` through the conversion of `key`; a malformed value is a
    `manifest-value` error, never a bare ValueError."""
    try:
        return _KEY_TYPES[key](raw)
    except (ValueError, OverflowError) as exc:
        raise DescriptorError("manifest-value",
                              f"[{section}] {key} = {raw!r}: {exc}") from None


def _backend_from(section: str, geometry: str, vals: dict):
    if geometry == "analytic":
        return None
    if geometry == "flat-torus":
        radii = vals.get("radii", (1.0, 1.0, 1.0, 1.0))
        if len(radii) != 4:
            raise DescriptorError("manifest-value",
                                  f"[{section}] radii needs 4 entries")
        return FlatTorus(radii=radii)
    if geometry == "round-s4":
        return RoundS4(a=vals.get("radius", 1.0))
    if geometry == "multi-taub-nut":
        flat = vals.get("centers", (0.0, 0.0, 0.0))
        if len(flat) % 3:
            raise DescriptorError(
                "manifest-value",
                f"[{section}] centers needs 3 floats per center")
        centers = tuple(tuple(flat[i:i + 3]) for i in range(0, len(flat), 3))
        return MultiTaubNut(mass=vals.get("mass", 0.5), centers=centers,
                            string_signs=vals.get("string_signs"))
    if geometry == "schwarzschild":
        return Schwarzschild(mass=vals.get("mass", 1.0))
    raise DescriptorError("geometry-unknown",
                          f"[{section}] geometry = {geometry!r}")


def _analytic_from(section: str, vals: dict) -> CurvatureIntegrals | None:
    present = [k for k in _ANALYTIC_KEYS if k in vals]
    if not present:
        return None
    if len(present) != len(_ANALYTIC_KEYS):
        missing = sorted(set(_ANALYTIC_KEYS) - set(present))
        raise DescriptorError(
            "manifest-value",
            f"[{section}] analytic integrals incomplete, missing {missing}")
    return CurvatureIntegrals(
        I_R_full=vals["i_r_full"], I_R_endo=vals["i_r_endo"],
        I_r=vals["i_ricci"], I_s2=vals["i_s2"], I_gb=vals["i_gb"],
        I_p=vals["i_p"], error_estimate=0.0, resolution=0,
        cutoff_rho=None, node_count=0)


def parse_manifest(path: str) -> dict:
    """Load user manifolds from an INI manifest; returns name -> entry."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError("manifest-unreadable", f"{path}: {exc}") from None
    if not read:
        raise UsageError("manifest-unreadable", str(path))
    out: dict[str, CatalogEntry] = {}
    for section in parser.sections():
        if section in BUILTINS:
            raise DescriptorError(
                "manifest-shadows-builtin",
                f"[{section}] collides with a built-in entry")
        opts = dict(parser[section])
        unknown = set(opts) - set(_KEY_TYPES)
        if unknown:
            raise DescriptorError(
                "manifest-key-unknown",
                f"[{section}] unknown keys {sorted(unknown)}")
        vals = {key: _convert(section, key, raw) for key, raw in opts.items()}
        kw = {"name": section}
        kw.update((_FIELDS.get(key, key), v) for key, v in vals.items()
                  if key in _DESC_KEYS)
        analytic = _analytic_from(section, vals)
        if analytic is not None:
            kw["analytic_integrals"] = analytic
        for key in ("b0", "b1", "bplus_l2", "bminus_l2", "kind"):
            if key not in kw:
                raise DescriptorError("manifest-key-missing",
                                      f"[{section}] needs {key}")
        desc = ManifoldDescriptor(**kw)
        backend = _backend_from(section, desc.geometry, vals)
        if backend is None and analytic is None:
            raise DescriptorError(
                "manifest-incomplete",
                f"[{section}] analytic geometry needs the i_* integral keys")
        out[section] = CatalogEntry(descriptor=desc, backend=backend)
    return out
