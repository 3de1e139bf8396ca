"""Built-in manifold catalog and user manifest loading.

Each entry binds a topological descriptor to the metric backend that
realizes it, or to stored exact integrals when no chart is needed;
`entry_integrals` alone decides where an entry's integrals come from.
User manifests are flat key-value INI sections, one manifold per
section; built-in names cannot be overridden.  `_GEOMETRIES` is the one
table from a section's `geometry` to what builds it and the keys it reads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

from . import cache
from .assembly import ManifoldDescriptor
from .errors import DescriptorError, UsageError
from .geometry.backends import (FlatTorus, GeometryBackend, MultiTaubNut,
                                RoundS4, Schwarzschild)
from .geometry.integrals import (CurvatureIntegrals, check_resolution,
                                 effective_cutoff, integrate_invariants)
from .jsonio import finite_float, finite_floats

# integrals known in closed form: nothing is integrated or estimated
_exact_integrals = functools.partial(
    CurvatureIntegrals, error_estimate=0.0, resolution=0, cutoff_rho=None,
    node_count=0)


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    descriptor: ManifoldDescriptor
    backend: GeometryBackend | None = None
    integrals: CurvatureIntegrals | None = None  # stored, exact

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def geometry(self) -> str:
        return "analytic" if self.backend is None else self.backend.id


def _builtins() -> dict:
    entries = [
        CatalogEntry(
            ManifoldDescriptor(
                name="flat-torus", kind="compact", b0=1, b1=4,
                bplus_l2=3, bminus_l2=3),
            FlatTorus()),
        CatalogEntry(
            ManifoldDescriptor(
                name="round-s4", kind="compact", b0=1, b1=0,
                bplus_l2=0, bminus_l2=0),
            RoundS4(a=1.0)),
        CatalogEntry(
            ManifoldDescriptor(
                name="k3-analytic", kind="compact", b0=1, b1=0,
                bplus_l2=3, bminus_l2=19),
            # hyperkahler K3: scalar and trace-free Ricci vanish, the
            # curvature norm is pinned by the Euler and signature integrals
            integrals=_exact_integrals(
                I_R_full=768.0 * math.pi ** 2, I_R_endo=192.0 * math.pi ** 2,
                I_r=0.0, I_s2=0.0, I_gb=24.0, I_p=-16.0)),
        CatalogEntry(
            ManifoldDescriptor(
                name="taub-nut-1", kind="alf", b0=1, b1=0,
                bplus_l2=0, bminus_l2=1, b0_D="derive", b1_D="derive",
                h1_neck_trivial=True),
            MultiTaubNut(mass=0.5, centers=((0.0, 0.0, 0.0),))),
        CatalogEntry(
            ManifoldDescriptor(
                name="taub-nut-2", kind="alf", b0=1, b1=0,
                bplus_l2=0, bminus_l2=2, b0_D="derive", b1_D="derive",
                h1_neck_trivial=True),
            MultiTaubNut(mass=0.5,
                         centers=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))),
        CatalogEntry(
            ManifoldDescriptor(
                name="schwarzschild", kind="alf", b0=1, b1=0,
                bplus_l2=1, bminus_l2=1, b0_D="derive", b1_D="derive",
                h1_neck_trivial=False),
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
    if entry.integrals is not None:
        return entry.integrals, None, False
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
    return "derive" if raw.strip() == "derive" else int(raw)


def _triples(raw: str) -> tuple[tuple[float, ...], ...]:
    flat = finite_floats(raw)
    return tuple(flat[i:i + 3] for i in range(0, len(flat), 3))


def _signs(raw: str) -> tuple[int, ...]:
    vals = finite_floats(raw)
    if not all(v.is_integer() for v in vals):
        raise ValueError("string signs must be whole numbers")
    return tuple(int(v) for v in vals)


# manifest key (the field name, lowercased as configparser reads keys) ->
# (descriptor field, conversion of its raw string)
_DESC_KEYS = {field.lower(): (field, convert) for field, convert in (
    ("kind", str.strip), ("b0", int), ("b1", int), ("bplus_l2", int),
    ("bminus_l2", int), ("torsion_order", int), ("b0_D", _dirichlet),
    ("b1_D", _dirichlet), ("h1_neck_trivial", _bool),
    ("vol_flat_torus_factor", finite_float))}
# geometry -> (what builds it, {manifest key: (argument, conversion)}); a
# section passes only the keys it gives, so every default is the builder's
_GEOMETRIES = {
    FlatTorus.id: (FlatTorus, {"radii": ("radii", finite_floats)}),
    RoundS4.id: (RoundS4, {"radius": ("a", finite_float)}),
    MultiTaubNut.id: (MultiTaubNut, {
        "mass": ("mass", finite_float), "centers": ("centers", _triples),
        "string_signs": ("string_signs", _signs)}),
    Schwarzschild.id: (Schwarzschild, {"mass": ("mass", finite_float)}),
    "analytic": (_exact_integrals, {
        key: (arg, finite_float) for key, arg in zip(
            ("i_r_full", "i_r_endo", "i_ricci", "i_s2", "i_gb", "i_p"),
            ("I_R_full", "I_R_endo", "I_r", "I_s2", "I_gb", "I_p"))}),
}


def _arguments(section: str, keys: dict, opts: dict) -> dict:
    """The `keys` that `opts` gives, as arguments through their conversions;
    a malformed value is a `manifest-value` error, never a ValueError."""
    out = {}
    for key, (arg, convert) in keys.items():
        if key in opts:
            try:
                out[arg] = convert(opts[key])
            except (ValueError, OverflowError) as exc:
                raise DescriptorError(
                    "manifest-value",
                    f"[{section}] {key} = {opts[key]!r}: {exc}") from None
    return out


def parse_manifest(path: str) -> dict:
    """Load user manifolds from an INI manifest; returns name -> entry."""
    import configparser  # only a manifest needs it

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
        geometry = opts.pop("geometry", "analytic")
        if geometry not in _GEOMETRIES:
            raise DescriptorError("geometry-unknown",
                                  f"[{section}] geometry = {geometry!r}")
        build, keys = _GEOMETRIES[geometry]
        unknown = set(opts) - set(_DESC_KEYS) - set(keys)
        if unknown:
            raise DescriptorError(
                "manifest-key-unknown",
                f"[{section}] {geometry} reads no {sorted(unknown)}")
        desc_kw = _arguments(section, _DESC_KEYS, opts)
        kw = _arguments(section, keys, opts)
        for key in ("b0", "b1", "bplus_l2", "bminus_l2", "kind"):
            if key not in opts:
                raise DescriptorError("manifest-key-missing",
                                      f"[{section}] needs {key}")
        desc = ManifoldDescriptor(name=section, **desc_kw)
        if geometry != "analytic":
            out[section] = CatalogEntry(desc, backend=build(**kw))
        elif len(kw) < len(keys):
            raise DescriptorError(
                "manifest-value" if kw else "manifest-incomplete",
                f"[{section}] analytic geometry needs the six i_* integral "
                f"keys, missing {sorted(set(keys) - set(opts))}")
        else:
            out[section] = CatalogEntry(desc, integrals=build(**kw))
    return out
