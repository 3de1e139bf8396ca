"""Catalog entries, manifest parsing, canonical JSON, cache, CLI surface."""

import hashlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlab
from sdlab import cache, catalog, jsonio
from sdlab.assembly import ManifoldDescriptor, weights_for
from sdlab.catalog import (
    CatalogEntry,
    builtin_names,
    entry_integrals,
    get_entry,
    parse_manifest,
)
from sdlab.cli import build_parser, main, parse_complex
from sdlab.errors import (
    AccuracyError,
    DescriptorError,
    DomainError,
    SdlabError,
    UsageError,
)
from sdlab.geometry import GeometryBackend, MultiTaubNut, integrals
from sdlab.geometry import quadrature as quad
from sdlab.geometry.boundary import boundary_report
from sdlab.lattice_sum import brute_force_partition, theta_product
from sdlab.modular_forms import cot_contour_theta, principal_power, theta
from sdlab.spectral_zeta import epstein_zeta_at_zero, torus_zeta_zero

# ------------------------------------------------------------------- catalog


def test_builtin_names():
    assert builtin_names() == ("flat-torus", "round-s4", "k3-analytic",
                               "taub-nut-1", "taub-nut-2", "schwarzschild")


def test_unknown_entry_lists_known_names():
    with pytest.raises(UsageError) as err:
        get_entry("borromean")
    assert err.value.slug == "manifold-unknown"
    assert "k3-analytic" in str(err.value)


def test_analytic_integrals_take_precedence():
    entry = get_entry("k3-analytic")
    assert entry.backend is None
    ci, key, hit = entry_integrals(entry, resolution=64)
    assert ci is entry.integrals
    assert key is None and hit is False


def test_entry_without_integrals_or_chart():
    bare = CatalogEntry(get_entry("flat-torus").descriptor, backend=None)
    with pytest.raises(DescriptorError) as err:
        entry_integrals(bare, resolution=2)
    assert err.value.slug == "integrals-missing"


def test_the_cli_holds_the_only_resolution_default():
    # the library entry points take `resolution` as a required argument
    for func in (entry_integrals, integrals.integrate_invariants,
                 boundary_report):
        param = inspect.signature(func).parameters["resolution"]
        assert param.default is inspect.Parameter.empty, func.__name__
    args = build_parser().parse_args(["integrate", "--manifold", "round-s4"])
    assert args.resolution == 2


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_is_not_a_resolution(flag, tmp_path, monkeypatch):
    # True is a numbers.Integral equal to 1: it ran at resolution 1, and
    # entry_integrals stored it under resolution 1's cache key
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    entry = get_entry("taub-nut-1")
    for run in (lambda: integrals.integrate_invariants(entry.backend, flag),
                lambda: boundary_report(entry.backend, 30.0, resolution=flag),
                lambda: entry_integrals(entry, resolution=flag)):
        with pytest.raises(DomainError) as err:
            run()
        assert err.value.slug == "resolution-positive"
    assert list(tmp_path.iterdir()) == []


def test_backend_entry_integrates(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    entry = get_entry("flat-torus")
    ci, key, hit = entry_integrals(entry, resolution=2)
    # one node on the coarse mesh and two on the split one
    assert ci.I_gb == 0.0 and ci.node_count == 3 and hit is False
    # a numpy integer is the same resolution, under the same key
    assert entry_integrals(entry, resolution=np.int64(2)) == (ci, key, True)


# ----------------------------------------------------------------- manifests


GOOD_MANIFEST = f"""
[my-k3]
kind = compact
b0 = 1
b1 = 0
bplus_l2 = 3
bminus_l2 = 19
geometry = analytic
i_r_full = {768 * math.pi ** 2!r}
i_r_endo = {192 * math.pi ** 2!r}
i_ricci = 0
i_s2 = 0
i_gb = 24
i_p = -16

[off-axis-pair]
kind = alf
b0 = 1
b1 = 0
bplus_l2 = 0
bminus_l2 = 2
b0_d = derive
b1_d = derive
h1_neck_trivial = yes
geometry = multi-taub-nut
mass = 0.25
centers = 0 0 -1, 0 0 1

[bolt]
kind = alf
b0 = 1
b1 = 0
bplus_l2 = 1
bminus_l2 = 1
b0_d = derive
b1_d = derive
h1_neck_trivial = no
geometry = schwarzschild
mass = 2
"""


def write_manifest(tmp_path, text, name="m.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_manifest_good_entries(tmp_path):
    entries = parse_manifest(write_manifest(tmp_path, GOOD_MANIFEST))
    assert set(entries) == {"my-k3", "off-axis-pair", "bolt"}
    k3 = entries["my-k3"]
    assert k3.backend is None
    w = weights_for(k3.descriptor, k3.integrals)
    assert w.alpha == pytest.approx(1.2, abs=1e-12)
    assert w.beta == pytest.approx(9.2, abs=1e-12)
    pair = entries["off-axis-pair"]
    assert pair.backend.mass == 0.25
    assert pair.backend.centers == ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    assert pair.descriptor.b1_D == "derive"
    assert pair.descriptor.h1_neck_trivial is True
    bolt = entries["bolt"]
    assert bolt.backend.mass == 2.0
    assert bolt.descriptor.h1_neck_trivial is False


def test_every_backend_is_in_the_geometry_table():
    backends = {cls.id: cls for cls in GeometryBackend.__subclasses__()}
    assert set(catalog._GEOMETRIES) == {*backends, "analytic"}
    for geometry, (build, keys) in catalog._GEOMETRIES.items():
        assert build is backends.get(geometry, catalog._exact_integrals)
        params = inspect.signature(build).parameters
        assert {arg for arg, _ in keys.values()} <= set(params), geometry


def test_readme_manifest_table_lists_the_keys_each_geometry_reads():
    # the backticked names before any ":" in a row's key cell; a row with
    # an empty geometry cell continues the geometry above it
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| `geometry` | key | default |\n", 1)[1]
    listed, geometry = {}, None
    for row in table.split("\n\n", 1)[0].splitlines()[1:]:
        first, keys = row.split("|")[1:3]
        geometry = first.strip().strip("`") or geometry
        listed.setdefault(geometry, set()).update(
            re.findall(r"`(\w+)`", keys.split(":")[0]))
    assert listed == {geometry: set(keys) for geometry, (_, keys)
                      in catalog._GEOMETRIES.items()}


def test_readme_manifest_example_parses(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    entries = parse_manifest(write_manifest(tmp_path, block))
    assert entries["my-k3"].descriptor == ManifoldDescriptor(
        "my-k3", "compact", b0=1, b1=0, bplus_l2=3, bminus_l2=19)
    pair = MultiTaubNut(0.25, ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)))
    assert entries["off-axis-pair"].backend == pair
    assert entries["off-axis-pair"].descriptor == ManifoldDescriptor(
        "off-axis-pair", **pair.topology)
    assert pair.topology["bminus_l2"] == 2


def test_manifest_defaults_are_the_constructors(tmp_path):
    # a section passes only the keys it gives, and its descriptor is the
    # topology of the backend it builds
    classes = GeometryBackend.__subclasses__()
    body = "".join(f"[{c.id}-x]\ngeometry = {c.id}\n" for c in classes)
    entries = parse_manifest(write_manifest(tmp_path, body))
    for cls in classes:
        entry = entries[f"{cls.id}-x"]
        assert entry.backend == cls() and entry.geometry == cls.id
        assert entry.descriptor == ManifoldDescriptor(f"{cls.id}-x",
                                                      **cls().topology)


def test_builtin_chart_descriptors_are_the_backend_topology():
    charts = [get_entry(n) for n in builtin_names() if n != "k3-analytic"]
    assert all(e.backend is not None for e in charts) and len(charts) == 5
    for entry in charts:
        assert entry.descriptor == ManifoldDescriptor(
            entry.name, **entry.backend.topology), entry.name
    # the counts the literature gives (see `backends`)
    assert [(e.descriptor.b1, e.descriptor.bplus_l2, e.descriptor.bminus_l2,
             e.descriptor.h1_neck_trivial) for e in charts] == [
        (4, 3, 3, None), (0, 0, 0, None), (0, 0, 1, True), (0, 0, 2, True),
        (0, 1, 1, False)]


def test_coincident_centres_state_no_descriptor():
    # an orbifold point; the library still integrates such a backend
    nut = MultiTaubNut(0.5, ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)))
    with pytest.raises(DescriptorError) as err:
        nut.topology
    assert err.value.slug == "centers-coincident"


@pytest.mark.parametrize("half", [0.0, 1e-10, 0.9e-9, 1.1e-9, 1e-6])
def test_coincident_centres_are_those_the_reduction_merges(half):
    # below a half-separation of 1e-9 the reduction integrates one charge-2
    # centre, whose integrals are not those of the pair a descriptor states;
    # above it, a pair this close is one the reduction does not resolve
    nut = MultiTaubNut(0.5, ((0.0, 0.0, -half), (0.0, 0.0, half)))
    if half < 1e-9:
        assert len(nut.reduction(2, 20.0)[0]) == 1
        with pytest.raises(DescriptorError, match="^centers-coincident: "):
            nut.topology
    else:
        with pytest.raises(AccuracyError) as err:
            nut.reduction(2, 20.0)
        assert err.value.slug == "centers-too-close"
        assert nut.topology["bminus_l2"] == 2


@pytest.mark.parametrize("mass", [0.5, 2.0])
@pytest.mark.parametrize("ratio", [1e-6, 2e-4, 6e-4, 1e-2, 0.3])
def test_close_centres_are_refused_before_any_node(tmp_path, capsys,
                                                   monkeypatch, ratio, mass):
    # at half-separations c up to 7e-4 x the mass, resolutions 2 and 4
    # gave I_gb near 1.4-1.6 against chi = 2 with a smaller estimate
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    c = ratio * mass
    path = write_manifest(tmp_path, f"[x]\ngeometry = multi-taub-nut\n"
                                    f"mass = {mass!r}\n"
                                    f"centers = 0 0 {-c!r}, 0 0 {c!r}\n")
    refused = ratio < 3e-3
    if refused:
        monkeypatch.setattr(integrals, "_integrand", None)
    code, out, err = run_cli(capsys, ["weights", "--manifold", "x",
                                      "--manifest", path, "--resolution",
                                      "2", "--json"])
    if refused:
        assert (code, out) == (1, "")
        assert err.startswith("error: centers-too-close: ")
    else:
        assert code == 0, err   # alpha is -n/30 for n centres
        assert abs(json.loads(out)["results"]["alpha"] + 1 / 15) < 1e-4


def test_bare_chart_section_is_the_builtin(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    path = write_manifest(tmp_path, "[pair]\ngeometry = multi-taub-nut\n"
                                    "centers = 0 0 -1, 0 0 1\n")
    builtin = get_entry("taub-nut-2")
    pair = parse_manifest(path)["pair"]
    assert pair.backend == builtin.backend
    assert pair.descriptor == builtin.descriptor._replace(name="pair")
    results = []
    for extra in (["--manifold", "taub-nut-2"],
                  ["--manifold", "pair", "--manifest", path]):
        code, out, _ = run_cli(capsys, ["weights", "--resolution", "2",
                                        "--json", *extra])
        assert code == 0
        results.append(out.split('"results": ', 1)[1].split(', "error_')[0])
    assert results[0] == results[1] and '"beta"' in results[0]


# a section that restates its geometry's topology wrongly, and what the
# geometry states; each is refused when the manifest is read
CONTRADICTIONS = {
    # the two-centre pair has b-_L2 = 2, which gives beta = 14/15
    "pair-bminus": ("geometry = multi-taub-nut\ncenters = 0 0 -1, 0 0 1\n"
                    "bminus_l2 = 1\n", "bminus_l2 = 2, not 1"),
    "torus-b1": ("geometry = flat-torus\nb1 = 0\n", "b1 = 4, not 0"),
    "torus-betti": ("geometry = flat-torus\nb1 = 0\nbplus_l2 = 0\n"
                    "bminus_l2 = 0\n", "bminus_l2 = 3, not 0"),
    "nut-kind": ("geometry = multi-taub-nut\nkind = compact\n",
                 "kind = 'alf', not 'compact'"),
    "s4-kind": ("geometry = round-s4\nkind = alf\n",
                "kind = 'compact', not 'alf'"),
    "nut-neck": ("geometry = multi-taub-nut\nh1_neck_trivial = no\n",
                 "h1_neck_trivial = True, not False"),
    "bolt-neck": ("geometry = schwarzschild\nh1_neck_trivial = yes\n",
                  "h1_neck_trivial = False, not True"),
}


@pytest.mark.parametrize("case", list(CONTRADICTIONS))
def test_manifest_contradicting_its_geometry_is_refused(tmp_path, case):
    body, stated = CONTRADICTIONS[case]
    with pytest.raises(DescriptorError) as err:
        parse_manifest(write_manifest(tmp_path, "[x]\n" + body))
    assert err.value.slug == "descriptor-contradicts-geometry"
    assert stated in str(err.value)


def test_manifest_sets_what_the_geometry_leaves_open(tmp_path):
    # an explicit Dirichlet count, torsion and volume factor are the user's
    body = ("[bolt]\ngeometry = schwarzschild\nb1_d = 0\nb0_d = 0\n"
            "torsion_order = 2\nvol_flat_torus_factor = 0.5\n")
    d = parse_manifest(write_manifest(tmp_path, body))["bolt"].descriptor
    assert (d.b0_D, d.b1_D, d.torsion_order, d.vol_flat_torus_factor) == (
        0, 0, 2, 0.5)
    assert d.bplus_l2 == d.bminus_l2 == 1 and d.h1_neck_trivial is False


@pytest.mark.parametrize("body,slug", [
    ("[x]\ngeometry = multi-taub-nut\ncenters = 0 0 -1, 0 0 1\n"
     "bminus_l2 = 1\n", "descriptor-contradicts-geometry"),
    ("[x]\ngeometry = flat-torus\nb1 = 0\n",
     "descriptor-contradicts-geometry"),
    ("[x]\ngeometry = multi-taub-nut\ncenters = 0 0 1, 0 0 1\n",
     "centers-coincident"),
    ("[x]\ngeometry = multi-taub-nut\ncenters = 0 0 -1e-10, 0 0 1e-10\n",
     "centers-coincident"),
])
@pytest.mark.parametrize("command", [["weights"], ["verify", "modularity"]])
def test_refused_section_computes_no_integral(tmp_path, capsys, monkeypatch,
                                              body, slug, command):
    def no_integral(*args):
        raise AssertionError("integrals sought for a refused section")

    monkeypatch.setattr(catalog, "entry_integrals", no_integral)
    path = write_manifest(tmp_path, body)
    code, out, err = run_cli(capsys, [*command, "--manifold", "x",
                                      "--manifest", path, "--json"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {slug}: ")


def test_manifest_feeds_get_entry(tmp_path):
    entries = parse_manifest(write_manifest(tmp_path, GOOD_MANIFEST))
    assert get_entry("my-k3", entries).name == "my-k3"
    with pytest.raises(UsageError) as err:
        get_entry("nope", entries)
    assert "my-k3" in str(err.value)


def test_manifest_unreadable(tmp_path):
    with pytest.raises(UsageError) as err:
        parse_manifest(str(tmp_path / "absent.ini"))
    assert err.value.slug == "manifest-unreadable"


@pytest.mark.parametrize("body,slug", [
    ("[flat-torus]\nkind = compact\n", "manifest-shadows-builtin"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = round-s4\nflavor = mild\n", "manifest-key-unknown"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\n"
     "geometry = analytic\n", "manifest-key-missing"),
    ("[x]\nkind = compact\nb0 = three\nb1 = 0\nbplus_l2 = 1\n"
     "bminus_l2 = 1\ngeometry = round-s4\n", "manifest-value"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = maybe\n"
     "geometry = multi-taub-nut\n", "manifest-value"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = soon\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = analytic\n", "manifest-incomplete"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = hyperbolic\n", "geometry-unknown"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = analytic\ni_gb = 2\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = round-s4\nvol_flat_torus_factor = abc\n", "manifest-value"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nmass = heavy\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 0\n"
     "geometry = round-s4\nradius = big\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = analytic\ni_r_full = 1\ni_r_endo = 1\ni_ricci = 0\n"
     "i_s2 = 0\ni_gb = many\ni_p = 0\n", "manifest-value"),
    # the string gauge is the code's choice, not a manifest key
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nstring_signs = 1\n",
     "manifest-key-unknown"),
    # non-finite numbers in every kind of float key
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = round-s4\nvol_flat_torus_factor = inf\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 1\nbminus_l2 = 1\n"
     "geometry = analytic\ni_r_full = 1\ni_r_endo = nan\ni_ricci = 0\n"
     "i_s2 = 0\ni_gb = 2\ni_p = 0\n", "manifest-value"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\ncenters = 0 0 nan\n", "manifest-value"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nmass = inf\n", "manifest-value"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 4\nbplus_l2 = 3\nbminus_l2 = 3\n"
     "geometry = flat-torus\nradii = 1 1 1 inf\n", "manifest-value"),
    # a key that only another geometry reads
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nradius = 2\n", "manifest-key-unknown"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 4\nbplus_l2 = 3\nbminus_l2 = 3\n"
     "geometry = flat-torus\nmass = 2\n", "manifest-key-unknown"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 0\n"
     "geometry = round-s4\ni_r_full = 1\ni_r_endo = 1\ni_ricci = 0\n"
     "i_s2 = 0\ni_gb = 2\ni_p = 0\n", "manifest-key-unknown"),
    # shapes the backend constructors check
    ("[x]\nkind = compact\nb0 = 1\nb1 = 4\nbplus_l2 = 3\nbminus_l2 = 3\n"
     "geometry = flat-torus\nradii = 1 1 1\n", "radii-shape"),
    # the descriptor checks, under the geometry's kind, come before any
    # comparison with the geometry
    ("[x]\ngeometry = round-s4\nb1 = -1\n", "betti-nonnegative"),
    ("[x]\ngeometry = round-s4\nb0 = 0\n", "connected-b0"),
    ("[x]\ngeometry = round-s4\nkind = alf\nb0_d = 0\nb1_d = 0\n"
     "h1_neck_trivial = yes\n", "dirichlet-data-compact"),
    ("[x]\ngeometry = multi-taub-nut\nb1_d = 1\n", "dirichlet-betti-bound"),
    ("[x]\ngeometry = multi-taub-nut\nmass = -1\nbminus_l2 = 5\n",
     "mass-positive"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\ncenters = 0 0\n", "centers-shape"),
    # lengths whose invariants or volumes leave the floats
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nmass = 1e300\n", "length-range"),
    ("[x]\nkind = alf\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 1\n"
     "b0_d = derive\nb1_d = derive\nh1_neck_trivial = yes\n"
     "geometry = multi-taub-nut\nmass = 1e100\n", "length-range"),
    ("[x]\nkind = compact\nb0 = 1\nb1 = 0\nbplus_l2 = 0\nbminus_l2 = 0\n"
     "geometry = round-s4\nradius = 1e80\n", "length-range"),
])
def test_manifest_rejections(tmp_path, body, slug):
    with pytest.raises(DescriptorError) as err:
        parse_manifest(write_manifest(tmp_path, body))
    assert err.value.slug == slug


# ------------------------------------------------------------ canonical JSON


def test_round_trip_structure():
    doc = {
        "n": 3, "x": 1.0 / 3.0, "tiny": 1e-300, "neg_zero": -0.0,
        "whole": 4.0, "z": 0.3 + 0.8j, "s": "text", "flag": True,
        "nothing": None, "seq": [1, 2.5, -0.0, 1j],
    }
    text = jsonio.canonical_dumps(doc)
    back = jsonio.canonical_loads(text)
    assert back == doc
    assert isinstance(back["whole"], float)
    assert math.copysign(1.0, back["neg_zero"]) == -1.0
    assert isinstance(back["z"], complex)
    assert jsonio.canonical_dumps(back) == text


def test_whole_floats_stay_floats():
    assert jsonio.canonical_dumps({"a": 4.0}) == '{"a": 4.0}'
    assert jsonio.canonical_dumps({"a": -0.0}) == '{"a": -0.0}'


def test_insertion_order_preserved():
    assert jsonio.canonical_dumps({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'


def test_nonfinite_rejected():
    for bad in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
        with pytest.raises(DomainError) as err:
            jsonio.canonical_dumps({"x": bad})
        assert err.value.slug == "json-nonfinite"


def test_key_and_type_rejections():
    with pytest.raises(DomainError) as err:
        jsonio.canonical_dumps({3: "x"})
    assert err.value.slug == "json-key-type"
    with pytest.raises(DomainError) as err:
        jsonio.canonical_dumps({"x": {1, 2}})
    assert err.value.slug == "json-type"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_nonfinite_constants(constant):
    with pytest.raises(ValueError):
        jsonio.canonical_loads('{"x": %s}' % constant)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_float_round_trip_exact(x):
    back = jsonio.canonical_loads(jsonio.canonical_dumps({"x": x}))["x"]
    assert back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


# --------------------------------------------------------------------- cache


def test_cache_store_leaves_foreign_temp_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"kind": "unit", "n": 9})
    foreign = tmp_path / f"{key}.tmp"
    foreign.write_bytes(b'{"half": ')          # another writer, mid-write
    cache.store(key, {"v": 2.5})
    assert foreign.read_bytes() == b'{"half": '
    assert cache.load(key) == {"v": 2.5}
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted([f"{key}.json", f"{key}.tmp"])


def test_cache_store_failure_removes_its_temp_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    key = cache.cache_key({"kind": "unit", "n": 10})
    (tmp_path / f"{key}.json").mkdir()       # the rename onto it fails
    with pytest.warns(UserWarning, match="cache write failed"):
        cache.store(key, {"v": 2.5})
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_cache_key_tracks_payload():
    a = cache.cache_key({"resolution": 4})
    b = cache.cache_key({"resolution": 5})
    assert a != b and len(a) == 64


def test_cache_digests_are_hashlibs():
    payload = {"manifold": "taub-nut-1", "resolution": 2, "cutoff": None}
    assert cache.cache_key(payload) == hashlib.sha256(
        jsonio.canonical_dumps(payload).encode("ascii")).hexdigest()
    geometry = pathlib.Path(cache.__file__).parent / "geometry"
    assert cache.code_stamp() == hashlib.sha256(b"".join(
        (geometry / f"{name}.py").read_bytes() for name in cache._STAMPED
    )).hexdigest()


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path / "alt"))
    assert cache.cache_dir() == tmp_path / "alt"
    monkeypatch.delenv("SDLAB_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache.cache_dir() == tmp_path / "xdg" / "sdlab"


# ----------------------------------------------------------------------- CLI


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_skips_scipy():
    # the Epstein route runs on numpy alone
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    code = ("import sys, sdlab.cli\n"
            "code = sdlab.cli.main(['zeta', '--lattice', "
            "'2.5,0,0,0,0,2.4,0,0,0,0,2.6,0,0,0,0,2.5', '--k', '0'])\n"
            "sys.exit(code or 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_no_command(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 64 and "usage" in err.lower()


def test_cli_theta_json(capsys):
    code, out, _ = run_cli(capsys, ["theta", "--tau", "i", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert list(env)[:3] == ["command", "version", "inputs"]
    assert env["results"]["value"] == pytest.approx(
        math.pi ** 0.25 / math.gamma(0.75), abs=1e-13)


@pytest.mark.parametrize("argv, slug", [
    (["curvature", "--manifold", "taub-nut-1", "--point", "nan,1,1,1"],
     "float-list"),
    (["boundary", "--manifold", "taub-nut-1", "--rho", "inf"], "float-list"),
    (["zeta", "--lattice", "nan,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1", "--k", "0"],
     "float-list"),
    (["theta", "--tau", "nan+1i"], "complex-literal"),
    (["verify", "modularity", "--manifold", "flat-torus", "--tol", "nan"],
     "argument --tol"),
    (["integrate", "--manifold", "taub-nut-1", "--cutoff", "nan"],
     "argument --cutoff"),
    (["boundary", "--manifold", "taub-nut-1", "--rho", ""], "float-list"),
    (["boundary", "--manifold", "taub-nut-1", "--rho", "", "--csv"],
     "float-list"),
    # a bytes argument is written to a manifest file and replaced by its path
    (["catalog", "list", "--manifest", b"root:x:0:0:root:/root:/bin/sh\n"],
     "manifest-unreadable"),
    (["catalog", "list", "--manifest", b"[x]\nkind = compact\nkind = ale\n"],
     "manifest-unreadable"),
    (["catalog", "list", "--manifest", b"[x]\nb0 = 1\n[x]\nb1 = 0\n"],
     "manifest-unreadable"),
    (["catalog", "list", "--manifest", b"\xff\xfe[x]\nkind = compact\n"],
     "manifest-unreadable"),
    (["catalog", "list", "--manifest", b"[x]\n  stray\nkind = compact\n"],
     "manifest-unreadable"),
    # options that a command would not read
    (["curvature", "--manifold", "taub-nut-1", "--point", "1,1,1,1",
      "--resolution", "2"], "unrecognized arguments: --resolution"),
    (["boundary", "--manifold", "taub-nut-1", "--rho", "20", "--cutoff", "5"],
     "unrecognized arguments: --cutoff"),
    (["verify", "decay", "--manifold", "taub-nut-1", "--rho", "20,40,80",
      "--cutoff", "5"], "unrecognized arguments: --cutoff"),
], ids=["point-nan", "rho-inf", "lattice-nan", "tau-nan", "tol-nan",
        "cutoff-nan", "rho-empty", "csv-empty", "manifest-no-section",
        "manifest-duplicate-option", "manifest-duplicate-section",
        "manifest-not-utf8", "manifest-stray-continuation",
        "curvature-resolution", "boundary-cutoff", "decay-cutoff"])
def test_cli_bad_input_is_a_usage_error(argv, slug, tmp_path):
    manifest = tmp_path / "manifest.ini"
    for arg in argv:
        if isinstance(arg, bytes):
            manifest.write_bytes(arg)
    argv = [str(manifest) if isinstance(a, bytes) else a for a in argv]
    env = dict(os.environ, SDLAB_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sdlab.cli", *argv],
                          env=env, timeout=120, capture_output=True,
                          text=True)
    assert proc.returncode == 64, proc.stderr
    assert slug in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["boundary", "--manifold", "taub-nut-1", "--rho", "1e100"],
    ["boundary", "--manifold", "taub-nut-1", "--rho", "1e200"],
    ["boundary", "--manifold", "schwarzschild", "--rho", "1e200"],
    ["verify", "decay", "--manifold", "taub-nut-1", "--rho",
     "1e200,2e200,4e200"],
], ids=["tn1-1e100", "tn1-1e200", "schwarzschild-1e200", "decay-1e200"])
def test_cli_rho_beyond_cap_is_one_error_line(argv, tmp_path):
    # once printed nan and inf, or a LinAlgError traceback
    env = dict(os.environ, SDLAB_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sdlab.cli", *argv],
                          env=env, timeout=120, capture_output=True,
                          text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: rho-too-large")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, slug", [
    (["curvature", "--manifold", "schwarzschild", "--point=1e30,1e30,1,0"],
     "point-too-far"),
    (["curvature", "--manifold", "schwarzschild", "--point=1e5,0,1,0"],
     "point-too-far"),
    (["curvature", "--manifold", "taub-nut-1", "--point=1e300,0,0,0"],
     "point-too-far"),
    (["curvature", "--manifold", "taub-nut-1", "--point=1e-9,0,0,0"],
     "center-excluded"),
    (["curvature", "--manifold", "taub-nut-1", "--point=0,0,1e-150,0"],
     "center-excluded"),
    (["verify", "modularity", "--manifold", "flat-torus", "--tol", "-1"],
     "tol-positive"),
    (["verify", "modularity", "--manifold", "flat-torus", "--tol", "0"],
     "tol-positive"),
], ids=["schwarzschild-1e30", "schwarzschild-1e5", "tn1-1e300",
        "tn1-near-centre", "tn1-centre-1e-150",
        "modularity-tol-negative", "modularity-tol-zero"])
def test_cli_meaningless_request_is_one_error_line(argv, slug, tmp_path):
    # the points once gave a LinAlgError traceback, invariants of 0.64 on a
    # Ricci-flat metric, |Riem|^2 of 1342.7 where the closed form gives 384,
    # or overflow warnings; the tolerances a check that could not pass
    env = dict(os.environ, SDLAB_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sdlab.cli", *argv],
                          env=env, timeout=120, capture_output=True,
                          text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {slug}:")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    ["theta", "--tau", "0.1+1e-320i"],
    ["lattice", "--tau", "0.1+1e-320i", "--bplus", "1", "--bminus", "1",
     "--box", "3"],
    ["partition", "--manifold", "k3-analytic", "--tau", "0.1+1e-320i"],
    ["verify", "modularity", "--manifold", "k3-analytic",
     "--taus", "0.1+1e-320i"],
], ids=["theta", "lattice", "partition", "verify-modularity"])
def test_cli_subnormal_im_tau_hits_the_term_cap(argv, capsys):
    # the starting term count was infinite, and int() of it an OverflowError
    code, out, err = run_cli(capsys, [*argv, "--json"])
    assert (code, out) == (2, "")
    assert err.startswith("error: theta-term-cap:") and err.count("\n") == 1


def test_cli_theta_error_estimate_bounds_the_error(capsys):
    # the golden case: the value is off by 5.55e-17, and the tail bound the
    # envelope once reported alone is 6.87e-18
    code, out, _ = run_cli(capsys, ["theta", "--tau", "0.3+0.8i", "--json"])
    env = jsonio.canonical_loads(out)
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(0.3, 0.8))
    err = abs(env["results"]["value"] - complex(mpmath.jtheta(3, 0, q)))
    assert code == 0 and 0 < err <= env["error_estimate"]
    assert env["error_estimate"] > env["results"]["tail_bound"]


def test_cli_theta_reduces_a_large_real_part(capsys):
    # 1e12 is even, so theta takes its value at i, which is real; the
    # series once printed an imaginary part of -2.33e-5
    code, out, _ = run_cli(capsys, ["theta", "--tau", "1e12+1i", "--json"])
    value = jsonio.canonical_loads(out)["results"]["value"]
    assert code == 0 and abs(value - theta(1j).value) <= 1e-12
    code, out, _ = run_cli(capsys, ["theta", "--tau", "0.1+1i", "--tol",
                                    "1e-320", "--json"])
    value = jsonio.canonical_loads(out)["results"]["value"]
    assert code == 0 and abs(value - theta(0.1 + 1j).value) <= 1e-12


@pytest.mark.parametrize("point", ["0.3,0,-1,0.1", "0.1,0,-1,0.1",
                                   "0.03,0,-1,0.1", "0.01,0,-1,0.1",
                                   "0.3,0,-3,0.1", "0.1,0,-3,0.1"])
def test_cli_curvature_near_a_dirac_string(point, capsys):
    # in the default gauge the step reached the string: at 0.01 from it
    # inv_R_full read 3043.04 and scalar -1.0003, with exit code 0
    code, out, _ = run_cli(capsys, ["curvature", "--manifold", "taub-nut-1",
                                    "--point", point, "--json"])
    assert code == 0
    res = jsonio.canonical_loads(out)["results"]
    x, _, z, _ = map(float, point.split(","))
    exact = 24 * 0.25 / (math.hypot(x, z) + 0.5) ** 6
    assert res["inv_R_full"] == pytest.approx(exact, rel=1e-6)
    assert abs(res["scalar"]) <= 1e-6 * math.sqrt(exact)


def test_readme_exit_codes_match_the_raised_slugs():
    # a slug the table names must still be raised, and new slugs documented
    root = pathlib.Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    slugs = set(re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", section))
    source = "".join(p.read_text(encoding="utf-8")
                     for p in (root / "src").rglob("*.py"))
    assert {s for s in slugs if f'"{s}"' not in source} == set()
    assert {"point-too-far", "tol-positive", "float-list"} <= slugs


def test_every_raised_slug_is_named_by_a_test():
    # the literal first argument of each *Error( call under src/, calls
    # that span lines included, must appear quoted in some test file
    root = pathlib.Path(__file__).parents[1]
    source = "".join(p.read_text(encoding="utf-8")
                     for p in (root / "src").rglob("*.py"))
    raised = set(re.findall(r'\w+Error\(\s*"([a-z0-9]+(?:-[a-z0-9]+)+)"',
                            source))
    tests = "".join(p.read_text(encoding="utf-8")
                    for p in (root / "tests").rglob("*")
                    if p.suffix in (".py", ".json"))
    assert len(raised) >= 70
    assert sorted(s for s in raised
                  if f'"{s}"' not in tests and f"'{s}'" not in tests) == []


# case -> a call that raises its slug, or a CLI argv whose stderr names it;
# the case is the slug, then "/" and what differs where a second call
# raises it
PROVOKE = {
    "box-positive": lambda: brute_force_partition(1, 0, 0, 1j),
    "lattice-box-cap": lambda: brute_force_partition(3, 3, 30, 1j),
    # the starting term count is past the cap: raises before any term
    "theta-term-cap": lambda: theta(1e-10j),
    "power-of-zero": lambda: principal_power(0, 0.5),
    "principal-branch-cut": lambda: principal_power(-1, 0.5),
    "eps-range": lambda: cot_contour_theta(1j, 0.6),
    "panel-edges": lambda: quad.panel_rule([1.0, 0.0], 8),
    "graded-edges": lambda: quad.graded_edges(1.0, 1.0, 2, 0.1),
    "tail-window": lambda: quad.fit_power_tail([1.0, 2.0, 3.0],
                                               [1.0, 0.5, 0.3], 3.0),
    "tail-fit-divergent": lambda: quad.fit_power_tail(
        [10.0, 12.0, 14.0, 16.0], [0.1, 1 / 12, 1 / 14, 1 / 16], 16.0),
    # steep inside r = 8 and r^-0.5 beyond: the whole window fits, its outer
    # half gives exponent 0.598
    "tail-fit-divergent/outer-window": lambda r=np.geomspace(6.2, 9.8, 12):
        quad.fit_power_tail(r, np.where(r < 8.0, 8.0 ** -0.5 * (r / 8.0) ** -6,
                                        r ** -0.5), 10.0),
    "lattice-singular": lambda: epstein_zeta_at_zero(np.zeros((4, 4))),
    "lattice-shape": lambda: torus_zeta_zero(np.eye(3), 0),
    "betti-nonnegative": lambda: theta_product(-1, 0, 1j),
    "tol-positive": lambda: cot_contour_theta(1j, 0.2, tol=0.0),
    "quadrature-non-convergence": lambda: cot_contour_theta(-2.4 + 0.15j,
                                                            0.45),
    "reduction-needs-axis": lambda: MultiTaubNut(
        0.5, ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))).reduction(2, 40.0),
    "no-chart": ["curvature", "--manifold", "k3-analytic",
                 "--point", "0.1,0.2,0.3,0.4"],
    "rho-sequence": ["verify", "decay", "--manifold", "taub-nut-1",
                     "--rho", "20,30,40"],
}


@pytest.mark.parametrize("case", list(PROVOKE))
def test_slug_is_raised_where_it_names(case, capsys):
    provoke = PROVOKE[case]
    slug = case.partition("/")[0]
    if isinstance(provoke, list):
        code, out, err = run_cli(capsys, provoke)
        assert code == 64 and out == ""
        assert err.startswith(f"error: {slug}:") and err.count("\n") == 1
        return
    with pytest.raises(SdlabError) as err:
        provoke()
    assert err.value.slug == slug


def test_cli_bad_complex_literal(capsys):
    code, _, err = run_cli(capsys, ["theta", "--tau", "up"])
    assert code == 64 and "complex-literal" in err


def test_parse_complex_forms():
    assert parse_complex("0.3+0.8i") == 0.3 + 0.8j
    assert parse_complex("2i") == 2j
    assert parse_complex(" -1.1+0.4J ") == -1.1 + 0.4j


def test_cli_catalog_list_and_show(capsys):
    code, out, _ = run_cli(capsys, ["catalog", "list"])
    assert code == 0 and "taub-nut-2" in out
    code, out, _ = run_cli(capsys, ["catalog", "show", "k3-analytic",
                                    "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["bminus_l2"] == 19
    code, _, err = run_cli(capsys, ["catalog", "show"])
    assert code == 64


def test_cli_unknown_manifold(capsys):
    code, _, err = run_cli(capsys, ["weights", "--manifold", "moebius"])
    assert code == 64 and "manifold-unknown" in err


def test_cli_weights_k3(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--manifold", "k3-analytic",
                                    "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["convention"] == "paper-endo"
    assert env["results"]["alpha"] == pytest.approx(1.2, abs=1e-12)
    code, out, _ = run_cli(capsys, ["weights", "--manifold", "k3-analytic",
                                    "--convention", "gilkey", "--json"])
    assert jsonio.canonical_loads(out)["convention"] == "gilkey-full"


def test_cli_integrate_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    argv = ["integrate", "--manifold", "flat-torus", "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    env1 = jsonio.canonical_loads(out1)
    env2 = jsonio.canonical_loads(out2)
    assert env1["results"]["cache_hit"] is False
    assert env2["results"]["cache_hit"] is True
    assert env1["cache_key"] == env2["cache_key"]
    assert out1.replace('"cache_hit": false', '"cache_hit": true') == out2


@pytest.mark.parametrize("bad", ["fields", "null", "string", "NaN",
                                 "1e999", "not-json",
                                 '{"re": "big", "im": 0.0}'])
def test_cli_integrate_wrong_schema_record_recomputed(capsys, tmp_path,
                                                      monkeypatch, bad):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    argv = ["integrate", "--manifold", "round-s4", "--resolution", "1",
            "--json"]
    _, good, _ = run_cli(capsys, argv)
    path = tmp_path / f"{jsonio.canonical_loads(good)['cache_key']}.json"
    if bad == "fields":
        text = json.dumps({"I_gb": 1.0, "code": cache.code_stamp()})
    elif bad == "not-json":
        text = "{ not json"
    else:
        value = '"big"' if bad == "string" else bad
        text = re.sub(r'"I_R_endo": [^,]+', f'"I_R_endo": {value}',
                      path.read_text(encoding="ascii"))
    assert text != path.read_text(encoding="ascii")
    path.write_text(text, encoding="ascii")
    with pytest.warns(UserWarning, match="recomputing"):
        code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == good
    results = jsonio.canonical_loads(good)["results"]
    del results["cache_hit"]
    assert cache.load(path.stem) == results


def test_cli_integrate_stale_code_recomputed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    argv = ["integrate", "--manifold", "round-s4", "--resolution", "1",
            "--json"]
    _, first, _ = run_cli(capsys, argv)
    monkeypatch.setattr(cache, "code_stamp", lambda: "0" * 64)
    with pytest.warns(UserWarning, match="lacks the stamp of this code"):
        code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == first
    path = tmp_path / f"{jsonio.canonical_loads(out)['cache_key']}.json"
    assert json.loads(path.read_text(encoding="ascii"))["code"] == "0" * 64


def test_cutoff_of_a_compact_entry_shares_its_record(capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    calls = []
    integrate = catalog.integrate_invariants

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(catalog, "integrate_invariants", counted)
    keys = set()
    for cutoff in ([], ["--cutoff", "3"], ["--cutoff", "300"]):
        code, out, _ = run_cli(capsys, ["weights", "--manifold", "round-s4",
                                        "--resolution", "1", "--json",
                                        *cutoff])
        assert code == 0
        keys.add(jsonio.canonical_loads(out)["cache_key"])
    assert len(calls) == 1 and len(keys) == 1
    assert [p.name for p in tmp_path.iterdir()] == [f"{keys.pop()}.json"]


def test_default_and_explicit_alf_cutoff_share_a_record(capsys, tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    argv = ["integrate", "--manifold", "taub-nut-1", "--resolution", "2",
            "--json"]
    hits = []
    for extra in ([], ["--cutoff", "5"]):
        code, out, _ = run_cli(capsys, argv + extra)
        assert code == 0
        hits.append(jsonio.canonical_loads(out)["results"]["cache_hit"])
    assert hits == [False, True]


@pytest.mark.parametrize("flags", [["--no-cache"], ["--no-cache", "--json"],
                                   ["--json"]],
                         ids=["text", "json", "json-cached"])
def test_cli_nonfinite_integrals_do_not_converge(flags, capsys, tmp_path,
                                                 monkeypatch):
    # every integral and the estimate come out NaN
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(integrals, "_columns",
                        lambda backend, pts: np.full((len(pts), 6), np.nan))
    code, out, err = run_cli(capsys, ["integrate", "--manifold", "taub-nut-1",
                                      "--resolution", "1", *flags])
    assert code == 2 and "quadrature-non-convergence" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_cutoff_too_large(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, ["weights", "--manifold", "taub-nut-1",
                                    "--cutoff", "1e100"])
    assert code == 1 and "cutoff-too-large" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_cutoff_too_small(capsys):
    code, _, err = run_cli(capsys, ["integrate", "--manifold", "taub-nut-1",
                                    "--cutoff", "2", "--no-cache"])
    assert code == 1 and "cutoff-too-small" in err


def test_cli_anomaly_gate(capsys):
    code, _, err = run_cli(capsys, ["anomaly", "--manifold", "schwarzschild",
                                    "--resolution", "2"])
    assert code == 1 and "weights-not-local" in err


def test_cli_neck(capsys):
    code, out, _ = run_cli(capsys, ["neck", "--manifold", "taub-nut-1",
                                    "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"] == {"condition_holds": True, "derived_b1_D": 0}
    code, _, err = run_cli(capsys, ["neck", "--manifold", "flat-torus"])
    assert code == 1 and "neck-check-compact" in err


def test_cli_pathology(capsys):
    code, out, _ = run_cli(capsys, ["pathology", "--tau", "2i", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    g = env["results"]["gaussian_factor"]
    assert g == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)
    assert env["results"]["weight_report"]["fits_weight_pair"] is False


def test_cli_zeta(capsys):
    lattice = ",".join(["2.5", "0", "0", "0", "0", "2.5", "0", "0",
                        "0", "0", "2.5", "0", "0", "0", "0", "2.5"])
    code, out, _ = run_cli(capsys, ["zeta", "--lattice", lattice,
                                    "--k", "1", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["zeta_at_zero"] == pytest.approx(-4.0, abs=1e-6)


def test_cli_boundary_csv(capsys):
    code, out, _ = run_cli(capsys, ["boundary", "--manifold", "taub-nut-1",
                                    "--rho", "20,28", "--resolution", "2",
                                    "--csv"])
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0].startswith("rho,")
    assert len(lines) == 3


def test_cli_manifest_entry(capsys, tmp_path):
    path = write_manifest(tmp_path, GOOD_MANIFEST)
    code, out, _ = run_cli(capsys, ["weights", "--manifold", "my-k3",
                                    "--manifest", path, "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["beta"] == pytest.approx(9.2, abs=1e-12)


def test_cli_verify_theta(capsys):
    code, out, _ = run_cli(capsys, ["verify", "theta", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["pass"] is True
    assert env["results"]["max_s_transform_residual"] < 1e-9


def test_cli_verify_modularity(capsys):
    code, out, _ = run_cli(capsys, ["verify", "modularity", "--manifold",
                                    "k3-analytic", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["pass"] is True


def test_cli_verify_gauss_bonnet(capsys):
    code, out, _ = run_cli(capsys, ["verify", "gauss-bonnet", "--manifold",
                                    "flat-torus", "--json"])
    assert code == 0
    assert jsonio.canonical_loads(out)["results"]["pass"] is True


def test_cli_verify_decay(capsys):
    code, out, _ = run_cli(capsys, ["verify", "decay", "--manifold",
                                    "taub-nut-1", "--rho", "20,40,80",
                                    "--resolution", "2", "--json"])
    assert code == 0
    env = jsonio.canonical_loads(out)
    assert env["results"]["pass"] is True
    assert env["results"]["fitted_decay_order"] >= 0.8


def test_cli_human_output_runs(capsys):
    code, out, _ = run_cli(capsys, ["weights", "--manifold", "k3-analytic"])
    assert code == 0 and "alpha" in out
