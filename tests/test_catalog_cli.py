"""Catalog entries, manifest parsing, canonical JSON, cache, CLI surface."""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import cache, jsonio
from sdlab.assembly import weights_for
from sdlab.catalog import (
    builtin_names,
    entry_integrals,
    get_entry,
    parse_manifest,
)
from sdlab.cli import main, parse_complex
from sdlab.errors import DescriptorError, DomainError, UsageError

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
    ci = entry_integrals(entry, resolution=64)
    assert ci is entry.descriptor.analytic_integrals


def test_backend_entry_integrates():
    ci = entry_integrals(get_entry("flat-torus"), resolution=2)
    assert ci.I_gb == 0.0 and ci.node_count == 1


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
string_signs = 1 1
"""


def write_manifest(tmp_path, text, name="m.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_manifest_good_entries(tmp_path):
    entries = parse_manifest(write_manifest(tmp_path, GOOD_MANIFEST))
    assert set(entries) == {"my-k3", "off-axis-pair"}
    k3 = entries["my-k3"]
    assert k3.backend is None
    w = weights_for(k3.descriptor)
    assert w.alpha == pytest.approx(1.2, abs=1e-12)
    assert w.beta == pytest.approx(9.2, abs=1e-12)
    pair = entries["off-axis-pair"]
    assert pair.backend.mass == 0.25
    assert pair.backend.centers == ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    assert pair.descriptor.b1_D == "derive"
    assert pair.descriptor.h1_neck_trivial is True


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
     "geometry = round-s4\n", "manifest-key-missing"),
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


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_float_round_trip_exact(x):
    back = jsonio.canonical_loads(jsonio.canonical_dumps({"x": x}))["x"]
    assert back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


# --------------------------------------------------------------------- cache


def test_cache_miss_then_hit(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42.0, "z": 1 + 2j}

    payload = {"kind": "unit", "n": 7}
    rec1, key1, hit1 = cache.get_or_compute(payload, compute)
    rec2, key2, hit2 = cache.get_or_compute(payload, compute)
    assert (hit1, hit2) == (False, True)
    assert key1 == key2 and rec1 == rec2
    assert len(calls) == 1
    assert (tmp_path / f"{key1}.json").exists()


def test_cache_corruption_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    payload = {"kind": "unit", "n": 8}
    _, key, _ = cache.get_or_compute(payload, lambda: {"v": 1.5})
    (tmp_path / f"{key}.json").write_text("{ not json", encoding="ascii")
    with pytest.warns(UserWarning, match="corrupt cache entry"):
        rec, _, hit = cache.get_or_compute(payload, lambda: {"v": 1.5})
    assert hit is False and rec == {"v": 1.5}


def test_cache_key_tracks_payload():
    a = cache.cache_key({"resolution": 4})
    b = cache.cache_key({"resolution": 5})
    assert a != b and len(a) == 64


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path / "alt"))
    assert cache.cache_dir() == tmp_path / "alt"


# ----------------------------------------------------------------------- CLI


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_cli_integrate_wrong_schema_record_recomputed(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    argv = ["integrate", "--manifold", "round-s4", "--resolution", "1",
            "--json"]
    _, good, _ = run_cli(capsys, argv)
    path = tmp_path / f"{jsonio.canonical_loads(good)['cache_key']}.json"
    path.write_text('{"I_gb": 1.0}', encoding="ascii")
    with pytest.warns(UserWarning, match="does not hold curvature integrals"):
        code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == good
    assert jsonio.canonical_loads(path.read_text(encoding="ascii"))["I_gb"] \
        == jsonio.canonical_loads(good)["results"]["I_gb"]


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
