"""Golden corpus: the exact `--json` stdout and exit code of one invocation
per subcommand, over every catalog entry, at resolution 2, and of
`integrate` at resolution 4 on every entry with a chart.  Resolution 2 is
the CLI's default, and `integrate` without `--resolution` must print the
bytes of its `integrate/*` case; the `integrate-r4/*` cases pin
resolution 4, which is no longer the default.

The recorded bytes live in `tests/golden/cli_json.json`.  A refactor that
must not change any number is checked against them byte for byte.  Each
case must also leave stderr empty or write the one `error: <slug>: ...`
line of an SdlabError; a warning or a traceback fails it.  To record the
corpus again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

which also prints each case whose stdout or exit code moved, with the
JSON key path of each removed, added or changed non-number value, the
largest |new - old| / max(1, |old|) over the numbers both stdouts share
and the largest |new - old| / |old| over those with |old| >= 1e-6, each
with the key path of its number, and say in CHANGES.md which outputs
moved and why.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import pytest

import sdlab
from sdlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_json.json"

ENTRIES = ("flat-torus", "round-s4", "k3-analytic", "taub-nut-1",
           "taub-nut-2", "schwarzschild")
CHARTS = tuple(name for name in ENTRIES if name != "k3-analytic")
POINTS = {"flat-torus": "0.1,0.2,0.3,0.4", "round-s4": "1.0,1.2,0.8,0.5",
          "k3-analytic": "0.1,0.2,0.3,0.4", "taub-nut-1": "1.5,0.4,0.7,0.3",
          "taub-nut-2": "1.5,0.4,0.7,0.3",
          "schwarzschild": "0.8,0.3,1.1,0.8"}
LATTICE = "2.1,0.3,0,0,0,1.9,0.2,0,0,0,2.4,0.1,0.2,0,0,2.2"
# condition number 100: refused by the enumeration cap until the Epstein
# basis was scaled to unit covolume, and the case whose sampling at
# s = +-delta is least accurate (error 6e-8 after Richardson, estimate 0.09)
CAPPED_LATTICE = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,0.01"


def _cases() -> dict:
    cases = {
        "theta": ["theta", "--tau", "0.3+0.8i"],
        "lattice": ["lattice", "--tau", "0.2+1.1i", "--bplus", "2",
                    "--bminus", "1", "--box", "12"],
        "zeta": ["zeta", "--lattice", LATTICE, "--k", "2"],
        "zeta-capped": ["zeta", "--lattice", CAPPED_LATTICE, "--k", "1"],
        "pathology": ["pathology", "--tau=-0.4+0.9i"],
        "catalog-list": ["catalog", "list"],
        "verify-theta": ["verify", "theta"],
    }
    for name in ENTRIES:
        on = ["--manifold", name]
        res = on + ["--resolution", "2"]
        cases.update({
            f"curvature/{name}": ["curvature", *on, "--point", POINTS[name]],
            # --no-cache keeps cache_hit independent of the case order
            f"integrate/{name}": ["integrate", *res, "--no-cache"],
            f"boundary/{name}": ["boundary", *res, "--rho", "20,30"],
            f"weights/{name}": ["weights", *res],
            f"partition/{name}": ["partition", *res, "--tau", "0.3+0.8i"],
            f"anomaly/{name}": ["anomaly", *res],
            f"neck/{name}": ["neck", *on],
            f"catalog-show/{name}": ["catalog", "show", name],
            f"verify-modularity/{name}": ["verify", "modularity", *res],
            f"verify-gauss-bonnet/{name}": ["verify", "gauss-bonnet", *res],
            f"verify-decay/{name}": ["verify", "decay", *res,
                                     "--rho", "20,40,80"],
        })
    # resolution 4, the CLI default until 2 took its place: its meshes fall
    # into other kernel batches, so these cases pin it, not the default
    cases.update({f"integrate-r4/{name}": ["integrate", "--manifold", name,
                                           "--resolution", "4", "--no-cache"]
                  for name in CHARTS})
    return {case: argv + ["--json"] for case, argv in cases.items()}


CASES = _cases()


# the whole stderr of a case that fails with an SdlabError
ERROR_LINE = re.compile(r"error: [a-z0-9-]+: [^\n]*\n")


def invoke(argv) -> tuple[dict, str]:
    """The recorded case of one invocation, and its stderr with every
    warning it raised written out as Python would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse leaves this way
            code = exc.code
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename,
                                          w.lineno) for w in caught)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}, \
        err.getvalue()


def _leaves(value, path=""):
    """(key path, scalar) of each leaf of a JSON value, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _compare(old: dict, new: dict):
    """The leaf maps of two JSON stdouts, and (|new - old| / max(1, |old|),
    |new - old| / |old| or None if |old| < 1e-6, key path) for each number
    that moved at a key path both share, (None, None, key path) for any
    other value that moved there."""
    a, b = (dict(_leaves(json.loads(case["stdout"]))) for case in (old, new))
    moves = []
    for path, x in a.items():
        y = b.get(path, x)
        if x == y and type(x) is type(y):
            continue
        if type(x) in (int, float) and type(y) in (int, float):
            d = abs(y - x)
            moves.append((d / max(1.0, abs(x)),
                          d / abs(x) if abs(x) >= 1e-6 else None, path))
        else:
            moves.append((None, None, path))
    return a, b, moves


def largest_move(old: dict, new: dict):
    """The largest |new - old| / max(1, |old|) and the largest
    |new - old| / |old| over |old| >= 1e-6 among the numbers that moved in
    one recorded case, each as (figure, key path), or None where no number
    counts or a stdout is not JSON."""
    if old["stdout"] == new["stdout"]:
        return None, None
    try:
        moves = [m for m in _compare(old, new)[2] if m[0] is not None]
    except ValueError:
        return None, None
    return (max(((fig, path) for fig, _, path in moves), default=None),
            max(((rel, path) for _, rel, path in moves if rel is not None),
                default=None))


def drift(old: dict, new: dict) -> list[str]:
    """How one recorded case moved: its exit code, the key path of each
    removed, added or changed value that is not a number, and the largest
    relative change of the numbers at the key paths both stdouts share,
    with the path where it happened (or that a stdout is not JSON)."""
    notes = []
    if old["code"] != new["code"]:
        notes.append(f"exit code {old['code']} -> {new['code']}")
    if old["stdout"] == new["stdout"]:
        return notes
    try:
        a, b, moves = _compare(old, new)
    except ValueError:
        return notes + ["stdout is not JSON"]
    notes += [f"{path} removed" for path in a if path not in b]
    notes += [f"{path} added" for path in b if path not in a]
    notes += [f"{path} changed" for fig, _, path in moves if fig is None]
    worst, rel = largest_move(old, new)
    if worst:
        notes.append(f"max |d|/max(1,|old|) = {worst[0]:.2e} at {worst[1]}")
    if rel:
        notes.append(f"max |d|/|old| = {rel[0]:.2e} at {rel[1]}")
    return notes


def summary(before: dict, recorded: dict) -> str:
    """The last line of a re-record: how many cases moved, the largest
    change of a number relative to max(1, |old|), and the largest relative
    to |old| >= 1e-6, each with its case and key path."""
    moved, worst, rel = 0, None, None
    for case, new in recorded.items():
        if case not in before:
            moved += 1
            continue
        moved += bool(drift(before[case], new))
        moves = largest_move(before[case], new)
        if moves[0] and (worst is None or moves[0][0] > worst[0]):
            worst = (*moves[0], case)
        if moves[1] and (rel is None or moves[1][0] > rel[0]):
            rel = (*moves[1], case)
    line = f"{moved} of {len(recorded)} cases moved"
    if worst is None:
        return line + "; no number moved"
    line += f"; largest drift {worst[0]:.2e} at {worst[2]} {worst[1]}"
    if rel is None:
        return line
    return line + f"; largest relative drift {rel[0]:.2e} at {rel[2]} {rel[1]}"


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("SDLAB_CACHE_DIR", str(tmp_path_factory.mktemp("golden")))
    yield json.loads(GOLDEN.read_text(encoding="ascii"))
    mp.undo()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(golden, case):
    recorded, stderr = invoke(CASES[case])
    assert recorded == golden[case]
    # silent, or the one line of an SdlabError: no warning, no traceback
    assert stderr == "" or ERROR_LINE.fullmatch(stderr), stderr


@pytest.mark.parametrize("name", CHARTS)
def test_integrate_defaults_to_resolution_two(golden, name):
    # the integrate/* cases pass --resolution 2; without it the bytes match
    recorded, stderr = invoke(["integrate", "--manifold", name, "--no-cache",
                               "--json"])
    want = golden[f"integrate/{name}"]
    assert (recorded["code"], recorded["stdout"]) == (want["code"],
                                                      want["stdout"])
    assert stderr == ""


def test_invoke_writes_out_warnings(monkeypatch):
    def noisy(argv):
        print("error: some-slug: one line", file=sys.stderr)
        warnings.warn("overflow encountered", RuntimeWarning)
        return 1

    monkeypatch.setattr(sys.modules[__name__], "main", noisy)
    recorded, stderr = invoke(["boundary"])
    assert recorded == {"argv": ["boundary"], "code": 1, "stdout": ""}
    assert stderr.startswith("error: some-slug: one line\n")
    assert "RuntimeWarning: overflow encountered" in stderr
    assert not ERROR_LINE.fullmatch(stderr)


def test_corpus_covers_every_case(golden):
    assert list(golden) == list(CASES)


# commands that run on the standard library alone once the cache is primed
LIGHT = ("weights/round-s4", "integrate/round-s4", "partition/taub-nut-1",
         "anomaly/taub-nut-1", "theta", "pathology", "neck/taub-nut-1",
         "catalog-list", "catalog-show/taub-nut-2",
         "verify-modularity/round-s4", "verify-gauss-bonnet/taub-nut-1")

# Each row: exit code, stdout, the heavy libraries, OpenSSL's hashlib
# backend, numpy.polynomial and the code-generating standard modules loaded
# since the interpreter started, and the sdlab modules executed so far.  A
# module that `sdlab.cli` registered lazily and nothing has touched is still
# a `_LazyModule`, not a ModuleType, and asking its type runs nothing.
_CHILD = """
import sys
at_start = set(sys.modules)
import contextlib, io, json, types
from sdlab import cli

def loaded():
    return [m for m in ("numpy._core", "numpy.polynomial", "_hashlib",
                        "scipy", "dataclasses", "inspect")
            if m in sys.modules and m not in at_start]

def executed():
    return sorted(n for n, m in sys.modules.items()
                  if n.split(".")[0] == "sdlab" and type(m) is types.ModuleType)

rows = [[None, "", loaded(), executed()]]
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    rows.append([code, out.getvalue(), loaded(), executed()])
print(json.dumps(rows))
"""


def _child_rows(argvs) -> list:
    """`_CHILD`'s rows for `argvs`, run in turn in one fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_commands_never_load_numpy(golden, tmp_path, monkeypatch):
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    for name in ("round-s4", "taub-nut-1"):
        assert main(["integrate", "--manifold", name, "--resolution", "2",
                     "--json"]) == 0
    light = [[a for a in CASES[c] if a != "--no-cache"] for c in LIGHT]
    heavy = CASES["curvature/round-s4"]
    # a chart section builds its backend to read the topology it states
    manifest = tmp_path / "pair.ini"
    manifest.write_text("[pair]\ngeometry = multi-taub-nut\n"
                        "centers = 0 0 -1, 0 0 1\n", encoding="ascii")
    (_, _, at_import, _), *rows, show, version, curv = _child_rows(
        [*light, ["catalog", "show", "pair", "--manifest", str(manifest),
                  "--json"], ["--version"], heavy])
    assert at_import == []
    assert show[0] == 0 and show[2] == [] and '"bminus_l2": 2' in show[1]
    for case, (code, out, loaded, _) in zip(LIGHT, rows):
        want = golden[case]["stdout"]
        if case.startswith("integrate/"):       # recorded with --no-cache
            want = want.replace('"cache_hit": false', '"cache_hit": true')
        assert (code, out, loaded) == (golden[case]["code"], want, []), case
    assert version[:3] == [0, f"{sdlab.__version__}\n", []]
    assert curv[:2] == [golden["curvature/round-s4"]["code"],
                        golden["curvature/round-s4"]["stdout"]]
    # numpy imports inspect itself, but nothing imports dataclasses
    assert "numpy._core" in curv[2] and "dataclasses" not in curv[2]
    # no light command, cache hits included, runs the curvature kernel,
    # the boundary reports or the lattice sums
    kernels = {"sdlab.geometry.curvature", "sdlab.geometry.boundary",
               "sdlab.spectral_zeta", "sdlab.lattice_sum"}
    assert not kernels & set(rows[-1][3])


def test_no_command_loads_openssl_or_numpy_polynomial(golden, tmp_path,
                                                       monkeypatch):
    # SHA-256 comes from CPython's builtin module and the Gauss rules from
    # numpy's linalg, whether a command fills the cache or reads it
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    cases = ("weights/taub-nut-2", "integrate/taub-nut-1",
             "boundary/taub-nut-2", "verify-theta")
    argvs = [[a for a in CASES[c] if a != "--no-cache"] for c in cases]
    assert main(argvs[1]) == 0      # the integrate reads it from the cache
    _, *rows = _child_rows(argvs)
    for case, (code, out, loaded, _) in zip(cases, rows):
        want = golden[case]["stdout"]
        if case.startswith("integrate/"):       # recorded with --no-cache
            want = want.replace('"cache_hit": false', '"cache_hit": true')
        assert (code, out) == (golden[case]["code"], want), case
        assert "numpy._core" in loaded, case
        assert not {"_hashlib", "numpy.polynomial"} & set(loaded), case


# the sdlab modules that `import sdlab.cli` and `sdlab --version` execute
_PARSER = {"sdlab", "sdlab.cli", "sdlab.errors", "sdlab.geometry",
           "sdlab.jsonio"}
# closed-form commands in the order one process runs them, with the sdlab
# modules each executes on top of those before it: no geometry module but
# the quadrature panels of the contour route, and no catalog
_CLOSED_FORM = (("theta", {"sdlab.modular_forms"}),
                ("pathology", {"sdlab.assembly"}),
                ("verify-theta", {"sdlab.geometry.quadrature"}))


def test_no_module_imports_code_generating_modules():
    # `typing` too, which `loaded()` cannot see where `site` imports it
    banned = {"dataclasses", "inspect", "typing"}
    root = pathlib.Path(sdlab.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module}
            else:
                continue
            assert not {n.split(".")[0] for n in names} & banned, path


def test_closed_form_commands_execute_no_geometry(golden):
    at_import, version, *rows = _child_rows(
        [["--version"], *(CASES[case] for case, _ in _CLOSED_FORM)])
    assert set(at_import[3]) == set(version[3]) == _PARSER
    assert version[:2] == [0, f"{sdlab.__version__}\n"]
    executed = _PARSER
    for (case, more), (code, out, _, now) in zip(_CLOSED_FORM, rows):
        executed = executed | more
        assert (code, out) == (golden[case]["code"], golden[case]["stdout"])
        assert set(now) == executed, case


def test_drift_names_what_moved():
    old = {"code": 0, "stdout": '{"v40_integral": 2.0, "I_gb": -0.5}'}
    assert drift(old, old) == []
    assert drift(old, dict(old, code=1)) == ["exit code 0 -> 1"]
    new = {"code": 0, "stdout": '{"v40_integral": 2.0, "I_gb": -0.25}'}
    assert drift(old, new) == ["max |d|/max(1,|old|) = 2.50e-01 at I_gb",
                               "max |d|/|old| = 5.00e-01 at I_gb"]
    new = {"code": 0, "stdout": '{"v41_integral": 2.0, "I_gb": -0.5}'}
    assert drift(old, new) == ["v40_integral removed", "v41_integral added"]
    assert drift(old, dict(old, stdout="Traceback")) == [
        "stdout is not JSON"]
    reports = {"code": 0, "stdout": '{"reports": [{"v40": 1.0, "flux": 0.0}'
                                    ', {"v40": 0.5, "flux": 0.0}]}'}
    shrunk = {"code": 0, "stdout": '{"reports": [{"v40": 1.5}, '
                                   '{"v40": 0.5}]}'}
    assert drift(reports, shrunk) == [
        "reports[0].flux removed", "reports[1].flux removed",
        "max |d|/max(1,|old|) = 5.00e-01 at reports[0].v40",
        "max |d|/|old| = 5.00e-01 at reports[0].v40"]
    keyed = {"code": 0, "stdout": '{"cache_key": "9a0f", "I_gb": -0.5}'}
    rekeyed = {"code": 0, "stdout": '{"cache_key": "17be", "I_gb": -0.25}'}
    assert drift(keyed, rekeyed) == [
        "cache_key changed", "max |d|/max(1,|old|) = 2.50e-01 at I_gb",
        "max |d|/|old| = 5.00e-01 at I_gb"]
    assert drift(keyed, dict(rekeyed, stdout=keyed["stdout"].replace(
        "9a0f", "17be"))) == ["cache_key changed"]
    nested = {"code": 1, "stdout": '{"results": {"rows": [{"a": 1.0}, '
                                   '{"a": 3.0}], "order": 0.69}}'}
    moved = {"code": 1, "stdout": '{"results": {"rows": [{"a": 1.0}, '
                                  '{"a": 3.5}], "order": 0.66}}'}
    assert drift(nested, moved) == [
        "max |d|/max(1,|old|) = 1.67e-01 at results.rows[1].a",
        "max |d|/|old| = 1.67e-01 at results.rows[1].a"]
    # numbers far below 1: an error estimate that moved by 4e-7 of itself
    # is named, a residual at rounding level (|old| < 1e-6) is not
    small = {"code": 0, "stdout": '{"I_gb": 2.0, "bianchi_residual": 1.3e-26,'
                                  ' "error_estimate": 4e-06}'}
    moved = {"code": 0, "stdout": '{"I_gb": 2.000000000004, '
                                  '"bianchi_residual": 2.2e-16, '
                                  '"error_estimate": 4.0000016e-06}'}
    assert drift(small, moved) == [
        "max |d|/max(1,|old|) = 2.00e-12 at I_gb",
        "max |d|/|old| = 4.00e-07 at error_estimate"]


def test_summary_names_the_largest_drift():
    old = {"code": 0, "stdout": '{"I_gb": 2.0, "I_p": -1.0}'}
    tol = {"code": 0, "stdout": '{"I_gb": 2.0, "tol": 0.001}'}
    before = {"a": old, "b": old, "c": old, "e": tol}
    assert summary(before, before) == "0 of 4 cases moved; no number moved"
    recorded = {"a": dict(old, code=1),
                "b": dict(old, stdout='{"I_gb": 2.5, "I_p": -1.0}'),
                "c": dict(old, stdout='{"I_gb": 2.0, "I_p": -1.25}'),
                "d": old,
                "e": dict(tol, stdout='{"I_gb": 2.0, "tol": 0.002}')}
    assert summary(before, recorded) == (
        "5 of 5 cases moved; largest drift 2.50e-01 at b I_gb; "
        "largest relative drift 1.00e+00 at e tol")
    assert summary(before, dict(recorded, e=tol)) == (
        "4 of 5 cases moved; largest drift 2.50e-01 at b I_gb; "
        "largest relative drift 2.50e-01 at b I_gb")

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as cache:
        os.environ["SDLAB_CACHE_DIR"] = cache
        recorded = {case: invoke(argv)[0] for case, argv in CASES.items()}
    before = (json.loads(GOLDEN.read_text(encoding="ascii"))
              if GOLDEN.exists() else {})
    for case, new in recorded.items():
        notes = drift(before[case], new) if case in before else ["new case"]
        if notes:
            print(f"{case}: {'; '.join(notes)}")
    print(summary(before, recorded))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="ascii")
    sys.exit(0)
