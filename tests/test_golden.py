"""Golden corpus: the exact `--json` stdout and exit code of one invocation
per subcommand, over every catalog entry, at resolution 2.

The recorded bytes live in `tests/golden/cli_json.json`.  A refactor that
must not change any number is checked against them byte for byte.  To
record the corpus again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which outputs moved and why.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from sdlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_json.json"

ENTRIES = ("flat-torus", "round-s4", "k3-analytic", "taub-nut-1",
           "taub-nut-2", "schwarzschild")
POINTS = {"flat-torus": "0.1,0.2,0.3,0.4", "round-s4": "1.0,1.2,0.8,0.5",
          "k3-analytic": "0.1,0.2,0.3,0.4", "taub-nut-1": "1.5,0.4,0.7,0.3",
          "taub-nut-2": "1.5,0.4,0.7,0.3",
          "schwarzschild": "0.8,0.3,1.1,0.8"}
LATTICE = "2.1,0.3,0,0,0,1.9,0.2,0,0,0,2.4,0.1,0.2,0,0,2.2"
# condition number 3.3, but the dual scan box exceeds the enumeration cap
CAPPED_LATTICE = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,0.3"


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
            f"curvature/{name}": ["curvature", *res, "--point", POINTS[name]],
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
    return {case: argv + ["--json"] for case, argv in cases.items()}


CASES = _cases()


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse leaves this way
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setenv("SDLAB_CACHE_DIR", str(tmp_path_factory.mktemp("golden")))
    yield json.loads(GOLDEN.read_text(encoding="ascii"))
    mp.undo()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(golden, case):
    assert run(CASES[case]) == golden[case]


def test_corpus_covers_every_case(golden):
    assert list(golden) == list(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as cache:
        os.environ["SDLAB_CACHE_DIR"] = cache
        recorded = {case: run(argv) for case, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="ascii")
    sys.exit(0)
