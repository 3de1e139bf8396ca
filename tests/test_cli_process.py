"""One CLI process, end to end: the parser it builds and the way it exits.

`main` builds only the subparser its argv names (for ``verify``, only the
check's), and `run`, which the console script and ``python -m sdlab.cli``
call, freezes the heap before the interpreter exits.  These tests hold
both to the bytes, exit codes and cache records of the full parser and of
a plain `main`.
"""

import ast
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import sdlab
from sdlab import cache, cli

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli_json.json")
                    .read_text(encoding="ascii"))

# every command, and every verify check, by the argv words that name it
NAMES = [[name] for name in cli._COMMANDS] + [
    ["verify", check] for check in cli._CHECKS]


def _process(argv, cache_dir, *, code=None):
    """A fresh interpreter running ``python -m sdlab.cli argv``, or the
    Python source `code` with argv as its ``sys.argv[1:]``."""
    env = dict(os.environ, SDLAB_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(pathlib.Path(sdlab.__file__).parents[1]))
    head = ["-m", "sdlab.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], env=env,
                          timeout=120, capture_output=True, text=True)


# ------------------------------------------------------------- exit path

def test_exit_path_prints_golden_bytes_and_stores_a_record(tmp_path,
                                                           monkeypatch):
    case = GOLDEN["weights/taub-nut-1"]
    proc = _process(case["argv"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["code"], case["stdout"], "")
    # the record the process left is read back by this code
    key = json.loads(proc.stdout)["cache_key"]
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    monkeypatch.setenv("SDLAB_CACHE_DIR", str(tmp_path))
    assert cache.load(key)["resolution"] == 2


def test_exit_path_freezes_the_heap(tmp_path):
    # `python -m sdlab.cli` runs the module as __main__; an atexit handler
    # runs after it returns and before the interpreter's teardown
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()"
            " > 0, file=sys.stderr))\n"
            "runpy.run_module('sdlab.cli', run_name='__main__')\n")
    proc = _process(["theta", "--tau", "i", "--json"], tmp_path, code=code)
    assert proc.returncode == 0 and proc.stderr == "frozen True\n"
    assert proc.stdout.startswith('{"command": "theta"')


@pytest.mark.parametrize("argv, code, slug", [
    (GOLDEN["verify-decay/schwarzschild"]["argv"], 1, None),
    (["lattice", "--tau", "i", "--bplus", "3", "--bminus", "3"], 2,
     "lattice-box-cap"),
    (["theta", "--tau", "zz"], 64, "complex-literal"),
], ids=["verify-decay-fails", "refused", "usage"])
def test_exit_path_keeps_exit_codes_and_slugs(tmp_path, argv, code, slug):
    proc = _process(argv, tmp_path)
    assert proc.returncode == code, proc.stderr
    if slug is None:
        assert (proc.stdout, proc.stderr) == (
            GOLDEN["verify-decay/schwarzschild"]["stdout"], "")
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {slug}: ")
        assert proc.stderr.count("\n") == 1


def test_main_never_freezes(capsys):
    assert cli.main(["theta", "--tau", "i", "--json"]) == 0
    assert gc.get_freeze_count() == 0


# --------------------------------------------------------------- parsers

def _parse(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parsing `argv`."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("names", NAMES, ids=" ".join)
def test_one_subparser_reads_as_the_full_parser(names, capsys, monkeypatch):
    one, full = cli.build_parser(*names), cli.build_parser()
    # the one-command parser lists no other command or check
    others = [spec[1] for table in (cli._COMMANDS, cli._CHECKS)
              for name, spec in table.items() if name != names[-1]]
    assert not [h for h in others if h in one.format_help()]
    # help, and the usage error of a missing required option
    for argv in ([*names, "--help"], names):
        assert _parse(one, argv, capsys) == _parse(full, argv, capsys)
    # main builds the one-command parser for it
    built, build = [], cli.build_parser

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit) as exit_:
        cli.main([*names, "--help"])
    assert [p.format_help() for p in built] == [one.format_help()]
    assert exit_.value.code == 0
    assert capsys.readouterr().out == _parse(
        full, [*names, "--help"], capsys)[1]


@pytest.mark.parametrize("argv, choices", [
    (["bogus"], [*cli._COMMANDS, "verify"]),
    (["verify", "bogus"], list(cli._CHECKS)),
], ids=["command", "check"])
def test_an_unknown_name_lists_every_choice(argv, choices, capsys):
    assert _parse(cli.build_parser(*argv), argv, capsys) == _parse(
        cli.build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    listed = ", ".join(f"'{c}'" for c in choices)
    assert exit_.value.code == 64
    assert f"invalid choice: 'bogus' (choose from {listed})" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["--version", "theta"],
                                  ["--version", "bogus", "--tau"]],
                         ids=["alone", "command", "bogus"])
def test_version_builds_no_subparser(argv, capsys, monkeypatch):
    # --version prints and exits before a command is read, so main builds
    # no command parser (12 commands and 4 checks took about 4 ms)
    assert cli.build_parser("--version")._subparsers is None
    built, command = [], cli._command

    def spy(*args):
        built.append(args[1])
        return command(*args)

    monkeypatch.setattr(cli, "_command", spy)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert (exit_.value.code, built) == (0, [])
    assert capsys.readouterr() == (f"{cli.__version__}\n", "")
    # the bytes of the full parser
    assert _parse(cli.build_parser(), argv, capsys) == (
        0, f"{cli.__version__}\n", "")


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    listed = [(name, spec[1]) for name, spec in cli._COMMANDS.items()]
    for name, help in [*listed, ("verify", "dual-route consistency checks")]:
        assert f"\n    {name}" in out and help in out, name


# ------------------------------------------------------------- packaging

def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 and newer
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]["scripts"]
    module, _, attr = scripts["sdlab"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    # the function `if __name__ == "__main__": sys.exit(f())` calls
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    guard, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(guard.body[0]) == "sys.exit(run())"
    assert entry is cli.run
