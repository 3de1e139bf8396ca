"""`sdlab._lazy`: the module binding that defers numpy and every sdlab
module the CLI does not reach, and what it owes to perfbench's tracing."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sdlab
from sdlab import _lazy


def test_imported_module_is_returned_unchanged():
    assert _lazy("json") is json


def test_missing_module_raises():
    with pytest.raises(ModuleNotFoundError):
        _lazy("sdlab_no_such_module")


def test_body_runs_at_first_attribute_access(tmp_path, monkeypatch):
    ran = tmp_path / "ran"
    (tmp_path / "sdlab_lazy_probe.py").write_text(
        f"open({str(ran)!r}, 'a').write('x')\nVALUE = 42\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = _lazy("sdlab_lazy_probe")
        assert sys.modules["sdlab_lazy_probe"] is module
        assert not ran.exists()
        assert module.VALUE == 42 and module.VALUE == 42
        assert ran.read_text() == "x"
    finally:
        sys.modules.pop("sdlab_lazy_probe", None)


def test_submodule_is_bound_on_its_parent_without_running(tmp_path,
                                                          monkeypatch):
    ran = tmp_path / "ran"
    package = tmp_path / "sdlab_lazy_package"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "child.py").write_text(
        f"open({str(ran)!r}, 'a').write('x')\nVALUE = 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = _lazy("sdlab_lazy_package.child")
        from sdlab_lazy_package import child
        assert child is module and not ran.exists()
        assert child.VALUE == 7 and ran.read_text() == "x"
    finally:
        for name in ("sdlab_lazy_package", "sdlab_lazy_package.child"):
            sys.modules.pop(name, None)


# In a fresh interpreter: `import sdlab.cli`, then perfbench's instrument.
# Prints the sites it could not find, the sites whose defining attribute
# does not hold a traced wrapper, and what still holds one after restore.
_TRACED = """
import json, sys
import sdlab.cli
sys.path.insert(0, sys.argv[1])
import spans

def traced_attrs():
    sdlab_modules = [m for n, m in sorted(sys.modules.items())
                     if n.split(".")[0] == "sdlab"]
    backends = sys.modules["sdlab.geometry.backends"]
    owners = sdlab_modules + [getattr(backends, c)
                              for c in spans.BACKEND_CLASSES]
    return sorted(f"{getattr(o, '__name__', o)}.{a}" for o in owners
                  for a, v in vars(o).items() if hasattr(v, "__traced__"))

restore, missing = spans.instrument(spans.Tracer())
unwrapped = [f"{mod}.{func}" for _, mod, func, _ in spans.SITES
             if not hasattr(getattr(sys.modules[mod], func), "__traced__")]
wrapped = traced_attrs()
restore()
print(json.dumps([missing, unwrapped, len(wrapped), traced_attrs()]))
"""


def test_perfbench_wraps_every_site_after_import_cli():
    # spans.instrument wraps the functions of the sdlab modules it finds in
    # sys.modules after `import sdlab.cli`; a module the CLI leaves
    # unregistered is loaded later and keeps its functions unwrapped
    src = pathlib.Path(sdlab.__file__).parents[1]
    perfbench = pathlib.Path(__file__).parents[1] / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED, str(perfbench)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missing, unwrapped, wrapped, left = json.loads(proc.stdout)
    assert (missing, unwrapped, left) == ([], [], [])
    assert wrapped > 0
