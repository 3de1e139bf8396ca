"""`sdlab._lazy`: the module binding that defers numpy until first use."""

import json
import sys

import pytest

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
