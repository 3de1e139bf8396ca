"""Content-addressed cache for expensive quadrature results.

Keys are SHA-256 digests of the canonical JSON of the parameters a
result was computed from.  Each record carries `code_stamp()`, a digest
of the numerics source, and a record from other code is never served.
Writers never share a temp file.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pathlib
import warnings

try:  # hashlib's digests, without mapping OpenSSL, as `random` takes sha512
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .jsonio import canonical_dumps, canonical_loads

_ENV_VAR = "SDLAB_CACHE_DIR"
# modules under geometry/ whose source decides a stored integral
_STAMPED = ("backends", "curvature", "quadrature", "integrals")


def cache_dir() -> pathlib.Path:
    override = os.environ.get(_ENV_VAR)
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "sdlab"


@functools.cache
def code_stamp() -> str:
    """SHA-256 of the `_STAMPED` sources, read once per process."""
    geometry = pathlib.Path(__file__).parent / "geometry"
    digest = sha256()
    for name in _STAMPED:
        digest.update((geometry / f"{name}.py").read_bytes())
    return digest.hexdigest()


def cache_key(payload: dict) -> str:
    return sha256(canonical_dumps(payload).encode("ascii")).hexdigest()


def load(key: str):
    """The record under `key` without its stamp, None if there is none;
    OSError if unreadable, ValueError if not this code's canonical JSON."""
    try:
        text = (cache_dir() / f"{key}.json").read_text(encoding="ascii")
    except FileNotFoundError:
        return None
    record = canonical_loads(text)
    if not (isinstance(record, dict)
            and record.pop("code", None) == code_stamp()):
        raise ValueError("lacks the stamp of this code")
    return record


def store(key: str, record: dict) -> None:
    """Write `record` and the code stamp through a temp file of this
    writer's own, renamed into place; a failed write removes it."""
    path = cache_dir() / f"{key}.json"
    text = canonical_dumps({**record, "code": code_stamp()})
    tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="ascii")
        tmp.replace(path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        warnings.warn(f"cache write failed: {exc}")

