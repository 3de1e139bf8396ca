"""Content-addressed cache for expensive quadrature results.

Keys are SHA-256 digests of the canonical JSON of everything that can
change the answer: backend identity and parameters, resolution, cutoff,
and the code version.  A corrupt or unreadable cache file is never
fatal; it warns, recomputes, and overwrites.  Writers never share a
temp file.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import warnings

from . import __version__
from .jsonio import canonical_dumps, canonical_loads

_ENV_VAR = "SDLAB_CACHE_DIR"


def cache_dir() -> pathlib.Path:
    override = os.environ.get(_ENV_VAR)
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "sdlab"


def cache_key(payload: dict) -> str:
    body = dict(payload)
    body["code_version"] = __version__
    return hashlib.sha256(canonical_dumps(body).encode("ascii")).hexdigest()


def _path_for(key: str) -> pathlib.Path:
    return cache_dir() / f"{key}.json"


def load(key: str):
    """Stored record for ``key`` or None (missing and corrupt alike)."""
    path = _path_for(key)
    try:
        text = path.read_text(encoding="ascii")
    except FileNotFoundError:
        return None
    except OSError as exc:
        warnings.warn(f"cache read failed, recomputing: {exc}")
        return None
    try:
        return canonical_loads(text)
    except ValueError:
        warnings.warn(f"corrupt cache entry {path.name}, recomputing")
        return None


def store(key: str, record: dict) -> None:
    """Write through a temp file of this writer's own, renamed into place;
    the temp file is removed if the write fails."""
    path = _path_for(key)
    text = canonical_dumps(record)
    tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="ascii")
        tmp.replace(path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        warnings.warn(f"cache write failed: {exc}")


def get_or_compute(payload: dict, compute):
    """Return (record, key, hit) where record = compute() on a miss."""
    key = cache_key(payload)
    record = load(key)
    if record is not None:
        return record, key, True
    record = compute()
    store(key, record)
    return record, key, False
