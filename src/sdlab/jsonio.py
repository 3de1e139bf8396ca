"""Canonical JSON encoding for reports and cache records.

Identical inputs must serialize to identical bytes across runs and
platforms: floats are written with 17 significant digits (enough to
round-trip IEEE doubles), complex numbers as {"re": ..., "im": ...}
objects, and mappings keep their insertion order, which every command
fixes by construction.  `finite_float` and `finite_floats` parse the
numbers of command-line options and manifests, which must be finite to
be written at all.
"""

from __future__ import annotations

import json
import math

from .errors import DomainError


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DomainError("json-nonfinite", f"cannot serialize {x!r}")
    if x == int(x) and abs(x) < 1e16:
        sign = "-" if math.copysign(1.0, x) < 0 else ""
        return f"{sign}{abs(int(x))}.0"  # keep float typing through a round-trip
    return "%.17g" % x


def _key(key) -> str:
    if not isinstance(key, str):
        raise DomainError("json-key-type",
                          f"mapping keys must be strings, got {key!r}")
    return json.dumps(key, ensure_ascii=True)


def _encode(obj) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return (f'{{"re": {_format_float(obj.real)}, '
                f'"im": {_format_float(obj.imag)}}}')
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_key(k)}: {_encode(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_encode, obj)) + "]"
    raise DomainError("json-type", f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return _encode(obj)


def _decode_complex(d):
    if set(d) == {"re", "im"}:
        try:
            return complex(d["re"], d["im"])
        except TypeError:
            raise ValueError(f"not a complex number: {d!r}") from None
    return d


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def canonical_loads(text: str):
    """Inverse of canonical_dumps; {"re", "im"} pairs of numbers become
    complex.  Other such pairs and NaN/Infinity are a ValueError."""
    return json.loads(text, object_hook=_decode_complex,
                      parse_constant=_reject_constant)


def finite_float(text: str) -> float:
    """float(text); nan and inf are a ValueError, as a non-number is."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def finite_floats(text: str) -> tuple[float, ...]:
    """`finite_float` of each comma- or blank-separated token of text."""
    return tuple(map(finite_float, text.replace(",", " ").split()))
