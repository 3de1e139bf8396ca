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


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, complex):
        out.append('{"re": ')
        out.append(_format_float(obj.real))
        out.append(', "im": ')
        out.append(_format_float(obj.imag))
        out.append("}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise DomainError("json-key-type",
                                  f"mapping keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(": ")
            _encode(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _encode(value, out)
        out.append("]")
    else:
        raise DomainError("json-type", f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


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
