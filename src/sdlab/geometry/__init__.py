"""Metric backends, the curvature kernel and its volume and boundary
integrals.

The names below are re-exported on first access (PEP 562), so importing
the package runs none of its modules; `from sdlab.geometry import
curvature_at` runs the curvature kernel's module and what it imports.
"""

import importlib

# re-exported name -> the submodule that defines it
_HOMES = {
    "GeometryBackend": "backends",
    "FlatTorus": "backends",
    "RoundS4": "backends",
    "MultiTaubNut": "backends",
    "Schwarzschild": "backends",
    "CurvatureSample": "curvature",
    "curvature_at": "curvature",
    "CurvatureIntegrals": "integrals",
    "integrate_invariants": "integrals",
    "TruncationReport": "boundary",
    "boundary_report": "boundary",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
