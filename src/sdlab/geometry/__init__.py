from .backends import (
    FlatTorus,
    GeometryBackend,
    MultiTaubNut,
    RoundS4,
    Schwarzschild,
)
from .curvature import CurvatureSample, curvature_at
from .integrals import CurvatureIntegrals, integrate_invariants
from .boundary import TruncationReport, boundary_report

__all__ = [
    "GeometryBackend",
    "FlatTorus",
    "RoundS4",
    "MultiTaubNut",
    "Schwarzschild",
    "CurvatureSample",
    "curvature_at",
    "CurvatureIntegrals",
    "integrate_invariants",
    "TruncationReport",
    "boundary_report",
]
