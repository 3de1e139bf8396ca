"""The record types: immutable values, equal when their fields are, whose
dicts keep the key order of the golden `--json` results.  A backend is
equal to one of its own class with equal `params`, the identity its cache
key uses, and never to a backend of another class."""

import json
import math
import pathlib

import pytest

from sdlab.assembly import (ManifoldDescriptor, ModularWeights,
                            PartitionEvaluation)
from sdlab.catalog import CatalogEntry
from sdlab.geometry.backends import (FlatTorus, GeometryBackend, MultiTaubNut,
                                     RoundS4, Schwarzschild, Segment)
from sdlab.geometry.boundary import TruncationReport
from sdlab.geometry.curvature import CurvatureBatch, CurvatureSample
from sdlab.geometry.integrals import CurvatureIntegrals
from sdlab.modular_forms import ThetaValue
from sdlab.spectral_zeta import SpectralZetaResult

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" /
                     "cli_json.json").read_text(encoding="utf-8"))

_S4 = dict(name="s4", kind="compact", b0=1, b1=0, bplus_l2=0, bminus_l2=0)
_INTEGRALS = dict(I_R_full=24.0, I_R_endo=6.0, I_r=0.0, I_s2=0.5, I_gb=2.0,
                  I_p=0.0, error_estimate=1e-3, resolution=2,
                  cutoff_rho=None, node_count=30)

# record class -> (the arguments of one record, a field, another value of it)
RECORDS = {
    ManifoldDescriptor: (_S4, "bminus_l2", 1),
    ModularWeights: (dict(alpha=-0.5, beta=0.5, sigma_phase=0.0,
                          convention="paper-endo"), "alpha", -1.0),
    PartitionEvaluation: (dict(value=1j, factors={"theta": 1.0}),
                          "value", 2j),
    ThetaValue: (dict(value=1 + 0j, tail_bound=1e-13, terms_used=3,
                      error_estimate=2e-13), "terms_used", 4),
    SpectralZetaResult: (dict(zeta_at_zero=-1.0, method="heat-kernel-formula",
                              truncation_error=0.0), "zeta_at_zero", 1.0),
    TruncationReport: (dict(rho=10.0, pi_sup=0.1, v40_integral=1.0,
                            v41_integral=4.0, boundary_area=100.0,
                            error_estimate=1e-6), "rho", 20.0),
    CurvatureSample: (dict(point=(0.1, 0.2, 0.3, 0.4), scalar=12.0,
                           inv_R_full=24.0, inv_R_endo=6.0, inv_r=36.0,
                           inv_s2=144.0, gb_density=0.01,
                           pontryagin_density=0.0, bianchi_residual=0.0,
                           step=1e-3), "scalar", 0.0),
    CurvatureBatch: (dict.fromkeys(CurvatureBatch._fields, 0.0), "scalar",
                     1.0),
    CurvatureIntegrals: (_INTEGRALS, "resolution", 4),
    Segment: (dict(edges=((0.0, 1.0),), order=8, embed=math.sin,
                   backend=RoundS4()), "order", 10),
    CatalogEntry: (dict(descriptor=ManifoldDescriptor(**_S4),
                        backend=RoundS4()), "backend", RoundS4(a=2.0)),
    FlatTorus: (dict(radii=(1.0, 1.0, 1.0, 1.0)), "radii",
                (1.0, 2.0, 1.0, 1.0)),
    RoundS4: (dict(a=1.0), "a", 2.0),
    MultiTaubNut: (dict(mass=0.5, centers=((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))),
                   "mass", 0.25),
    Schwarzschild: (dict(mass=1.0), "mass", 2.0),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    kw, field, other = RECORDS[cls]
    record, same = cls(**kw), cls(**kw)
    changed = cls(**{**kw, field: other})
    assert record == same and not record != same
    assert record != changed and not record == changed
    if cls is not PartitionEvaluation:  # its factors are a dict
        assert hash(record) == hash(same)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
    assert record == same
    if issubclass(cls, GeometryBackend):
        # Schwarzschild(mass=1.0) and RoundS4(a=1.0) among them
        others = [c() for c in GeometryBackend.__subclasses__() if c is not cls]
        assert len(others) == 3
        assert all(record != o and o != record for o in others)
        assert cls() != tuple(kw.values())


# record class -> the golden case whose `results` hold its dict
@pytest.mark.parametrize("cls,case", [
    (CurvatureIntegrals, "integrate/round-s4"),
    (SpectralZetaResult, "zeta"),
    (TruncationReport, "boundary/schwarzschild"),
    (CurvatureSample, "curvature/round-s4"),
], ids=lambda v: getattr(v, "__name__", v))
def test_record_dicts_keep_the_golden_key_order(cls, case):
    results = json.loads(GOLDEN[case]["stdout"])["results"]
    results = results.get("reports", [results])[0]
    record = cls(**RECORDS[cls][0])
    as_dict = record.as_dict() if hasattr(record, "as_dict") else \
        record._asdict()
    # `integrate` adds cache_hit, `curvature` gives the point as an input
    assert [k for k in as_dict if k != "point"] == [
        k for k in results if k != "cache_hit"]


def test_integrals_record_round_trips():
    for extra in ({}, {"cutoff_rho": 20.0, "tail_exponent": -3.0}):
        ci = CurvatureIntegrals(**{**_INTEGRALS, **extra})
        assert CurvatureIntegrals.from_record(ci.as_dict()) == ci


_DROP = "<dropped>"


@pytest.mark.parametrize("change", [
    {"resolution": True}, {"node_count": 30.0}, {"I_gb": math.nan},
    {"cutoff_rho": math.inf}, {"I_p": "0.0"}, {"extra": 1.0},
    {"tail_exponent": _DROP},
], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
def test_integrals_record_of_wrong_shape_is_refused(change):
    record = {k: v for k, v in {**CurvatureIntegrals(**_INTEGRALS).as_dict(),
                                **change}.items() if v != _DROP}
    with pytest.raises(ValueError, match="does not hold curvature integrals"):
        CurvatureIntegrals.from_record(record)
