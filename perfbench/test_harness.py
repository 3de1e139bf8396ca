"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys

import pytest

import run
import spans
import workloads as W

sys.path.insert(0, str(run.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, secs):
        self.now += secs


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf_t = tracer.wrap(leaf, "a.leaf", "a")

    def middle():
        clock.advance(1.0)
        leaf_t()
        clock.advance(0.5)
        leaf_t()

    middle_t = tracer.wrap(middle, "b.middle", "b")
    op = tracer.open("harness.op", "harness")
    clock.advance(0.25)
    middle_t()
    tracer.close(op)

    own = spans.self_times(tracer.spans)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(own[s.id])
    assert by_name["harness.op"] == [0.25]
    assert by_name["b.middle"] == [1.5]
    assert by_name["a.leaf"] == [2.0, 2.0]


def test_recursive_calls_count_only_the_outermost():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    calls = []

    def inner_step():
        clock.advance(1.0)

    step = tracer.wrap(inner_step, "x.step", "x")

    def recurse(n):
        calls.append(n)
        step()
        if n:
            traced(n - 1)

    traced = tracer.wrap(recurse, "x.recurse", "x")
    traced(3)
    assert calls == [3, 2, 1, 0]
    names = [s.name for s in tracer.spans]
    assert names.count("x.recurse") == 1
    assert names.count("x.step") == 4
    outer = next(s for s in tracer.spans if s.name == "x.recurse")
    assert outer.duration == 4.0
    # all four steps are children of the single outer span
    assert spans.self_times(tracer.spans)[outer.id] == 0.0


def test_span_records_error_slug_and_reraises():
    tracer = spans.Tracer()

    class Refused(Exception):
        slug = "lattice-enumeration"

    def boom():
        raise Refused("too big")

    with pytest.raises(Refused):
        tracer.wrap(boom, "z.boom", "z")()
    assert tracer.spans[0].error == "lattice-enumeration"
    assert tracer._stack == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(19)) is None
    pct, value, n = run.tail_percentile([float(x) for x in range(20)])
    assert (pct, value, n) == (50.0, 9.0, 20)
    xs = [float(x) for x in range(44)]
    pct, value, n = run.tail_percentile(list(reversed(xs)))
    assert sum(1 for x in xs if x > value) == 10
    assert pct == pytest.approx(100.0 * 34 / 44)


def test_end_to_end_takes_medians():
    latencies = ((1.0, 5.0, 1.5), (2.0, 4.0, 3.0), (5.5, 6.0, 7.0))
    passes = [{"wall_s": wall, "ops": [{"op": op, "secs": secs}
                                       for op, secs in zip("abc", row)]}
              for wall, row in zip((9.5, 9.0, 18.5), latencies)]
    bench = type("B", (), {"passes": passes, "cli": True, "peak_kib": 2048})()
    m = {k: v["value"] for k, v in run.end_to_end(bench, [0.3, 0.1, 0.2]).items()}
    # op_p50_s pools all nine latencies; the passes' own medians give 3.0
    assert m == {"setup_s": 0.2, "wall_s": 9.5, "op_p50_s": 4.0,
                 "peak_rss_mb": 2.0}


def test_op_names_are_unique_within_a_pass(tmp_path):
    # latencies and output hashes are matched across passes by op name
    for plan in (W.plan_integrate_cold(1, str(tmp_path / "m.ini")),
                 W.plan_cli_warm(1), W.plan_spectral(1)):
        names = [op.name for op in plan.ops]
        assert len(set(names)) == len(names), plan.workload


def _tn1_weights_env(alpha, beta, key):
    return {"command": "weights", "results": {"alpha": alpha, "beta": beta},
            "cache_key": key}


@pytest.mark.parametrize("scale, ok", [(1.0, True), (1.05, False)])
def test_checker_rejects_a_perturbed_weight(tmp_path, scale, ok):
    key = "k" * 64
    (tmp_path / f"{key}.json").write_text(json.dumps(
        {"I_gb": 1.0002980501954574, "error_estimate": 1.2576e-4}))
    env = _tn1_weights_env(-scale / 30.0, 7.0 / 15.0, key)
    op = W.Op("weights taub-nut-1", W._check_weights("multi-taub-nut", 1.0, 1),
              argv=["weights"])
    verdict = W.judge(op, W.Outcome(0, json.dumps(env)), W.Context(str(tmp_path)))
    assert verdict.ok is ok
    assert verdict.ratios == [pytest.approx(2.98e-4 / 1.2576e-4, rel=1e-3)]


@pytest.mark.parametrize("delta, ok", [(1e-9, True), (1e-5, False)])
def test_checker_rejects_a_perturbed_zeta(delta, ok):
    k = 2
    value = type("R", (), {"zeta_at_zero": -6.0 + delta,
                           "truncation_error": 1e-9})()
    op = W.Op("zeta", W._check_zeta(k), call=lambda: value)
    verdict = W.judge(op, W.Outcome(0, "", value), W.Context(""))
    assert verdict.ok is ok
    assert verdict.ref_errs == [pytest.approx(delta / 6.0)]


def test_refusal_passes_only_with_its_own_slug():
    op = W.Op("zeta", W._check_zeta(0), call=None,
              refusal="lattice-enumeration")
    ctx = W.Context("")
    assert W.judge(op, W.Outcome(1, "", None, "lattice-enumeration"), ctx).ok
    assert not W.judge(op, W.Outcome(1, "", None, "lattice-condition"), ctx).ok


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = W.plan_cli_warm(5).inputs
    b = W.plan_cli_warm(5).inputs
    c = W.plan_cli_warm(6).inputs
    assert a == b and a != c
    cold = W.plan_integrate_cold(5, str(tmp_path / "m.ini"))
    assert 0.25 <= cold.inputs["two_center"]["mass"] <= 0.8
    assert 0.3 <= cold.inputs["two_center"]["half_separation"] <= 2.0


def test_seeded_lattices_have_the_ladder_singular_values():
    import numpy as np
    rng = np.random.default_rng(0)
    for sigma in W.SIGMA_LADDER:
        basis = W.seeded_lattice(rng, sigma)
        got = sorted(np.linalg.svd(basis, compute_uv=False))
        assert got == pytest.approx(sorted(sigma), rel=1e-12)


def test_scipy_special_import_time_sums_outermost_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.special._inner",
        "import time:        20 |         30 |     scipy.special._ufuncs",
        "import time:         5 |          5 |     scipy.special._basic",
        "import time:        50 |         50 |     scipy",
        "import time:       100 |        185 |   sdlab.spectral_zeta",
    ])
    assert run.scipy_special_import_s(log) == pytest.approx(35e-6)


def test_instrumented_cli_call_is_traced_and_restored(tmp_path):
    from sdlab import cli, geometry
    from sdlab.geometry import curvature, integrals

    original_batch = curvature.curvature_batch
    tracer = spans.Tracer()
    restore, missing = spans.instrument(tracer)
    try:
        assert missing == []
        code, out, _ = run.cli_inprocess(
            ["weights", "--manifold", "round-s4", "--json"], str(tmp_path))
    finally:
        restore()
    assert code == 0 and json.loads(out)["results"]["alpha"] == pytest.approx(
        23.0 / 60.0, abs=1e-3)
    assert curvature.curvature_batch is original_batch
    assert geometry.integrate_invariants is integrals.integrate_invariants
    assert not hasattr(integrals.integrate_invariants, "__traced__")
    assert not hasattr(cli.main, "__traced__")
    m = spans.layer_metrics(tracer.spans)
    assert m["integrals.calls"] == 1 and m["cache.misses"] == 1
    assert m["backends.metric_points"] == 113 * m["curvature.points"] > 0
    assert math.isclose(m["cache.hit_ratio"], 0.0)


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_layer_metrics_cover_every_traced_unit():
    probes = {"cli.import_s", "cli.import_scipy_special_s",
              "trace.overhead_frac", "checks.fail_frac",
              "checks.ref_err_max", "checks.err_ratio_max"}
    assert set(spans.layer_metrics([])) | probes == set(spans.LAYER_UNITS)
