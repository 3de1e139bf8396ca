#!/usr/bin/env python3
"""sdlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload integrate-cold --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55   # every workload

Run from the root of a source checkout; sdlab is imported from ./src.
With --trace 0 it times the workload end to end (CLI ops in child
processes, as a user runs them) and prints setup_s, wall_s, op_p50_s and
peak_rss_mb (see end_to_end).  With --trace 1 it runs the same ops
in-process, wraps the public call boundaries of every sdlab module (see
spans.py) and prints the per-layer metrics.  Every op's output is checked
against a reference either way.  The last stdout line is the result
object; the line before it, and perfbench/_out/, hold the detail record:
environment, seed, generated inputs, per-op latency, SHA-256 of each op's
output and the check notes.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
SETUP_REPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}


def pin_blas_threads() -> None:
    """One BLAS thread (at most nproc), set before numpy loads.

    Every workload is a single closed-loop client; a second BLAS thread
    bought no wall time here and made timings depend on the neighbours.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


if __name__ == "__main__":
    pin_blas_threads()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402


# --------------------------------------------------------------- statistics

def tail_percentile(latencies):
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (percentile, value, count), or None below 20 samples.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return None
    rank = n - 10                      # samples ranked above it: exactly 10
    return 100.0 * rank / n, xs[rank - 1], n


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _llc() -> str | None:
    best = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{entry}/level")
        size = _read(f"{base}/{entry}/size")
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), f"L{int(level)} {size.strip()}")
    return best[1] if best else None


def _blas() -> dict:
    info = {"threads_env": {v: os.environ.get(v) for v in BLAS_VARS}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["library"] = None
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower() or not path.endswith(".so"):
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None
    return info


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sdlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def environment() -> dict:
    import scipy
    return {"nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "llc": _llc(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


# ------------------------------------------------------------------ op runs

def child_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SDLAB_CACHE_DIR"] = cache_dir
    return env


def run_child(argv: list, env: dict, cwd: str):
    """Run one process to completion: (code, stdout, stderr, secs, maxrss KiB)."""
    err_path = os.path.join(cwd, "stderr.txt")
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        secs = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return (proc.returncode, out.decode("utf-8", "replace"), errtext, secs,
            usage.ru_maxrss)


def cli_child(argv: list, cache_dir: str, cwd: str):
    return run_child([sys.executable, "-m", "sdlab.cli", *argv],
                     child_env(cache_dir), cwd)


def cli_inprocess(argv: list, cache_dir: str):
    """sdlab.cli.main(argv) in this process: (code, stdout, stderr).

    An exception that escapes main() counts as exit code 1, the way the
    interpreter would report it in a child process.
    """
    from sdlab import cli
    os.environ["SDLAB_CACHE_DIR"] = cache_dir
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:       # a traceback in a child process
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def release_free_heap() -> None:
    """Return free malloc memory to the system before an in-process op.

    Without it the peak resident set of the process depended on how much
    freed heap earlier ops happened to leave mapped (273 to 320 MB for one
    seed); with it the peak is the op's own need on top of live data.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to release
        pass


def lib_call(call):
    """Outcome of a library op; an error becomes its slug or type name."""
    try:
        value = call()
    except Exception as exc:           # counted as a failed op, not fatal
        return W.Outcome(1, "", None, getattr(exc, "slug", type(exc).__name__))
    return W.Outcome(0, repr(value), value, None)


# --------------------------------------------------------------- workloads

class Bench:
    """Set-up, passes and metrics of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 work: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.cli = workload != "spectral"
        self.plan = None
        self.primed = None
        self.passes = []
        self.peak_kib = 0
        self.tracer = spans.Tracer()
        self.pass_spans = []
        self.missing_sites = []
        self.problems = []            # failed run-level checks
        self.notes = []               # harness remarks that are not failures

    # ---- set-up
    def setup_once(self, rep: int) -> None:
        rep_dir = self.work / f"setup{rep}"
        rep_dir.mkdir()
        if self.workload == "integrate-cold":
            manifest = self.work / "seeded.ini"
            self.plan = W.plan_integrate_cold(self.seed, str(manifest))
            manifest.write_text(self.plan.manifest, encoding="ascii")
            self._warm_interpreter(rep_dir)
        elif self.workload == "spectral":
            # what a script pays to import the library in a fresh interpreter
            run_child([sys.executable, "-c",
                       "import sdlab.spectral_zeta, sdlab.lattice_sum"],
                      child_env(str(rep_dir)), str(rep_dir))
            self.plan = W.plan_spectral(self.seed)
        else:
            self.plan = W.plan_cli_warm(self.seed)
            cache = rep_dir / "cache"
            cache.mkdir()
            for argv in W.priming_argv():
                if self.traced:
                    code, _, err = cli_inprocess(argv, str(cache))
                else:
                    code, _, err, _, _ = cli_child(argv, str(cache), str(rep_dir))
                if code != 0:
                    raise RuntimeError(f"priming {argv} failed: {err}")
            self.primed = cache

    def _warm_interpreter(self, rep_dir: pathlib.Path) -> None:
        if self.traced:
            import sdlab.cli  # noqa: F401
        else:
            run_child([sys.executable, "-m", "sdlab.cli", "--version"],
                      child_env(str(rep_dir)), str(rep_dir))

    # ---- one pass over the op list
    def run_op(self, op, cache: pathlib.Path, cwd: pathlib.Path):
        """(Outcome, latency in seconds) of one op."""
        if op.argv is None:
            release_free_heap()
            t0 = time.perf_counter()
            out = lib_call(op.call)
            return out, time.perf_counter() - t0
        t0 = time.perf_counter()
        if self.traced:
            code, stdout, err = cli_inprocess(op.argv, str(cache))
            secs = time.perf_counter() - t0
        else:
            code, stdout, err, secs, kib = cli_child(op.argv, str(cache), str(cwd))
            self.peak_kib = max(self.peak_kib, kib)
        return W.Outcome(code, stdout, error=err.strip() or None), secs

    def run_pass(self, index: int, traced: bool) -> dict:
        pass_dir = self.work / f"pass{index}"
        pass_dir.mkdir()
        cache = pass_dir / "cache"
        if self.primed is not None:
            shutil.copytree(self.primed, cache)
        else:
            cache.mkdir()
        ctx = W.Context(str(cache))
        snapshot = self._snapshot(cache)
        records = []
        if traced:
            self.tracer.clear()
            restore, self.missing_sites = spans.instrument(self.tracer)
        try:
            t_pass = time.perf_counter()
            for op in self.plan.ops:
                if traced:
                    op_span = self.tracer.open("harness.op", "harness")
                    try:
                        out, secs = self.run_op(op, cache, pass_dir)
                    finally:
                        self.tracer.close(op_span)
                else:
                    out, secs = self.run_op(op, cache, pass_dir)
                verdict = W.judge(op, out, ctx)
                if self.primed is not None:
                    now = self._snapshot(cache)
                    if now != snapshot:
                        verdict.fail("wrote the primed cache (a cache miss)")
                        snapshot = now
                records.append({"op": op.name, "secs": secs, "ok": verdict.ok,
                                "sha256": sha256(out.stdout),
                                "notes": verdict.notes,
                                "ref_errs": verdict.ref_errs,
                                "err_ratios": verdict.ratios})
            wall = time.perf_counter() - t_pass
        finally:
            if traced:
                restore()
        if traced:
            self.pass_spans.append(self.tracer.spans)
        shutil.rmtree(pass_dir)
        return {"index": index, "traced": traced, "wall_s": wall, "ops": records}

    @staticmethod
    def _snapshot(cache: pathlib.Path) -> dict:
        return {p.name: p.stat().st_mtime_ns for p in cache.iterdir()}

    def measure(self, budget_start: float, alternate: bool = False) -> None:
        """Whole passes until the next one would overrun --seconds.

        With `alternate`, passes switch between traced and untraced,
        starting traced, so both see the same machine conditions.
        """
        traced = alternate
        while True:
            record = self.run_pass(len(self.passes), traced)
            self.passes.append(record)
            elapsed = time.perf_counter() - budget_start
            if elapsed + record["wall_s"] > self.seconds:
                return
            traced = alternate and not traced

    # ---- checks over all passes
    def check_summary(self) -> dict:
        ops = [r for p in self.passes for r in p["ops"]]
        first = {}
        for p in self.passes:
            for r in p["ops"]:
                if first.setdefault(r["op"], r["sha256"]) != r["sha256"]:
                    r["ok"] = False
                    r["notes"].append("output bytes differ from the first pass")
        failed = sum(1 for r in ops if not r["ok"])
        refs = [e for r in ops for e in r["ref_errs"]]
        ratios = [e for r in ops for e in r["err_ratios"]]
        refused = sum(1 for r in ops for n in r["notes"] if n.startswith("refused"))
        return {"attempted": len(ops), "failed": failed,
                "fail_frac": failed / len(ops), "expected_refusals": refused,
                "ref_err_max": max(refs, default=0.0),
                "err_ratio_max": max(ratios, default=0.0)}


def op_latencies(passes: list) -> list:
    return [r["secs"] for p in passes for r in p["ops"]]


def end_to_end(bench: Bench, setup_times: list) -> dict:
    """setup_s: median set-up; wall_s: median pass; op_p50_s: median
    latency over every op of every pass.

    Medians, not each op's best over passes: on a shared host the load of
    the neighbours shifts for minutes at a time, and over the same twenty
    runs of ten seeds the best-of-passes figures spread more between runs
    (see README.md).
    """
    if bench.cli:
        peak_kib = bench.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": statistics.median(p["wall_s"] for p in bench.passes),
              "op_p50_s": statistics.median(op_latencies(bench.passes)),
              "peak_rss_mb": peak_kib / 1024.0}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def scipy_special_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost scipy.special* entries.

    `-X importtime` prints children before their parent, one level of
    indentation deeper, so reading it backwards meets each ancestor first.
    """
    total = 0.0
    inside = None                      # level of the counted ancestor
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        if inside is not None and level > inside:
            continue
        inside = None
        if name.strip().startswith("scipy.special"):
            total += int(parts[1]) * 1e-6
            inside = level
    return total


def import_probes(work: pathlib.Path) -> dict:
    """Fresh-interpreter import time of sdlab.cli and of scipy.special in it."""
    env = child_env(str(work))
    code = ("import time; t = time.perf_counter(); import sdlab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        _, out, _, _, _ = run_child([sys.executable, "-c", code], env, str(work))
        times.append(float(out.strip()))
    _, _, err, _, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                 "import sdlab.cli"], env, str(work))
    scipy_special = scipy_special_import_s(err)
    return {"cli.import_s": statistics.median(times),
            "cli.import_scipy_special_s": scipy_special}


def per_layer(bench: Bench, probes: dict, summary: dict):
    per_pass = [spans.layer_metrics(s) for s in bench.pass_spans]
    first = per_pass[0]
    repeat = all(m[k] == first[k] for m in per_pass for k in spans.COUNT_METRICS)
    if not repeat:
        bench.problems.append("layer counts differ between traced passes")
    values = {}
    for key in first:
        if key in spans.COUNT_METRICS:
            values[key] = first[key]
        else:
            values[key] = statistics.median(m[key] for m in per_pass)
    values.update(probes)
    # the first pass warms the process up; it is the untraced reference
    # only when the budget left room for no other untraced pass
    traced = [p["wall_s"] for p in bench.passes if p["traced"]]
    plain = [p["wall_s"] for p in bench.passes[1:] if not p["traced"]]
    plain = plain or [bench.passes[0]["wall_s"]]
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    values["checks.fail_frac"] = summary["fail_frac"]
    values["checks.ref_err_max"] = summary["ref_err_max"]
    values["checks.err_ratio_max"] = summary["err_ratio_max"]
    return {k: {"value": v, "unit": spans.LAYER_UNITS[k]}
            for k, v in values.items()}, repeat


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    import sdlab
    origin = pathlib.Path(sdlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"sdlab imported from {origin}, not from {SRC}")
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        bench = Bench(workload, seed, seconds, trace, work)
        setup_times = []
        for rep in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            bench.setup_once(rep)
            setup_times.append(time.perf_counter() - t0)
        detail = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "setup_reps_s": setup_times,
                  "inputs": bench.plan.inputs}
        if not trace:
            bench.measure(time.perf_counter())
            summary = bench.check_summary()
            metrics = end_to_end(bench, setup_times)
            detail["op_p50_samples"] = len(op_latencies(bench.passes))
        else:
            probes = import_probes(work)
            start = time.perf_counter()
            bench.passes.append(bench.run_pass(0, False))
            bench.measure(start, alternate=True)
            if bench.missing_sites:
                bench.notes.append(
                    f"binding sites not found: {bench.missing_sites}")
            summary = bench.check_summary()
            metrics, repeat = per_layer(bench, probes, summary)
            detail["counts_repeat"] = repeat
            if workload == "cli-warm" and metrics["cache.hit_ratio"]["value"] != 1.0:
                bench.problems.append("cache hit ratio below 1 after priming")
        correct = summary["failed"] == 0 and not bench.problems
        # a CLI op child's ru_maxrss also counts this process's resident set
        # at the spawn, so that floor is recorded next to the metric
        detail["harness_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail.update(summary=summary, problems=bench.problems, notes=bench.notes,
                      ops_per_pass=len(bench.plan.ops), passes=bench.passes,
                      environment=environment())
        tail = tail_percentile(op_latencies(bench.passes))
        if tail is not None and len(bench.plan.ops) >= 20:
            detail["op_tail_s"] = {"percentile": tail[0], "value": tail[1],
                                   "samples": tail[2]}
        result = {"correct": correct, "attempted": summary["attempted"],
                  "failed": summary["failed"], "metrics": metrics}
        return result, detail, bench.pass_spans
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_outputs(detail: dict, pass_spans: list) -> None:
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if pass_spans:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for index, recorded in enumerate(pass_spans):
                for s in recorded:
                    fh.write(json.dumps({"pass": index, **s.as_dict()}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=W.WORKLOADS + W.EXTRA_WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdlab" / "__init__.py").is_file():
        print(f"error: no sdlab sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, detail, pass_spans = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    write_outputs(detail, pass_spans)
    brief = {k: v for k, v in detail.items() if k != "passes"}
    print(json.dumps({"detail": brief}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, as when run one by one; the child
    processes of one workload then never start from another's memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS + W.EXTRA_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
