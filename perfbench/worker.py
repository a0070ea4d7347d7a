"""One workload process: build the seeded inputs, then run the timed loop or
the traced cycle, and print the result as one JSON line.

Run from the checkout root with ``src`` on PYTHONPATH (``run.py`` does
this).  It prints ``ready`` once the first cycle's inputs exist, which is
where set-up ends; a set-up-only worker then prints its reference loop
time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import aldyn  # noqa: F401  (set-up covers the cold import)
import numpy

from perfbench.calibrate import Calibration, reference_loop
from perfbench.workloads import load

IMPORT_SAMPLES = 3


def _run_check(chk):
    """(latency s, output, exception) for one check."""
    t0 = time.perf_counter()
    try:
        out = chk.run()
    except Exception as e:  # a check that raises counts as failed
        return time.perf_counter() - t0, None, e
    return time.perf_counter() - t0, out, None


def _judge(chk, out, err, reported: set) -> bool:
    """Whether the check matched its known answer; the first miss of each
    check is reported on standard error."""
    if err is None:
        try:
            if chk.verify(out):
                return True
        except Exception as e:
            err = e
    if chk.name not in reported:
        reported.add(chk.name)
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
        print(f"check {chk.name}: answer differs from the known one", file=sys.stderr)
    return False


def bad_input(wl) -> dict:
    """Exit codes of the workload's malformed inputs (untimed), if it has
    any; 0 means the bad input was accepted, a wrong answer."""
    probe = getattr(wl, "bad_input_exits", None)
    return probe() if probe else {}


def tail_percentile(n: int) -> int:
    """The highest whole percentile up to 90 with at least ten samples
    beyond it (inclusive linear interpolation)."""
    for q in range(90, 0, -1):
        if math.floor(q / 100 * (n - 1)) <= n - 11:
            return q
    return 50


def quantile(sorted_values, q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed(wl, seed: int, seconds: float, checks) -> dict:
    """Whole cycles, each with fresh inputs, stopping at the cycle boundary
    nearest to ``seconds``.  Latencies are calibrated (see ``calibrate``);
    checks_per_s is checks over the summed calibrated latencies of one
    caller in a closed loop."""
    latencies, failed, reported, cycles = [], [], set(), 0
    cal = Calibration(*getattr(wl, "REFERENCE", ()))
    cal.tick()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for chk in checks:
            dt, out, err = _run_check(chk)
            latencies.append((dt, cal.mark()))
            cal.tick()
            if not _judge(chk, out, err, reported):
                failed.append(chk.name)
        cycles += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            break
        checks = wl.build(seed, cycles)
    cal.tick(force=True)
    scale = cal.factor()
    lat = sorted(dt * cal.factor(mark) for dt, mark in latencies)
    q = tail_percentile(len(lat))
    peak = getattr(wl, "peak_rss_mb", lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {
        "correct": not failed,
        "attempted": len(lat),
        "failed": len(failed),
        "metrics": {
            "checks_per_s": len(lat) / sum(lat),
            "check_p50_ms": statistics.median(lat) * 1e3,
            "check_p90_ms": quantile(lat, q / 100) * 1e3,
            "peak_rss_mb": peak(),
        },
        "info": {"tail_percentile": q, "samples": len(lat), "cycles": cycles,
                 "failed_checks": sorted(set(failed)), "scale": scale},
    }


def _pass(checks, tracer=None) -> tuple[list, float]:
    """Run one cycle, timing the reference loop before every check; return
    the results and the calibration scale of the pass."""
    cal, results = Calibration(), []
    for i, chk in enumerate(checks):
        cal.tick(force=True)
        if tracer is None:
            results.append(_run_check(chk))
            continue
        tracer.check = i
        tracer.install()
        try:
            results.append(_run_check(chk))
        finally:
            tracer.uninstall()
    cal.tick(force=True)
    return results, cal.factor()


def _calibrated_total(run: tuple[list, float]) -> float:
    results, scale = run
    return sum(dt for dt, _, _ in results) * scale


def cold_import_s() -> float:
    """Median in-process time of a cold ``import aldyn.cli``."""
    code = "import time; t = time.perf_counter(); import aldyn.cli; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


def traced(wl, name: str, seed: int) -> dict:
    """Cycle 0 untraced, traced, and untraced again; the per-layer figures
    come from the traced pass, the overhead from the comparison."""
    from perfbench.trace import Tracer

    build = getattr(wl, "build_in_process", wl.build)
    plain = [_calibrated_total(_pass(build(seed, 0)))]
    checks, tracer = build(seed, 0), Tracer()
    results, scale = _pass(checks, tracer)
    plain.append(_calibrated_total(_pass(build(seed, 0))))
    reported = set()
    failed = sum(not _judge(chk, out, err, reported) for chk, (dt, out, err) in zip(checks, results))
    traced_s = sum(dt for dt, _, _ in results)
    metrics = tracer.metrics(traced_s)
    metrics["cli.import_s"] = cold_import_s() if hasattr(wl, "build_in_process") else 0.0
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] *= scale
    metrics["trace_overhead_share"] = traced_s * scale / statistics.mean(plain) - 1
    tracer.write_spans(Path(".perfbench") / f"spans-{name}-{seed}.jsonl")
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
        "info": {"spans": len(tracer.spans), "scale": scale},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("warm", "setup", "run"), default="run")
    args = ap.parse_args(argv)

    if args.phase == "warm":
        import aldyn.cli  # noqa: F401  (compiles its bytecode for the cold children)
    wl = load(args.workload)
    checks = wl.build(args.seed, 0)
    print("ready", flush=True)
    if args.phase == "setup":
        # The reference loop right after set-up, in the same process, for
        # calibrating this set-up sample.
        print(statistics.median(reference_loop() for _ in range(3)), flush=True)
    if args.phase != "run":
        return 0
    if args.trace:
        result = traced(wl, args.workload, args.seed)
    else:
        result = timed(wl, args.seed, args.seconds, checks)
    exits = bad_input(wl)
    not_2 = {name: code for name, code in exits.items() if code != 2}
    result["correct"] = result["correct"] and 0 not in exits.values()
    if args.trace:
        result["metrics"]["cli.bad_input_not_2"] = len(not_2)
    result["info"].update(
        bad_inputs=len(exits), bad_input_not_2=not_2,
        python=platform.python_version(), numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
