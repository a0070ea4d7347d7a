"""Run one aldyn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; paths are resolved from this file, and the program under
test is the checkout's ``src/aldyn``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it has the per-layer metrics.  The lines
before it give the same figures for reading, the percentile and sample
count behind check_p90_ms, and the Python and numpy versions and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench.workloads import NAMES  # noqa: E402  (needs ROOT on sys.path)

# One thread for BLAS and OpenMP here and in every child; a fixed hash seed
# makes set iteration, and so the traced counts, repeat exactly.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 9  # set-up-only worker processes
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args: argparse.Namespace, phase: str):
    """Start a worker; return it and the seconds until it printed ``ready``."""
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--phase", phase,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError(f"{phase} worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, timeout=CHILD_TIMEOUT_S) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def _setup_samples(args, count) -> list[float]:
    """Calibrated set-up times: each worker times the reference loop right
    after its set-up (see perfbench/calibrate.py)."""
    from perfbench.calibrate import NOMINAL_S

    samples = []
    for _ in range(count):
        proc, ready = _worker(args, "setup")
        reference = float(_finish(proc))
        samples.append(ready * NOMINAL_S / reference)
    return samples


def measure(args: argparse.Namespace) -> dict:
    """Set-up is sampled before and after the measuring worker, so that its
    median spans the whole run."""
    proc, _ = _worker(args, "warm")
    _finish(proc)
    setup_runs = 0 if args.trace else SETUP_SAMPLES
    setup = _setup_samples(args, setup_runs // 2)
    proc, _ = _worker(args, "run")
    out = _finish(proc)
    setup += _setup_samples(args, setup_runs - len(setup))
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def report(args: argparse.Namespace, result: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    info = result["info"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# python {info['python']}  numpy {info['numpy']}  nproc {info['nproc']}")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34s} {value:>16.6g} {m['unit']}")
    if "tail_percentile" in info:
        print(f"# check_p90_ms is the p{info['tail_percentile']} of {info['samples']} samples "
              f"({info['cycles']} cycles); setup_s is the median of {SETUP_SAMPLES} starts")
    print(f"# times are calibrated: raw time x {info['scale']:.4f} (see perfbench/calibrate.py)")
    share = result["failed"] / result["attempted"]
    print(f"# failed_share {share:.4f} ({result['failed']} of {result['attempted']} checks)"
          + (f": {', '.join(info['failed_checks'])}" if info.get("failed_checks") else ""))
    if info["bad_inputs"]:
        not_2 = info["bad_input_not_2"]
        print(f"# bad input: {len(not_2)} of {info['bad_inputs']} malformed invocations (untimed) "
              "exit other than 2" + "".join(f"; {k} exits {v}" for k, v in not_2.items()))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="validate the wrappers, counters and oracles, then exit")
    args = ap.parse_args(argv)
    if not (SRC / "aldyn" / "__init__.py").is_file():
        print(f"benchmark: no aldyn sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    if args.self_test:
        from perfbench.selftest import main as self_test

        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
