"""urbansched benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload city_rollout --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run measures the workload for `--seconds` and reports
the end-to-end metrics. With `--trace 1` it runs a fixed amount of the
workload twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead. Either way it checks the program's
outputs, prints a readable summary and the run record, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

WORKLOAD_NAMES = ["train_bike5", "city_rollout", "bus_corridor",
                  "forecast_city"]
END_TO_END_UNITS = {
    "episodes_per_s": "1/s", "steps_per_s": "1/s", "step_ms_p50": "ms",
    "stations_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}
# Printed in the summary and the run record but left out of the result
# line: its run-to-run spread on a noisy host exceeds any bound allowed.
SUMMARY_ONLY_UNITS = {"step_ms_p99": "ms"}


def import_program():
    """Import urbansched from this checkout's src/ and nowhere else."""
    if not (SRC / "urbansched" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/urbansched")
    sys.path[:0] = [str(SRC), str(HERE)]
    import urbansched
    if Path(urbansched.__file__).resolve().parent != SRC / "urbansched":
        raise SystemExit(f"error: imported urbansched from "
                         f"{urbansched.__file__}, not {SRC}")
    return urbansched


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the program and set the
    workload up, from process start to exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def blas_info() -> dict:
    import ctypes
    import glob
    import numpy as np
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"),
            "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def run_record(args, sizes: dict) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(),
            "git_revision": git_revision(), "processes": 1,
            "sizes": sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    package = import_program()
    import tracer as tracing
    import workloads

    ledger = workloads.Ledger()
    bench = workloads.WORKLOADS[args.workload](args.seed)
    workloads.check_pins(ledger, bench.pin_values(ledger))
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.trace == 0:
        setups = setup_seconds(args.workload, args.seed)
        measured = bench.measure(ledger, seconds=args.seconds)
        for check in measured.deferred:
            check()
        metrics = dict(measured.metrics)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {**END_TO_END_UNITS, **SUMMARY_ONLY_UNITS}
    else:
        plain = bench.measure(ledger, count=bench.trace_count)
        tracer = tracing.Tracer(package, run_id)
        tracer.install()
        try:
            traced = bench.measure(ledger, count=bench.trace_count)
        finally:
            tracer.uninstall()
        for check in plain.deferred + traced.deferred:
            check()
        metrics = tracer.layer_metrics()
        metrics["trace_overhead"] = traced.op_s / plain.op_s - 1.0
        units = tracing.units(metrics)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{run_id}.jsonl")

    record = run_record(args, bench.sizes())
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{run_id}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "metrics": metrics,
                   "failures": ledger.failures}, fh, indent=1)
    print("run record: " + json.dumps(record))
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    error_rate = ledger.failed / ledger.attempted
    print(f"{args.workload} seed={args.seed}: {ledger.attempted} operations, "
          f"{ledger.failed} failed, error_rate={error_rate:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in SUMMARY_ONLY_UNITS},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(2)
