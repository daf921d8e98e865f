"""The pkt benchmark: one workload, one seed, one fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else, and the run exits 2 without a result when
it is missing.  BLAS is pinned to one thread before numpy loads, so the
load is a closed loop of one caller in one process with no extra
threads.

Set-up (input arrays, input files, the initial student) is repeated at
least ``SETUP_MIN_REPS`` times, and until ``SETUP_SHARE`` of ``--seconds``
is sampled, and reported as its median, ``setup_s``.
Then passes of the workload's operations run back to back until their
timed total reaches ``--seconds`` (and at least ``MIN_PASSES`` passes).
Checks run between passes, untimed.  Each untraced pass is a window of
its own for resident memory: the high-water mark is reset to the
current RSS just before the pass (``/proc/self/clear_refs``) and read
just after it (``VmHWM``), so neither set-up nor the checks count.

With ``--trace 0`` the metrics are the end-to-end ones:
``setup_s``, ``wall_s`` (median seconds of one pass), ``rows_per_s``
(median input rows the pass's operations consume per second; on the
``transfer_*`` workloads that is the rows ``train`` consumes) and
``peak_rss_mb`` (the largest peak resident memory of this process
during an untraced pass; where the kernel refuses the reset it is the
process's peak since start, and the record says so).
``failed_ratio`` = failed / attempted operations is printed on its own
line and carried by the result's ``failed`` and ``attempted`` counts.
With ``--trace 1`` one untimed warm-up pass runs first, then passes
alternate untraced and traced, the metrics are ``tracer.PER_LAYER``, and
the spans are written to
``.perfbench/trace-<workload>-seed<N>.jsonl``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
MIN_PASSES = 2
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.2  # keep repeating cheap set-ups until this share of --seconds is sampled
SETUP_MAX_REPS = 100

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="pkt benchmark: one workload, one seed")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed phase length")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shapes exist for the benchmark's own tests")
    return p.parse_args(argv)


def machine_record(blas_threads: str) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


def reset_peak_rss() -> bool:
    """Lower this process's RSS high-water mark to its current RSS; False where Linux refuses."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The RSS high-water mark (``VmHWM``) since the last reset, or since the process began."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(workload, shape: dict, seed: int, seconds: float, trace: bool, out_dir: Path,
        blas_threads: str) -> dict:
    import tracer as tracing

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setup_times, inputs = [], None
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_SHARE * seconds and len(setup_times) < SETUP_MAX_REPS):
            inputs = None
            t0 = perf_counter()
            inputs = workload.setup(shape, seed, workdir)
            setup_times.append(perf_counter() - t0)

        tracer = tracing.Tracer() if trace else None
        # Tracing warms up on an untimed pass, so first-pass costs fall on neither side of the overhead.
        warmup = 1 if trace else 0
        warmup_s, untraced_s, traced_s, rates, peaks = [], [], [], [], []
        peak_windowed = True
        attempted = failed = 0
        first: dict[int, tuple[str, bool]] = {}
        while len(untraced_s) + len(traced_s) < MIN_PASSES or sum(untraced_s) + sum(traced_s) < seconds:
            index = len(warmup_s) + len(untraced_s) + len(traced_s)
            timed = index >= warmup
            traced = trace and timed and (index - warmup) % 2 == 1
            ops = workload.ops(shape, inputs)
            results = []
            if timed and not traced:
                peak_windowed = reset_peak_rss() and peak_windowed
            with tracer.traced_pass(f"{workload.name}:{seed}:{index}") if traced else nullcontext():
                t0 = perf_counter()
                for op in ops:
                    with tracer.span(op.span) if traced and op.span else nullcontext():
                        try:
                            results.append((True, op.run()))
                        except Exception:
                            traceback.print_exc()
                            results.append((False, None))
                elapsed = perf_counter() - t0
            if not timed:
                warmup_s.append(elapsed)
            elif traced:
                traced_s.append(elapsed)
            else:
                untraced_s.append(elapsed)
                peaks.append(peak_rss_mb())
                rates.append(sum(op.rows for op in ops) / elapsed)

            for k, (op, (ran, result)) in enumerate(zip(ops, results)):
                attempted += 1
                ok = ran and _passes(workload, shape, inputs, first, k, op, result)
                failed += not ok

        if trace:
            metrics = tracer.metrics()
            metrics["tracing.wall_s"] = statistics.median(traced_s)
            metrics["tracing.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
            tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
            units = tracing.PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(untraced_s),
                "rows_per_s": statistics.median(rates),
                "peak_rss_mb": max(peaks),
            }
            units = END_TO_END
        return {
            "record": {"workload": workload.name, "seed": seed, "shape": shape, "seconds": seconds,
                       "trace": int(trace), "warmup_pass_s": warmup_s, "untraced_pass_s": untraced_s,
                       "traced_pass_s": traced_s, "pass_peak_rss_mb": peaks,
                       "peak_rss_scope": "untraced passes" if peak_windowed else "whole process",
                       "setup_rep_s": setup_times, "machine": machine_record(blas_threads),
                       "load": "closed loop, 1 caller, 1 process"},
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _passes(workload, shape, inputs, first, k, op, result) -> bool:
    """Check an operation's first output; later outputs must match it byte for byte."""
    fingerprint = workload.fingerprint(inputs, op, result)
    if k not in first:
        try:
            problems = workload.check(shape, inputs, op, result)
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {exc!r}"]
        for problem in problems:
            print(f"check failed: {workload.name} {op.name}: {problem}", file=sys.stderr)
        first[k] = (fingerprint, not problems)
    expected, ok = first[k]
    if fingerprint != expected:
        print(f"check failed: {workload.name} {op.name}: output differs from the first pass", file=sys.stderr)
        return False
    return ok


def main(argv=None, out_dir: Path | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pkt" / "__init__.py").is_file():
        print(f"perfbench: no pkt package under {src}", file=sys.stderr)
        return 2
    # A pin only takes before numpy loads; under pytest it has loaded already.
    blas_threads = "unpinned (numpy loaded first)"
    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = BLAS_THREADS
        blas_threads = BLAS_THREADS
    sys.path.insert(0, str(src))
    import pkt
    import workloads

    if Path(pkt.__file__).resolve().parent != (src / "pkt").resolve():
        print(f"perfbench: pkt was imported from {pkt.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = out_dir or ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    res = run(workload, workload.sizes[args.size], args.seed, args.seconds, bool(args.trace), out_dir,
              blas_threads)

    print(json.dumps({"record": res["record"]}))
    for name, metric in res["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_ratio {res['failed'] / res['attempted']!r} ratio ({res['failed']}/{res['attempted']})")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
