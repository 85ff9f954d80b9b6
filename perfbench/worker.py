"""One workload in its own process: set up, then timed passes, then a report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny]

Started by run.py, which sets PYTHONPATH to the checkout's src/.  Prints
one JSON object on its last line of standard output.
"""

from time import perf_counter

T0 = perf_counter()  # before numpy and maxcorr are imported: setup_s starts here

import os  # noqa: E402

PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and maxcorr)
from metrics import WORKLOADS  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = f"{blas.get('name')} {blas.get('version')}: " \
                      f"{blas.get('openblas configuration', '')}".strip()
    except (TypeError, KeyError):
        blas_config = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": " ".join(blas_config.split()),
        "nproc": os.cpu_count(),
        "thread_pin": PIN,
    }


def timed_pass(wl) -> tuple[float, float, list]:
    c0, t0 = _cpu(), perf_counter()
    ops = wl.run_pass()
    return perf_counter() - t0, _cpu() - c0, ops


def run(wl, name: str, setup_s: float, seconds: float, trace: bool,
        trace_out: Path | None) -> dict:
    walls, cpus, traced_walls, failures = [], [], [], []
    attempted = failed = 0
    layer_passes = []
    tracer = None
    if trace:
        from metrics import pass_layer_metrics
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    deadline = perf_counter() + seconds
    pass_id = 0
    # Traced runs alternate untraced and traced passes so that the overhead
    # is the difference of two medians taken over the same minutes.
    while True:
        traced = trace and pass_id % 2 == 1
        if traced:
            tracer.begin_pass(pass_id)
        wall, cpu, ops = timed_pass(wl)
        if traced:
            tracer.end_pass()
            metrics = pass_layer_metrics(tracer, pass_id)
            metrics["exponent.mc_error_curve.gate_2se_misses"] = float(
                getattr(wl, "gate_misses", 0))
            layer_passes.append(metrics)
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                failures.append(f"pass {pass_id} {op.name}: {op.detail}")
        pass_id += 1
        # Stop once another pass would be expected to end more than half a
        # pass after the deadline, so a run lasts about `seconds` whatever
        # the pass length.
        typical = statistics.median(walls + traced_walls)
        if perf_counter() + typical / 2 > deadline and (not trace or traced_walls):
            break
    result = {
        "workload": name,
        "setup_s": setup_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    if trace:
        tracer.uninstall()
        from metrics import EXPECTED_WORK, median_metrics

        layer = median_metrics(layer_passes)
        zero = [m for m in EXPECTED_WORK[name] if layer.get(m) == 0.0]
        for m in zero:
            print(f"warning: {m} is 0 on {name}, where work is predicted: "
                  "the tracer is not wired to the calls", file=sys.stderr)
        for m in sorted(tracer.missing):
            print(f"warning: traced function {m} no longer exists; "
                  "its metrics are absent", file=sys.stderr)
        layer["trace.zero_call_flags"] = float(len(zero))
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["per_layer"] = layer
        result["traced_wall_s"] = traced_walls
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_out)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--work", required=True, help="scratch directory for outputs")
    p.add_argument("--trace-out", default=None, help="write spans here (JSON lines)")
    args = p.parse_args(argv)

    work = Path(args.work)
    try:
        wl = workloads.build(args.workload, args.seed, work, args.tiny)
        setup_s = perf_counter() - T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = run(wl, args.workload, setup_s, args.seconds, bool(args.trace),
                         Path(args.trace_out) if args.trace_out else None)
            result["env"] = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
