"""maxcorr benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Run from the root of a maxcorr checkout; the program is imported from its
src/.  Each workload runs closed-loop in its own process with BLAS pinned to
one thread (see worker.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit
status is nonzero when an output check failed or a workload could not run.
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

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 8  # extra fresh processes that only set up, for a median setup_s

sys.path.insert(0, str(HERE))
from metrics import UNITS, WORKLOADS  # noqa: E402


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 deadline: float) -> dict:
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = ROOT / ".perfbench_out"
    base = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            work = out / f"{name}-{os.getpid()}-setup{i}"
            setups.append(_worker(base + ["--setup-only", "--work", str(work)], env,
                                  deadline)["setup_s"])
    work = out / f"{name}-{os.getpid()}"
    extra = ["--trace-out", str(out / "traces" / f"{name}-seed{seed}.jsonl")] if trace else []
    res = _worker(base + ["--seconds", str(seconds), "--trace", str(int(trace)),
                          "--work", str(work)] + extra, env, deadline)
    res["setup_samples"] = setups + [res["setup_s"]]
    res["seed"] = seed
    res["env"]["git_sha"] = git_sha(ROOT)
    return res


def end_to_end(res: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(res["wall_s"]),
        "cpu_s": statistics.median(res["cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(res["setup_samples"]),
    }


def result_line(res: dict, trace: bool) -> dict:
    values = res["per_layer"] if trace else end_to_end(res)
    metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def report(res: dict, trace: bool) -> None:
    """Human-readable lines: environment, failures, metrics with units."""
    print(json.dumps({"workload": res["workload"], "seed": res["seed"], "env": res["env"],
                      "pass_wall_s": res["wall_s"], "traced_pass_wall_s":
                      res.get("traced_wall_s", []), "setup_samples_s": res["setup_samples"]}))
    for line in res["failures"]:
        print(f"FAILED {res['workload']} {line}")
    frac = res["failed"] / res["attempted"]
    print(f"{res['workload']:<24} ops_failed_frac {frac:.4g} "
          f"({res['failed']} of {res['attempted']} operations)")
    if not trace:
        for name, value in end_to_end(res).items():
            print(f"{res['workload']:<24} {name:<16} {value:12.6g} {UNITS[name]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "maxcorr" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a maxcorr checkout (no src/maxcorr); "
              "run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        try:
            res = run_workload(name, args.seed, args.seconds, trace, args.tiny, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name} did not produce a result: {exc}", file=sys.stderr)
            return 1
        report(res, trace)
        results.append(res)

    if len(results) == 1:
        line = result_line(results[0], trace)
    else:
        line = {"correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{n}": m for r in results
                            for n, m in result_line(r, trace)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
