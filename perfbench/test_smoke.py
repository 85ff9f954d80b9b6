"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced.  Each run must pass its output
checks, emit every metric that BENCHMARK.json names with its unit, and (when
traced) write spans whose children fall inside their parents.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import SPEC, WORKLOADS  # noqa: E402

SEED = 5


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    res = _run(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_metrics_and_nested_spans(workload):
    res = _run(workload, 1)
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == want
    value = {n: m["value"] for n, m in res["metrics"].items()}
    assert value["trace.zero_call_flags"] == 0
    # the shares the workloads were chosen for
    if workload == "demo_sweep":
        assert value["symmetry.delta_report.calls"] == 8
        assert value["symmetry.delta_report.repeat_calls"] == 6
    if workload == "seeded_exponent_sweep":
        assert value["symmetry.delta_report.repeat_calls"] == 0
    if workload in ("wide_features", "mc_exponent_check"):
        assert value["ensemble.sampler.accepted"] == 0
        assert value["ensemble.sampler.attempts"] == 0

    spans = [json.loads(line) for line in
             (ROOT / ".perfbench_out" / "traces" / f"{workload}-seed{SEED}.jsonl").open()]
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["pass"] == s["pass"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
