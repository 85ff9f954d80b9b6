"""How the per-layer metrics are computed from spans.

Names, units and bounds of all metrics, and the workload names, are read
from ``BENCHMARK.json``.  Each per-layer metric here names the traced
functions it needs: when one of them no longer exists the metric is left out.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from spans import LAYERS, PassSpans

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

SAMPLE = "symmetry.sample"  # MatrixEnsemble.sample
STREAM = "ensemble.configuration_stream"
RAW = "ensemble.raw_information_sample"
DELTA = "symmetry.delta_report"
RANGE = "symmetry.rank_one_range"
CONFIG = "geometry.config_from_information_matrix"
AVG = "exponent.average_exponents"
MC = "exponent.mc_error_curve"
IPROJ = "exponent.iprojection_exponent"
CDM = "dependence.canonical_dependence_matrix"
SVD = "svd.jacobi_svd"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sampler_busy(ps):
    return ps.self_time(SAMPLE) + ps.self_time(STREAM)


def _accepted(ps):
    return ps.info_sum(SAMPLE, "rows") + ps.info_sum(STREAM, "rows")


def _svd_busy(n):
    return lambda ps, c: ps.busy(SVD, where=lambda s: s[6]["n"] == n)


# name -> (needed traced functions, f(PassSpans, Counter) -> value); the
# <layer>.errors counts and the trace.* and gate metrics are filled in
# separately.
PER_LAYER = {
    "ensemble.sampler.accepted": ((SAMPLE, STREAM), lambda ps, c: _accepted(ps)),
    "ensemble.sampler.attempts": ((RAW,), lambda ps, c: c[RAW]),
    "ensemble.sampler.accept_ratio": (
        (SAMPLE, STREAM, RAW), lambda ps, c: _ratio(_accepted(ps), c[RAW])),
    "ensemble.sampler.busy_s": ((SAMPLE, STREAM), lambda ps, c: _sampler_busy(ps)),
    "ensemble.sampler.draws_per_s": (
        (SAMPLE, STREAM), lambda ps, c: _ratio(_accepted(ps), _sampler_busy(ps))),
    "symmetry.delta_report.calls": ((DELTA,), lambda ps, c: ps.calls(DELTA)),
    "symmetry.delta_report.repeat_calls": ((DELTA,), lambda ps, c: ps.repeats(DELTA)),
    "symmetry.delta_report.self_s": ((DELTA,), lambda ps, c: ps.self_time(DELTA)),
    "symmetry.rank_one_range.calls": ((RANGE,), lambda ps, c: ps.calls(RANGE)),
    "symmetry.rank_one_range.busy_s": ((RANGE,), lambda ps, c: ps.busy(RANGE)),
    "symmetry.rank_one_range.unconverged": (
        (RANGE,), lambda ps, c: ps.info_sum(RANGE, "unconverged")),
    "geometry.config_from_information_matrix.calls": ((CONFIG,), lambda ps, c: ps.calls(CONFIG)),
    "geometry.config_from_information_matrix.busy_s": ((CONFIG,), lambda ps, c: ps.busy(CONFIG)),
    "exponent.average_exponents.calls": ((AVG,), lambda ps, c: ps.calls(AVG)),
    "exponent.average_exponents.self_s": ((AVG,), lambda ps, c: ps.self_time(AVG)),
    "exponent.average_exponents.configs_scored": (
        (AVG, STREAM), lambda ps, c: ps.info_sum(STREAM, "rows", where=ps.inside(AVG))),
    "exponent.mc_error_curve.busy_s": ((MC,), lambda ps, c: ps.busy(MC)),
    "exponent.mc_error_curve.trials": ((MC,), lambda ps, c: ps.info_sum(MC, "trials")),
    "exponent.mc_error_curve.trials_per_s": (
        (MC,), lambda ps, c: _ratio(ps.info_sum(MC, "trials"), ps.busy(MC))),
    "exponent.mc_error_curve.extensions": ((MC,), lambda ps, c: ps.info_sum(MC, "extensions")),
    "exponent.mc_error_curve.kept_ratio": (
        (MC,), lambda ps, c: _ratio(ps.info_sum(MC, "kept"), ps.info_sum(MC, "requested"))),
    "exponent.iprojection_exponent.busy_s": ((IPROJ,), lambda ps, c: ps.busy(IPROJ)),
    "dependence.canonical_dependence_matrix.calls": ((CDM,), lambda ps, c: ps.calls(CDM)),
    "dependence.canonical_dependence_matrix.repeat_calls": (
        (CDM,), lambda ps, c: ps.repeats(CDM)),
    "dependence.canonical_dependence_matrix.busy_s": ((CDM,), lambda ps, c: ps.busy(CDM)),
    "svd.jacobi_svd.calls": ((SVD,), lambda ps, c: ps.calls(SVD)),
    "svd.jacobi_svd.busy_s.n64": ((SVD,), _svd_busy(64)),
    "svd.jacobi_svd.busy_s.n96": ((SVD,), _svd_busy(96)),
    "svd.jacobi_svd.busy_s.n128": ((SVD,), _svd_busy(128)),
    "cli.load_config.busy_s": (("cli.load_config",), lambda ps, c: ps.busy("cli.load_config")),
    "model.make_channel.busy_s": (
        ("model.make_channel",), lambda ps, c: ps.busy("model.make_channel")),
    "model.apply_channels.calls": (
        ("model.apply_channels",), lambda ps, c: ps.calls("model.apply_channels")),
}
# Counts that must be nonzero on a workload: a zero means the wrapper did
# not see the calls (for example a function now imported under a new name).
_SWEEP = (
    "ensemble.sampler.attempts", "ensemble.sampler.accepted", "symmetry.delta_report.calls",
    "symmetry.rank_one_range.calls", "geometry.config_from_information_matrix.calls",
    "exponent.average_exponents.calls", "dependence.canonical_dependence_matrix.calls",
    "svd.jacobi_svd.calls", "model.apply_channels.calls",
)
EXPECTED_WORK = {
    "demo_sweep": _SWEEP,
    "seeded_exponent_sweep": _SWEEP,
    "wide_features": ("dependence.canonical_dependence_matrix.calls", "svd.jacobi_svd.calls"),
    "mc_exponent_check": ("exponent.mc_error_curve.trials",),
}


def pass_layer_metrics(tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, leaving out absent ones."""
    ps = PassSpans(tracer.pass_spans(pass_id))
    counts = tracer.counts[pass_id]
    errors = tracer.errors[pass_id]
    out = {}
    for name, (needs, fn) in PER_LAYER.items():
        if any(n in tracer.missing for n in needs):
            continue
        out[name] = float(fn(ps, counts))
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(errors[layer])
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    names = per_pass[0].keys()
    return {n: statistics.median(p[n] for p in per_pass) for n in names}
