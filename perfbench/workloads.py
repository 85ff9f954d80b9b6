"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A workload is built once by ``build(name, seed, workdir, tiny)`` (the set-up
that ``setup_s`` times) and then run pass after pass with ``run_pass()``.
A pass is closed-loop: one caller in one process sends each call only after
the previous one returned.  Every pass returns one ``Op`` per operation (a
sweep point, a feature extraction or a Monte Carlo pair) saying whether it
raised or failed its output check; the checks run inside the timed pass.

The seed sets ``[sampling] seed``, ``generator_seed`` and the Monte Carlo
seeds, so one seed always gives the same inputs.  ``DEFAULT_SEED`` also
reproduces the reference rows in ``reference/`` and criterion 7's pairs.
"""

from __future__ import annotations

import csv
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maxcorr import cli, exponent
from maxcorr.ensemble import AttributeEnsembleSpec, information_ensemble
from maxcorr.geometry import (
    InformationMatrix,
    config_from_information_matrix,
    normalize_features,
)
from maxcorr.model import Pmf, uniform_pmf

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0

# Simulate rows at the default seed must match the recorded reference up to
# last-place float noise carried through the pipeline (ROADMAP aim 2).
REF_RTOL = 1e-9
REF_ATOL = 1e-15
SIGMA_ATOL = 1e-10  # features: sigmas against np.linalg.svd of the CDM
GRAM_ATOL = 1e-8  # features: orthonormality of f and g under their base

# Criterion 7 gates each Monte Carlo exponent at 2 stderr.  At the default
# seed the pairs are criterion 7's own and that gate applies as written.  At
# other seeds a 2-stderr miss is an expected statistical event (26 of 240
# random pairs missed it, the worst by 3.7 stderr), so there an operation
# fails only on a gross miss; 2-stderr misses are still counted.
MC_GATE_Z = 2.0
MC_GROSS_Z = 6.0


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


def _floats(row: dict, keys) -> list[float]:
    return [float(row[k]) for k in keys]


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# simulate workloads
# ---------------------------------------------------------------------------

SIM_VALUE_COLS = tuple(cli.SIM_COLUMNS.split(",")[6:])
SIM_NONNEG_COLS = tuple(c for c in SIM_VALUE_COLS if c.startswith(("e_", "stderr_")))


def _uniform_t(n: int) -> str:
    """T = J/n - I, the demo's symmetric channel direction, as INI rows."""
    t = np.full((n, n), 1.0 / n) - np.eye(n)
    return "\n".join("    " + " ".join(repr(float(v)) for v in row) for row in t)


def _seeded_config(n: int, seed: int, *, eta_x: str, eta_y: str, attribute_size: int,
                   s: str, k: str, n_configs: int, delta_samples: int) -> str:
    t = _uniform_t(n)
    return (
        "[chain]\ngenerator = seeded\n"
        f"x_size = {n}\ny_size = {n}\nfloor = 0.15\ngenerator_seed = {seed}\n\n"
        f"[channel_x]\nt =\n{t}\neta_grid = {eta_x}\n\n"
        f"[channel_y]\nt =\n{t}\neta_grid = {eta_y}\n\n"
        f"[ensemble]\nattribute_size = {attribute_size}\nrho = 0.5\nrejection_cap = 1000\n\n"
        f"[sweep]\nepsilon = 0.05\nk = {k}\ns = {s}\n\n"
        f"[sampling]\nn_configs = {n_configs}\ndelta_samples = {delta_samples}\n"
        f"seed = {seed}\nworkers = 1\n"
    )


class SimulateWorkload:
    """`maxcorr simulate --fresh --jobs 1` on one config; one op per sweep row."""

    def __init__(self, name: str, config: Path, out: Path, seed: int, tiny: bool):
        self.name = name
        self.config = config
        self.out = out
        cfg = cli.load_config(config)
        self.expected_ids = [
            f"{i:04d}" for i in range(
                len(cfg.epsilon_grid) * len(cfg.k_grid) * len(cfg.s_grid)
                * len(cfg.eta1_grid) * len(cfg.eta2_grid)
            )
        ]
        self.reference = None
        if seed == DEFAULT_SEED and not tiny:
            ref = _read_csv(REFERENCE / f"{name}.csv")
            self.reference = {r["sweep_id"]: r for r in ref}

    def run_pass(self) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["simulate", "--config", str(self.config), "--out", str(self.out),
                "--fresh", "--jobs", "1"]
        try:
            code = cli.main(argv)
            rows = {r["sweep_id"]: r for r in _read_csv(self.out / "simulate.csv")}
        except Exception as exc:  # every row of a crashed pass counts as failed
            return [Op(i, False, f"{type(exc).__name__}: {exc}") for i in self.expected_ids]
        ops = []
        for sid in self.expected_ids:
            row = rows.get(sid)
            if code != 0 or row is None:
                ops.append(Op(sid, False, f"exit {code}, row present: {row is not None}"))
            else:
                ops.append(self._check_row(sid, row))
        return ops

    def _check_row(self, sid: str, row: dict) -> Op:
        vals = _floats(row, SIM_VALUE_COLS)
        if not all(math.isfinite(v) for v in vals):
            return Op(sid, False, "non-finite value")
        if min(_floats(row, SIM_NONNEG_COLS)) < 0:
            return Op(sid, False, "negative exponent or stderr")
        if self.reference is not None:
            ref = _floats(self.reference[sid], SIM_VALUE_COLS)
            for col, got, want in zip(SIM_VALUE_COLS, vals, ref):
                if abs(got - want) > REF_ATOL + REF_RTOL * abs(want):
                    return Op(sid, False, f"{col} = {got!r}, reference {want!r}")
        return Op(sid, True)


def _demo_sweep(seed: int, work: Path, tiny: bool) -> SimulateWorkload:
    text = (CONFIGS / "demo.ini").read_text()
    text = re.sub(r"(?m)^seed = .*$", f"seed = {seed}", text)
    if tiny:
        text = re.sub(r"(?m)^n_configs = .*$", "n_configs = 4", text)
        text = re.sub(r"(?m)^delta_samples = .*$", "delta_samples = 300", text)
    shutil.copy(CONFIGS / "demo_joint.txt", work / "demo_joint.txt")
    path = work / "demo.ini"
    path.write_text(text)
    return SimulateWorkload("demo_sweep", path, work / "out", seed, tiny)


def _seeded_exponent_sweep(seed: int, work: Path, tiny: bool) -> SimulateWorkload:
    if tiny:
        text = _seeded_config(6, seed, eta_x="0.05", eta_y="0.0", attribute_size=3,
                              s="0.0 0.4", k="2", n_configs=20, delta_samples=300)
    else:
        text = _seeded_config(16, seed, eta_x="0.05", eta_y="0.0", attribute_size=6,
                              s="0.0 0.4 0.8", k="3", n_configs=2000,
                              delta_samples=4000)
    path = work / "seeded.ini"
    path.write_text(text)
    return SimulateWorkload("seeded_exponent_sweep", path, work / "out", seed, tiny)


# ---------------------------------------------------------------------------
# wide_features
# ---------------------------------------------------------------------------


def _cdm(probs: np.ndarray) -> np.ndarray:
    """Canonical dependence matrix of a |Y| x |X| joint table, by the formula."""
    px = probs.sum(axis=0)
    py = probs.sum(axis=1)
    return (probs - np.outer(py, px)) / np.sqrt(np.outer(py, px))


class FeaturesWorkload:
    """`maxcorr features --k 3` on generated joints; one op per joint."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.cases = []
        for n in ((8, 12, 16) if tiny else (64, 96, 128)):
            path = work / f"wide{n}.ini"
            path.write_text(_seeded_config(
                n, seed, eta_x="0.0", eta_y="0.0", attribute_size=3, s="0.0",
                k="3", n_configs=1, delta_samples=2,
            ))
            probs = np.array(cli.load_config(path).joint.probs)
            ref_sigmas = np.linalg.svd(_cdm(probs), compute_uv=False)
            self.cases.append((n, path, work / f"out{n}", probs, ref_sigmas))

    def run_pass(self) -> list[Op]:
        ops = []
        for n, path, out, probs, ref_sigmas in self.cases:
            shutil.rmtree(out, ignore_errors=True)
            name = f"features_n{n}"
            try:
                code = cli.main(["features", "--config", str(path), "--out", str(out),
                                 "--k", "3", "--jobs", "1"])
                ops.append(self._check(name, code, out, probs, ref_sigmas))
            except Exception as exc:
                ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))
        return ops

    @staticmethod
    def _check(name, code, out, probs, ref_sigmas) -> Op:
        if code != 0:
            return Op(name, False, f"exit {code}")
        sig_lines = [ln for ln in (out / "sigmas.txt").read_text().splitlines()
                     if ln.startswith("sigma ")]
        sigmas = np.array([float(ln.split(":")[1]) for ln in sig_lines])
        if sigmas.shape != ref_sigmas.shape:
            return Op(name, False, f"{sigmas.size} sigmas, expected {ref_sigmas.size}")
        sig_err = float(np.abs(sigmas - ref_sigmas).max())
        if sig_err > SIGMA_ATOL:
            return Op(name, False, f"sigma error {sig_err:.2e}")
        rows = _read_csv(out / "features.csv")
        f = np.array([[float(r[c]) for c in r if c.startswith("f_")] for r in rows]).T
        g = np.array([[float(r[c]) for c in r if c.startswith("g_")] for r in rows]).T
        for h, base in ((f, probs.sum(axis=0)), (g, probs.sum(axis=1))):
            gram = (h * base[:, None]).T @ h
            gram_err = float(np.abs(gram - np.eye(h.shape[1])).max())
            mean_err = float(np.abs(base @ h).max())
            if h.shape[1] != 3 or gram_err > GRAM_ATOL or mean_err > GRAM_ATOL:
                return Op(name, False, f"features not orthonormal: gram {gram_err:.2e}, "
                                       f"mean {mean_err:.2e}, k {h.shape[1]}")
        return Op(name, True)


# ---------------------------------------------------------------------------
# mc_exponent_check
# ---------------------------------------------------------------------------


class McWorkload:
    """Criterion 7's Monte Carlo half as library calls; one op per pair.

    Calls go through the ``maxcorr.exponent`` module so the tracer sees them.

    At the default seed the six pairs and their MC seeds are the first six
    of criterion 7 (ensemble seed 17, feature seed 4242, MC seeds 2500+i).
    """

    N_FACTORS = np.array([1.5, 2.5, 3.5, 5.0, 7.0])

    def __init__(self, seed: int, tiny: bool):
        base = uniform_pmf(tuple("abcd"))
        prior = uniform_pmf(("w0", "w1", "w2"))
        spec = AttributeEnsembleSpec(base=base, attribute_size=3, epsilon=0.08, rho=1.0)
        count = 2 if tiny else 6
        self.trials = 4_000 if tiny else 200_000
        self.gate = MC_GATE_Z if seed == DEFAULT_SEED and not tiny else MC_GROSS_Z
        phis = information_ensemble(spec).sample(count, seed=17 + seed)
        rng = np.random.default_rng(4242 + seed)
        self.pairs = []
        for i in range(count):
            fs = normalize_features(rng.normal(size=(4, 2)), base)
            info = InformationMatrix(phi=phis[i], epsilon=0.08, base=base)
            c = config_from_information_matrix(base, prior, info, 0.08)
            p1 = Pmf(base.labels, c.conditionals[:, 0])
            p2 = Pmf(base.labels, c.conditionals[:, 1])
            self.pairs.append((p1, p2, fs, 2500 + 10 * seed + i))
        self.gate_misses = 0  # pairs beyond MC_GATE_Z in the last pass

    def run_pass(self) -> list[Op]:
        ops = []
        self.gate_misses = 0
        for i, (p1, p2, fs, mc_seed) in enumerate(self.pairs):
            name = f"pair{i}"
            try:
                ipe = exponent.iprojection_exponent(p1, p2, fs)
                n_grid = np.unique((self.N_FACTORS / ipe).astype(int))
                curve = exponent.mc_error_curve(p1, p2, fs, n_grid, self.trials,
                                               seed=mc_seed)
            except Exception as exc:
                ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))
                continue
            z = abs(curve.exponent - ipe) / curve.stderr
            self.gate_misses += z > MC_GATE_Z
            ok = math.isfinite(z) and z <= self.gate
            ops.append(Op(name, ok, f"E_mc {curve.exponent:.5g}, E_ip {ipe:.5g}, z {z:.2f}"))
        return ops


def build(name: str, seed: int, work: Path, tiny: bool = False):
    work.mkdir(parents=True, exist_ok=True)
    if name == "demo_sweep":
        return _demo_sweep(seed, work, tiny)
    if name == "seeded_exponent_sweep":
        return _seeded_exponent_sweep(seed, work, tiny)
    if name == "wide_features":
        return FeaturesWorkload(seed, work, tiny)
    if name == "mc_exponent_check":
        return McWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
