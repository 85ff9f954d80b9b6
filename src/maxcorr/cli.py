"""Experiment harness: config parsing, subcommands, seeded reproducibility.

Config files use INI syntax (configparser); matrices are whitespace-separated
rows on indented continuation lines.  CONFIG_KEYS declares every section and
key with its default; any other section or key is refused.

Every result file is written by `_write_text` or `_write_csv`, so it starts
with `# config_hash:` and `# seed:` comment lines; floats are serialized with
17 significant digits and rows are sorted, so a rerun with identical
(config, seed) is byte-identical.  `ingest`'s joint.txt carries the sample
file's digest as `# config_hash:` and a `# records:` line.  `simulate` journals
each finished sweep point to simulate.partial.jsonl and resumes from it;
journal rows carry their (config_hash, seed) and are never reused under
another pair.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import astuple, dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, checks
from .dependence import CdmMatrix, canonical_dependence_matrix, select_features
from .ensemble import AttributeEnsembleSpec, information_ensemble, sample_configuration
from .errors import MaxcorrError, ValidationError
from .exponent import average_exponents, exponent_bound
from .geometry import normalize_features
from .model import (
    FLOAT_FMT,
    Channel,
    JointPmf,
    apply_channels,
    dump_joint,
    iter_sample_pairs,
    joint_from_samples,
    load_joint,
    make_channel,
    parse_matrix,
    require_finite,
)
from .symmetry import MomentSymmetryReport, delta_report, moment_symmetry_report

OUT_ROOT_ENV = "MAXCORR_OUT_ROOT"

# The config format, {section: {key: default}}; None marks a key with no
# default.  [chain] takes `joint = <path>` (relative to the config file) or
# `generator = seeded` with x_size and y_size; [sampling] workers accepts
# only 1 (one seeded stream per seed).
CONFIG_KEYS = {
    "chain": {"joint": None, "generator": None, "x_size": None, "y_size": None,
              "floor": "0.15", "generator_seed": "314159"},
    "channel_x": {"t": None, "eta_grid": "0.0"},
    "channel_y": {"t": None, "eta_grid": "0.0"},
    "ensemble": {"attribute_size": "3", "rho": "1.0", "rejection_cap": "1000"},
    "sweep": {"epsilon": "0.05", "k": "1", "s": "0.0"},
    "sampling": {"n_configs": "100", "delta_samples": "20000", "seed": "0", "workers": "1"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its provenance hash."""

    joint: JointPmf
    t_x: np.ndarray
    t_y: np.ndarray
    eta1_grid: tuple[float, ...]
    eta2_grid: tuple[float, ...]
    attribute_size: int
    rho: float
    rejection_cap: int
    epsilon_grid: tuple[float, ...]
    k_grid: tuple[int, ...]
    s_grid: tuple[float, ...]
    n_configs: int
    delta_samples: int
    seed: int
    config_hash: str
    raw_text: str

    def channel_x(self, eta: float) -> Channel:
        return make_channel(self.t_x, eta, self.joint.x_labels)

    def channel_y(self, eta: float) -> Channel:
        return make_channel(self.t_y, eta, self.joint.y_labels)

    def ensemble(self, side: str, epsilon: float, s: float) -> AttributeEnsembleSpec:
        """The attribute ensemble of X (`side` "x", the U side) or of Y ("y", V)."""
        base = self.joint.marginal_x() if side == "x" else self.joint.marginal_y()
        return AttributeEnsembleSpec(
            base=base, attribute_size=self.attribute_size,
            epsilon=epsilon, anisotropy=s, rho=self.rho,
            rejection_cap=self.rejection_cap,
        )


def _grid(text: str, kind) -> tuple:
    values = tuple(kind(v) for v in text.split())
    if not values:  # an empty axis would sweep no point
        raise ValueError("needs at least one value")
    return values


_floats = functools.partial(_grid, kind=float)
_ints = functools.partial(_grid, kind=int)


def _option(parser: configparser.ConfigParser, section: str, key: str, parse):
    """`parse` of `[section] key`, or of its CONFIG_KEYS default when absent.

    A missing key without a default or a value `parse` rejects raises a
    ValidationError that names the key and, when it is one line, the value;
    a multi-line value (a matrix) is not echoed, as it may be 128 x 128.
    """
    if parser.has_option(section, key):
        text = parser.get(section, key)
    elif CONFIG_KEYS[section][key] is None:
        raise ValidationError(f"[{section}] {key} is missing")
    else:
        text = CONFIG_KEYS[section][key]
    try:
        return parse(text)
    except (ValueError, OSError) as exc:
        value = "" if "\n" in text else f" = {text!r}"
        raise ValidationError(f"[{section}] {key}{value}: {exc}") from None


def _channel_t(text: str) -> np.ndarray:
    """The read-only T matrix of a `[channel_*] t` value; a non-finite entry
    is refused here, where the error can name the key."""
    t = require_finite("T", parse_matrix(text))
    t.setflags(write=False)
    return t


def _refuse_unknown(parser: configparser.ConfigParser) -> None:
    """Raise a ValidationError on the first section or key not in CONFIG_KEYS."""
    sections = parser.sections()
    if parser.defaults():  # a [DEFAULT] section, which configparser keeps apart
        sections.insert(0, parser.default_section)
    for section in sections:
        if section not in CONFIG_KEYS:
            raise ValidationError(
                f"unknown section [{section}]; known sections: "
                + ", ".join(f"[{name}]" for name in CONFIG_KEYS)
            )
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ValidationError(
                    f"unknown key [{section}] {key}; known keys of [{section}]: "
                    + ", ".join(CONFIG_KEYS[section])
                )


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc.strerror or exc}") from None
    parser = configparser.ConfigParser()
    # the parser and its section proxies form reference cycles that only the
    # cyclic GC frees, so the section text is dropped on every exit path
    try:
        parser.read_string(raw)
        if parser.has_option("chain", "joint"):
            for key in CONFIG_KEYS["chain"]:
                if key != "joint" and parser.has_option("chain", key):
                    raise ValidationError(f"[chain] {key} is set next to joint, which ignores it")
            joint = _option(parser, "chain", "joint",
                            lambda name: load_joint((path.parent / name).read_text()))
        elif parser.get("chain", "generator", fallback=None) == "seeded":
            nx = _option(parser, "chain", "x_size", int)
            ny = _option(parser, "chain", "y_size", int)
            floor = _option(parser, "chain", "floor", float)
            gen_seed = _option(parser, "chain", "generator_seed", int)
            for key, size in (("x_size", nx), ("y_size", ny)):
                if size < 2:  # an alphabet of one symbol has no features
                    raise ValidationError(f"[chain] {key} = {size}: must be >= 2")
            if not 0 <= floor < np.inf:  # NaN fails both comparisons
                raise ValidationError(f"[chain] floor = {floor!r}: must be finite and >= 0")
            if gen_seed < 0:  # SeedSequence takes no negative entropy
                raise ValidationError(f"[chain] generator_seed = {gen_seed}: must be >= 0")
            rng = np.random.default_rng(gen_seed)
            probs = rng.random((ny, nx)) + floor
            with np.errstate(over="ignore"):
                mass = probs.sum()
            if not np.isfinite(mass):
                raise ValidationError(f"[chain] floor = {floor!r}: the joint's mass overflows")
            joint = JointPmf(
                tuple(f"x{i}" for i in range(nx)),
                tuple(f"y{j}" for j in range(ny)),
                probs / mass,
            )
        else:
            raise ValidationError("[chain] needs `joint = <path>` or `generator = seeded`")

        t_x = _option(parser, "channel_x", "t", _channel_t)
        # the demo's and the benchmark's configs give both channels one text
        if parser.get("channel_y", "t", fallback=None) == parser.get("channel_x", "t"):
            t_y = t_x
        else:
            t_y = _option(parser, "channel_y", "t", _channel_t)
        seed = (_option(parser, "sampling", "seed", int) if seed_override is None
                else seed_override)
        # every draw comes from the one stream of its seed; an old multi-worker
        # config would silently give other numbers, so it is refused
        workers = _option(parser, "sampling", "workers", int)
        if workers != 1:
            raise ValidationError(
                f"[sampling] workers = {workers}: only 1 is accepted "
                "(one seeded stream per seed)"
            )
        digest = hashlib.sha256(raw.encode()).hexdigest()[:16]

        cfg = ExperimentConfig(
            joint=joint,
            t_x=t_x,
            t_y=t_y,
            eta1_grid=_option(parser, "channel_x", "eta_grid", _floats),
            eta2_grid=_option(parser, "channel_y", "eta_grid", _floats),
            attribute_size=_option(parser, "ensemble", "attribute_size", int),
            rho=_option(parser, "ensemble", "rho", float),
            rejection_cap=_option(parser, "ensemble", "rejection_cap", int),
            epsilon_grid=_option(parser, "sweep", "epsilon", _floats),
            k_grid=_option(parser, "sweep", "k", _ints),
            s_grid=_option(parser, "sweep", "s", _floats),
            n_configs=_option(parser, "sampling", "n_configs", int),
            delta_samples=_option(parser, "sampling", "delta_samples", int),
            seed=seed,
            config_hash=digest,
            raw_text=raw,
        )
        _refuse_unknown(parser)
    except configparser.Error as exc:  # a syntax or an interpolation error
        raise ValidationError(f"{path}: {exc}") from None
    finally:
        parser.clear()
        parser.defaults().clear()
    if cfg.seed < 0:  # SeedSequence takes no negative entropy
        source = "[sampling] seed" if seed_override is None else "--seed"
        raise ValidationError(f"{source} = {cfg.seed}: must be >= 0")
    for key, least in (("n_configs", 1), ("delta_samples", 2)):
        value = getattr(cfg, key)
        if value < least:
            raise ValidationError(f"[sampling] {key} = {value}: must be >= {least}")
    k_max = min(len(joint.x_labels), len(joint.y_labels)) - 1
    for k in cfg.k_grid:
        if not 1 <= k <= k_max:
            raise ValidationError(f"sweep k={k} outside 1..{k_max}")
    if t_x.shape[0] != len(joint.x_labels) or t_y.shape[0] != len(joint.y_labels):
        raise ValidationError("channel T dimensions do not match the joint alphabets")
    for name, grid, channel in (("channel_x", cfg.eta1_grid, cfg.channel_x),
                                ("channel_y", cfg.eta2_grid, cfg.channel_y)):
        for eta in grid:
            try:
                channel(eta)
            except ValidationError as exc:
                raise ValidationError(f"[{name}] eta_grid = {eta!r}: {exc}") from None
    # AttributeEnsembleSpec owns the ensemble rules; a sweep value it
    # rejects fails here, before any point runs or is journaled
    for eps, s in product(cfg.epsilon_grid, cfg.s_grid):
        for side in ("x", "y"):
            try:
                cfg.ensemble(side, eps, s)
            except ValidationError as exc:
                raise ValidationError(
                    f"attribute ensemble at [sweep] epsilon = {eps!r}, s = {s!r}: {exc}"
                ) from None
    return cfg


def _write_text(path: Path, lines: list[str], cfg: ExperimentConfig) -> None:
    """The `# config_hash:` and `# seed:` lines of `cfg`, then `lines`."""
    head = [f"# config_hash: {cfg.config_hash}", f"# seed: {cfg.seed}"]
    path.write_text("".join(f"{line}\n" for line in (*head, *lines)))


def _write_csv(path: Path, columns: list[str], rows: list, cfg: ExperimentConfig) -> None:
    """A header line of `columns`, then one line per row of values: a str as
    it is, an int through str, anything else through FLOAT_FMT."""
    def cell(v) -> str:
        return v if isinstance(v, str) else str(v) if isinstance(v, int) else FLOAT_FMT % v

    _write_text(path, [",".join(columns), *(",".join(map(cell, row)) for row in rows)], cfg)


def _prepare_out(out: str, cfg: ExperimentConfig | None) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg is not None:
        (out / "config.echo.ini").write_text(cfg.raw_text)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if not args.delimiter:
        raise ValidationError("--delimiter '': needs at least one character")
    out = _prepare_out(args.out, None)
    path = Path(args.samples)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read samples {path}: {exc.strerror or exc}") from None
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"cannot decode samples {path} as UTF-8: byte {exc.start} ({exc.reason})"
        ) from None
    pairs = list(iter_sample_pairs(lines, delimiter=args.delimiter, header=args.header))
    if args.x_alphabet:
        x_alpha = tuple(args.x_alphabet.split(","))
    else:
        x_alpha = tuple(dict.fromkeys(x for x, _ in pairs))
    if args.y_alphabet:
        y_alpha = tuple(args.y_alphabet.split(","))
    else:
        y_alpha = tuple(dict.fromkeys(y for _, y in pairs))
    joint = joint_from_samples(pairs, x_alpha, y_alpha)
    digest = hashlib.sha256(data).hexdigest()[:16]
    (out / "joint.txt").write_text(
        dump_joint(joint, header=[f"config_hash: {digest}", f"records: {len(pairs)}"])
    )
    print(f"wrote {out / 'joint.txt'} ({len(pairs)} records)")
    return 0


def cmd_features(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    k = args.k if args.k is not None else cfg.k_grid[-1]
    joint = cfg.joint
    cdm = canonical_dependence_matrix(joint)
    f, g = select_features(cdm, k)
    _write_text(out / "sigmas.txt",
                [f"sigma {i}: {FLOAT_FMT % s}" for i, s in enumerate(cdm.sigmas)], cfg)
    columns = ["index", "sigma", *(f"f_{lab}" for lab in joint.x_labels),
               *(f"g_{lab}" for lab in joint.y_labels)]
    rows = [(i, cdm.sigmas[i], *f.h[:, i], *g.h[:, i]) for i in range(k)]
    _write_csv(out / "features.csv", columns, rows, cfg)
    print(f"wrote features (k={k}) and sigma profile to {out}")
    return 0


SYMMETRY_COLUMNS = ",".join(["epsilon", "s", "side", "delta_hat", "delta_stderr",
                             *(field.name for field in fields(MomentSymmetryReport))])


def _delta_block(cfg: ExperimentConfig, side: str, eps: float, s: float) -> np.ndarray:
    """The `delta_samples` draws behind side x's (stream (seed, 10)) or side y's
    (stream (seed, 11)) delta at (eps, s); a `simulate` row keeps the larger delta."""
    return information_ensemble(cfg.ensemble(side, eps, s)).sample(
        cfg.delta_samples, seed=(cfg.seed, 10 if side == "x" else 11))


def cmd_symmetry(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    rows = []
    for eps, s in product(cfg.epsilon_grid, cfg.s_grid):
        for side in ("x", "y"):
            block = _delta_block(cfg, side, eps, s)
            rep = delta_report(block)
            rows.append((eps, s, side, rep.delta, rep.stderr,
                         *astuple(moment_symmetry_report(block))))
    _write_csv(out / "symmetry.csv", SYMMETRY_COLUMNS.split(","), rows, cfg)
    print(f"wrote {len(rows)} delta rows to {out / 'symmetry.csv'}")
    return 0


SIM_COLUMNS = (
    "sweep_id,epsilon,k,eta1,eta2,s,delta_hat,e_us,e_vs,e_ut,e_vt,"
    "bound_us,bound_vs,bound_ut,bound_vt,residual_budget,"
    "stderr_us,stderr_vs,stderr_ut,stderr_vt"
)


def _simulate_point(cfg: ExperimentConfig, point_id: str, eps: float, k: int, s: float,
                    chan_x: Channel, chan_y: Channel, cdm: CdmMatrix) -> dict:
    """One sweep row; `cdm` is that of the joint seen through (chan_x, chan_y)."""
    delta_hat = max(delta_report(_delta_block(cfg, side, eps, s)).delta for side in "xy")
    f, g = select_features(cdm, k)
    rep = average_exponents(cfg.ensemble("x", eps, s), cfg.ensemble("y", eps, s), cfg.joint,
                            chan_x, chan_y, f, g, cfg.n_configs, (cfg.seed, 12))
    bound, residual = exponent_bound(eps, k, cdm.sigmas, rep.u.c, rep.v.c, delta_hat,
                                     chan_x.eta, chan_y.eta)
    # the exponents, the bound, the stderrs and SIM_COLUMNS share one
    # component order: (U|S, V|S, U|T, V|T)
    values = (point_id, eps, k, chan_x.eta, chan_y.eta, s, delta_hat, *rep.exponents,
              *bound, residual, *rep.stderrs)
    return dict(zip(SIM_COLUMNS.split(","), values), config_hash=cfg.config_hash, seed=cfg.seed)


def _read_journal(journal: Path, cfg_hash: str, seed: int) -> dict[str, dict]:
    """Rows of a journal of this (config_hash, seed), by sweep_id.

    A torn last line (one cut before its newline) is cut from the file, so
    its point is computed again.  A line that is not a JSON object holding
    every SIM_COLUMNS key, and rows of another (config_hash, seed), raise.
    """
    data = journal.read_bytes()
    complete = data.rfind(b"\n") + 1
    done: dict[str, dict] = {}
    columns = set(SIM_COLUMNS.split(","))
    for number, line in enumerate(data[:complete].decode().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if not isinstance(row, dict) or not columns <= row.keys():
            raise ValidationError(
                f"{journal} line {number} is not a journal row; rerun with --fresh"
            )
        found = (row.get("config_hash"), row.get("seed"))
        if found != (cfg_hash, seed):
            raise ValidationError(
                f"{journal} holds rows of (config_hash, seed) = {found}, not "
                f"{(cfg_hash, seed)}; rerun with --fresh or another --out"
            )
        done[row["sweep_id"]] = row
    if complete < len(data):
        os.truncate(journal, complete)
    return done


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.seed)
    # every row reports standard errors over the configurations
    if cfg.n_configs < 2:
        raise ValidationError(f"[sampling] n_configs = {cfg.n_configs}: simulate needs >= 2")
    out = _prepare_out(args.out, cfg)
    journal = out / "simulate.partial.jsonl"
    done = {}
    if journal.exists() and not args.fresh:
        done = _read_journal(journal, cfg.config_hash, cfg.seed)

    grid = product(cfg.epsilon_grid, cfg.k_grid, cfg.s_grid, cfg.eta1_grid, cfg.eta2_grid)
    points = [(f"{idx:04d}", eps, k, s, etas) for idx, (eps, k, s, *etas) in enumerate(grid)]
    # one channel pair and one CDM per noisy joint, shared by its points
    noisy = {}
    todo = []
    for point_id, eps, k, s, (e1, e2) in points:
        if point_id in done:
            continue
        if (e1, e2) not in noisy:
            chan_x, chan_y = cfg.channel_x(e1), cfg.channel_y(e2)
            cdm = canonical_dependence_matrix(apply_channels(cfg.joint, chan_x, chan_y))
            noisy[e1, e2] = (chan_x, chan_y, cdm)
        todo.append((point_id, eps, k, s, *noisy[e1, e2]))

    with journal.open("w" if args.fresh else "a") as fh:

        def record(row: dict) -> None:
            # durable before the next point starts: an interrupt loses no finished point
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            done[row["sweep_id"]] = row

        if args.jobs == 1 or len(todo) <= 1:
            for p in todo:
                record(_simulate_point(cfg, *p))
        else:
            failure = None
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                futures = [pool.submit(_simulate_point, cfg, *p) for p in todo]
                try:
                    # a failed point must not cost the rows of points finishing after it
                    for future in as_completed(futures):
                        if future.exception() is None:
                            record(future.result())
                        elif failure is None:
                            failure = future.exception()
                finally:
                    # on an interrupt, queued points never start and the running
                    # ones finish; every finished row is journaled before it propagates
                    pool.shutdown(cancel_futures=True)
                    for future in futures:
                        if not future.cancelled() and future.exception() is None:
                            if future.result()["sweep_id"] not in done:
                                record(future.result())
            if failure is not None:
                raise failure

    columns = SIM_COLUMNS.split(",")
    rows = [[done[p[0]][col] for col in columns] for p in points]
    _write_csv(out / "simulate.csv", columns, rows, cfg)
    print(f"wrote {len(rows)} sweep rows ({len(todo)} computed) to {out / 'simulate.csv'}")
    return 0


def _verify_checks(cfg: ExperimentConfig) -> list[checks.Check]:
    """The registry's checks on the config's joint, X channel and U-ensemble."""
    rng = np.random.default_rng(cfg.seed)
    joint = cfg.joint
    spec = cfg.ensemble("x", cfg.epsilon_grid[0], 0.0)
    ens = information_ensemble(spec)
    bump = checks.BUMP.sample(100_000, seed=cfg.seed)  # for delta and moments alike
    first = ens.sample(cfg.delta_samples, seed=cfg.seed)
    dhat = delta_report(first).delta
    # trial 0 shares dhat's seed, so its block is `first`, not a second draw
    projections = (
        (first if i == 0 else ens.sample(cfg.delta_samples, seed=cfg.seed + i),
         rng.normal(size=(ens.n, 2)), rng.normal(size=(ens.m, 2)), dhat)
        for i in range(10)
    )
    pushes = (
        (ens.sample(cfg.delta_samples, seed=cfg.seed + 50 + i), b)
        for i, b in enumerate((np.eye(ens.n), np.diag(np.linspace(0.5, 1.5, ens.n))))
    )
    # in this order: the projections draw G and H from `rng` before the features do
    results = [
        checks.cdm_null_directions([joint]),
        checks.feature_normalization([joint]),
        checks.variance_bump_delta(bump, bump),
        checks.projection_bound(projections),
        checks.push_forward_bound(pushes),
        checks.channel_spectrum_slope([(cfg.channel_x, joint.marginal_x())]),
        checks.markov_residual(sample_configuration(spec, seed=cfg.seed), joint,
                               cfg.channel_x, cfg.channel_y(0.0)),
    ]
    phi = ens.sample(1, seed=cfg.seed + 3)[0]
    fs = normalize_features(rng.normal(size=(spec.base.size, 2)), spec.base)
    results.append(checks.exponent_consistency(spec.base, spec.prior, [(phi, fs)]))
    return results


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _prepare_out(args.out, cfg)
    results = _verify_checks(cfg)
    lines = []
    for check in results:
        line = f"{'PASS' if check.ok else 'FAIL'}  {check.name:<26} {check.detail}"
        print(line)
        lines.append(line)
    _write_text(out / "verify.txt", lines, cfg)
    return 0 if all(check.ok for check in results) else 1


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then reused by `main`.

    `--out` defaults to None; `main` reads MAXCORR_OUT_ROOT when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="maxcorr",
        description="SVD feature extraction, symmetry measurement, and "
        "error-exponent verification for discrete joints",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override [sampling] seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("ingest", help="two-column samples -> joint file")
    p.add_argument("samples", help="delimiter-separated x,y sample file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="skip a header line")
    p.add_argument("--x-alphabet", default="", help="comma list; inferred if omitted")
    p.add_argument("--y-alphabet", default="", help="comma list; inferred if omitted")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="joint -> SVD feature sets + sigma profile")
    common(p)
    p.add_argument("--k", type=int, default=None, help="feature count (default: last sweep k)")
    # features reads no --jobs; the flag stays until the benchmark stops passing
    # `--jobs 1` to it (perfbench/workloads.py)
    p.add_argument("--jobs", type=int, default=1, help="ignored: features runs no pool")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("symmetry", help="sweep ensembles -> delta_hat + moment reports")
    common(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("simulate", help="full exponent sweep -> CSV")
    common(p)
    p.add_argument("--jobs", type=_jobs, default=1, help="sweep-level worker pool size (>= 1)")
    p.add_argument("--fresh", action="store_true", help="ignore an existing journal")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in property suites")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is None:
        args.out = os.environ.get(OUT_ROOT_ENV, "out")
    try:
        return args.func(args)
    except MaxcorrError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.json").write_text(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass
        print(f"error: {record['error']}: {record['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
