"""Experiment harness: config parsing, subcommands, seeded reproducibility.

Config files use INI syntax (configparser); matrices are whitespace-separated
rows on indented continuation lines.  Sections:

  [chain]     joint = <path>          relative to the config file, or
              generator = seeded      with x_size, y_size, floor
  [channel_x] t = <rows>, eta_grid = <floats>     (likewise [channel_y])
  [ensemble]  attribute_size, rho, rejection_cap
  [sweep]     epsilon = <floats>, k = <ints>, s = <floats>
  [sampling]  n_configs, delta_samples, seed, workers (only 1 is accepted)

Every emitted file starts with `# config_hash:` and `# seed:` comment lines;
floats are serialized with 17 significant digits and rows are sorted, so a
rerun with identical (config, seed) is byte-identical.  `simulate` journals
each finished sweep point to simulate.partial.jsonl and resumes from it;
journal rows carry their (config_hash, seed) and are never reused under
another pair.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, checks
from .dependence import canonical_dependence_matrix, select_features
from .ensemble import AttributeEnsembleSpec, information_ensemble, sample_configuration
from .errors import MaxcorrError, ValidationError
from .exponent import average_exponents
from .geometry import dump_features, normalize_features
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
)
from .symmetry import delta_report, moment_symmetry_report

OUT_ROOT_ENV = "MAXCORR_OUT_ROOT"


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

    def ensemble_u(self, epsilon: float, s: float) -> AttributeEnsembleSpec:
        return AttributeEnsembleSpec(
            base=self.joint.marginal_x(), attribute_size=self.attribute_size,
            epsilon=epsilon, anisotropy=s, rho=self.rho,
            rejection_cap=self.rejection_cap,
        )

    def ensemble_v(self, epsilon: float, s: float) -> AttributeEnsembleSpec:
        return AttributeEnsembleSpec(
            base=self.joint.marginal_y(), attribute_size=self.attribute_size,
            epsilon=epsilon, anisotropy=s, rho=self.rho,
            rejection_cap=self.rejection_cap,
        )


def _parse_matrix(text: str) -> np.ndarray:
    """Whitespace-separated rows, one per non-blank line, parsed in one call."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no rows")
    widths = [len(line.split()) for line in lines]
    for row, width in enumerate(widths[1:], start=2):
        if width != widths[0]:
            raise ValueError(f"row {row} has {width} entries, row 1 has {widths[0]}")
    return np.loadtxt(lines, ndmin=2, comments=None)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _option(parser: configparser.ConfigParser, section: str, key: str, parse,
            default: str | None = None):
    """`parse` of `[section] key`, or of `default` when the key is absent.

    A missing required key or a value `parse` rejects raises a
    ValidationError that names the key and the value.
    """
    if parser.has_option(section, key):
        text = parser.get(section, key)
    elif default is None:
        raise ValidationError(f"[{section}] {key} is missing")
    else:
        text = default
    try:
        return parse(text)
    except (ValueError, OSError) as exc:
        raise ValidationError(f"[{section}] {key} = {text!r}: {exc}") from None


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
            joint = _option(parser, "chain", "joint",
                            lambda name: load_joint((path.parent / name).read_text()))
        elif parser.get("chain", "generator", fallback=None) == "seeded":
            nx = _option(parser, "chain", "x_size", int)
            ny = _option(parser, "chain", "y_size", int)
            floor = _option(parser, "chain", "floor", float, "0.15")
            gen_seed = _option(parser, "chain", "generator_seed", int, "314159")
            rng = np.random.default_rng(gen_seed)
            probs = rng.random((ny, nx)) + floor
            joint = JointPmf(
                tuple(f"x{i}" for i in range(nx)),
                tuple(f"y{j}" for j in range(ny)),
                probs / probs.sum(),
            )
        else:
            raise ValidationError("[chain] needs `joint = <path>` or `generator = seeded`")

        t_x = _option(parser, "channel_x", "t", _parse_matrix)
        t_y = _option(parser, "channel_y", "t", _parse_matrix)
        seed = (_option(parser, "sampling", "seed", int, "0") if seed_override is None
                else seed_override)
        # every draw comes from the one stream of its seed; an old multi-worker
        # config would silently give other numbers, so it is refused
        workers = _option(parser, "sampling", "workers", int, "1")
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
            eta1_grid=_option(parser, "channel_x", "eta_grid", _floats, "0.0"),
            eta2_grid=_option(parser, "channel_y", "eta_grid", _floats, "0.0"),
            attribute_size=_option(parser, "ensemble", "attribute_size", int, "3"),
            rho=_option(parser, "ensemble", "rho", float, "1.0"),
            rejection_cap=_option(parser, "ensemble", "rejection_cap", int, "1000"),
            epsilon_grid=_option(parser, "sweep", "epsilon", _floats, "0.05"),
            k_grid=_option(parser, "sweep", "k", _ints, "1"),
            s_grid=_option(parser, "sweep", "s", _floats, "0.0"),
            n_configs=_option(parser, "sampling", "n_configs", int, "100"),
            delta_samples=_option(parser, "sampling", "delta_samples", int, "20000"),
            seed=seed,
            config_hash=digest,
            raw_text=raw,
        )
    except configparser.Error as exc:  # a syntax or an interpolation error
        raise ValidationError(f"{path}: {exc}") from None
    finally:
        parser.clear()
        parser.defaults().clear()
    k_max = min(len(joint.x_labels), len(joint.y_labels)) - 1
    for k in cfg.k_grid:
        if not 1 <= k <= k_max:
            raise ValidationError(f"sweep k={k} outside 1..{k_max}")
    if t_x.shape[0] != len(joint.x_labels) or t_y.shape[0] != len(joint.y_labels):
        raise ValidationError("channel T dimensions do not match the joint alphabets")
    for eta in cfg.eta1_grid:
        cfg.channel_x(eta)
    for eta in cfg.eta2_grid:
        cfg.channel_y(eta)
    return cfg


def _header(cfg_hash: str, seed: int) -> list[str]:
    return [f"config_hash: {cfg_hash}", f"seed: {seed}"]


def _write_text(path: Path, body: str, cfg_hash: str, seed: int) -> None:
    lines = "".join(f"# {h}\n" for h in _header(cfg_hash, seed))
    path.write_text(lines + body)


def _prepare_out(out: Path, cfg: ExperimentConfig | None) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if cfg is not None:
        (out / "config.echo.ini").write_text(cfg.raw_text)


def _f(x: float) -> str:
    return FLOAT_FMT % x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    out = Path(args.out)
    _prepare_out(out, None)
    lines = Path(args.samples).read_text().splitlines()
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
    digest = hashlib.sha256(Path(args.samples).read_bytes()).hexdigest()[:16]
    (out / "joint.txt").write_text(
        dump_joint(joint, header=_header(digest, args.seed) + [f"records: {len(pairs)}"])
    )
    print(f"wrote {out / 'joint.txt'} ({len(pairs)} records)")
    return 0


def cmd_features(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    _prepare_out(out, cfg)
    k = args.k if args.k is not None else cfg.k_grid[-1]
    joint = cfg.joint
    f, g = select_features(joint, k)
    cdm = canonical_dependence_matrix(joint)
    _write_text(out / "features_f.txt", dump_features(f), cfg.config_hash, cfg.seed)
    _write_text(out / "features_g.txt", dump_features(g), cfg.config_hash, cfg.seed)
    sigma_body = "".join(
        f"sigma {i}: {_f(s)}\n" for i, s in enumerate(cdm.sigmas)
    )
    _write_text(out / "sigmas.txt", sigma_body, cfg.config_hash, cfg.seed)

    nx, ny = len(joint.x_labels), len(joint.y_labels)
    rows = [
        "index,sigma,"
        + ",".join(f"f_{lab}" for lab in joint.x_labels)
        + ","
        + ",".join(f"g_{lab}" for lab in joint.y_labels)
    ]
    for i in range(k):
        rows.append(
            ",".join(
                [str(i), _f(cdm.sigmas[i])]
                + [_f(v) for v in f.h[:, i]]
                + [_f(v) for v in g.h[:, i]]
            )
        )
    _write_text(out / "features.csv", "\n".join(rows) + "\n", cfg.config_hash, cfg.seed)
    print(f"wrote features (k={k}) and sigma profile to {out}")
    return 0


def cmd_symmetry(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    _prepare_out(out, cfg)
    samples = args.samples if args.samples else cfg.delta_samples
    eps = cfg.epsilon_grid[0]
    s = args.anisotropy
    spec = cfg.ensemble_u(eps, s) if args.side == "x" else cfg.ensemble_v(eps, s)
    block = information_ensemble(spec).sample(samples, seed=cfg.seed)
    rep = delta_report(block)
    lem = moment_symmetry_report(block)
    body = (
        f"side: {args.side}\nanisotropy: {_f(s)}\nepsilon: {_f(eps)}\n"
        f"samples: {samples}\n"
        f"delta_hat: {_f(rep.delta)}\ndelta_stderr: {_f(rep.stderr)}\n"
        f"mean_norm: {_f(lem.mean_norm)}\nmean_norm_bar: {_f(lem.mean_norm_bar)}\n"
        f"max_moment_spread: {_f(lem.max_moment_spread)}\n"
        f"max_moment_spread_bar: {_f(lem.max_moment_spread_bar)}\n"
        f"max_cross_covariance: {_f(lem.max_cross_covariance)}\n"
        f"max_cross_covariance_bar: {_f(lem.max_cross_covariance_bar)}\n"
    )
    _write_text(out / "symmetry.txt", body, cfg.config_hash, cfg.seed)
    csv = (
        "side,anisotropy,epsilon,samples,delta_hat,delta_stderr,mean_norm,"
        "max_moment_spread,max_cross_covariance\n"
        + ",".join(
            [args.side, _f(s), _f(eps), str(samples), _f(rep.delta), _f(rep.stderr),
             _f(lem.mean_norm), _f(lem.max_moment_spread), _f(lem.max_cross_covariance)]
        )
        + "\n"
    )
    _write_text(out / "symmetry.csv", csv, cfg.config_hash, cfg.seed)
    print(f"delta_hat = {rep.delta:.6g} +- {rep.stderr:.2g} -> {out}")
    return 0


SIM_COLUMNS = (
    "sweep_id,epsilon,k,eta1,eta2,s,delta_hat,e_us,e_vs,e_ut,e_vt,"
    "bound_us,bound_vs,bound_ut,bound_vt,residual_budget,"
    "stderr_us,stderr_vs,stderr_ut,stderr_vt"
)


def _simulate_point(cfg: ExperimentConfig, point_id: str, eps: float, k: int,
                    eta1: float, eta2: float, s: float) -> dict:
    chan_x = cfg.channel_x(eta1)
    chan_y = cfg.channel_y(eta2)
    mu_u = cfg.ensemble_u(eps, s)
    mu_v = cfg.ensemble_v(eps, s)
    d_u = delta_report(information_ensemble(mu_u).sample(
        cfg.delta_samples, seed=(cfg.seed, 10))).delta
    d_v = delta_report(information_ensemble(mu_v).sample(
        cfg.delta_samples, seed=(cfg.seed, 11))).delta
    delta_hat = max(d_u, d_v)
    noisy = apply_channels(cfg.joint, chan_x, chan_y)
    f, g = select_features(noisy, k)
    rep = average_exponents(
        mu_u, mu_v, cfg.joint, chan_x, chan_y, f, g,
        cfg.n_configs, (cfg.seed, 12), delta_hat=delta_hat,
    )
    return {
        "sweep_id": point_id, "config_hash": cfg.config_hash, "seed": cfg.seed,
        "epsilon": eps, "k": k, "eta1": eta1, "eta2": eta2, "s": s,
        "delta_hat": delta_hat,
        "e_us": rep.e_u_s, "e_vs": rep.e_v_s, "e_ut": rep.e_u_t, "e_vt": rep.e_v_t,
        "bound_us": rep.bound[0], "bound_vs": rep.bound[1],
        "bound_ut": rep.bound[2], "bound_vt": rep.bound[3],
        "residual_budget": rep.residual_budget,
        "stderr_us": rep.stderr_u_s, "stderr_vs": rep.stderr_v_s,
        "stderr_ut": rep.stderr_u_t, "stderr_vt": rep.stderr_v_t,
    }


def _row_to_csv(row: dict) -> str:
    cells = []
    for col in SIM_COLUMNS.split(","):
        v = row[col]
        if col == "sweep_id":
            cells.append(str(v))
        elif col == "k":
            cells.append(str(int(v)))
        else:
            cells.append(_f(float(v)))
    return ",".join(cells)


def _read_journal(journal: Path, cfg_hash: str, seed: int) -> dict[str, dict]:
    """Rows of a journal of this (config_hash, seed), by sweep_id.

    A torn last line (one cut before its newline) is cut from the file, so
    its point is computed again.  Rows of another (config_hash, seed) raise.
    """
    data = journal.read_bytes()
    complete = data.rfind(b"\n") + 1
    done: dict[str, dict] = {}
    for number, line in enumerate(data[:complete].decode().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            raise ValidationError(
                f"{journal} line {number} is not a journal row; rerun with --fresh"
            ) from None
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
    out = Path(args.out)
    _prepare_out(out, cfg)
    journal = out / "simulate.partial.jsonl"
    done = {}
    if journal.exists() and not args.fresh:
        done = _read_journal(journal, cfg.config_hash, cfg.seed)

    grid = list(product(cfg.epsilon_grid, cfg.k_grid, cfg.s_grid,
                        cfg.eta1_grid, cfg.eta2_grid))
    points = []
    for idx, (eps, k, s, e1, e2) in enumerate(grid):
        points.append((f"{idx:04d}", eps, k, e1, e2, s))
    todo = [p for p in points if p[0] not in done]

    with journal.open("w" if args.fresh else "a") as fh:

        def record(row: dict) -> None:
            # durable before the next point starts: an interrupt loses no finished point
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            done[row["sweep_id"]] = row

        jobs = max(1, args.jobs)
        if jobs == 1 or len(todo) <= 1:
            for p in todo:
                record(_simulate_point(cfg, *p))
        else:
            failure = None
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_simulate_point, cfg, *p) for p in todo]
                # a failed point must not cost the rows of points finishing after it
                for future in as_completed(futures):
                    if future.exception() is None:
                        record(future.result())
                    elif failure is None:
                        failure = future.exception()
            if failure is not None:
                raise failure

    rows = [done[p[0]] for p in points]
    body = SIM_COLUMNS + "\n" + "\n".join(_row_to_csv(r) for r in rows) + "\n"
    _write_text(out / "simulate.csv", body, cfg.config_hash, cfg.seed)
    print(f"wrote {len(rows)} sweep rows ({len(todo)} computed) to {out / 'simulate.csv'}")
    return 0


def _verify_checks(cfg: ExperimentConfig) -> list[checks.Check]:
    """The registry's checks on the config's joint, X channel and U-ensemble."""
    rng = np.random.default_rng(cfg.seed)
    joint = cfg.joint
    spec = cfg.ensemble_u(cfg.epsilon_grid[0], 0.0)
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
    out = Path(args.out)
    _prepare_out(out, cfg)
    results = _verify_checks(cfg)
    lines = []
    for check in results:
        line = f"{'PASS' if check.ok else 'FAIL'}  {check.name:<26} {check.detail}"
        print(line)
        lines.append(line)
    _write_text(out / "verify.txt", "\n".join(lines) + "\n", cfg.config_hash, cfg.seed)
    return 0 if all(check.ok for check in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcorr",
        description="SVD feature extraction, symmetry measurement, and "
        "error-exponent verification for discrete joints",
    )
    parser.add_argument("--version", action="version", version=__version__)
    default_out = os.environ.get(OUT_ROOT_ENV, "out")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--seed", type=int, default=None, help="override [sampling] seed")
        p.add_argument("--out", default=default_out, help="output directory")

    p = sub.add_parser("ingest", help="two-column samples -> joint file")
    p.add_argument("samples", help="delimiter-separated x,y sample file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="skip a header line")
    p.add_argument("--x-alphabet", default="", help="comma list; inferred if omitted")
    p.add_argument("--y-alphabet", default="", help="comma list; inferred if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="joint -> SVD feature sets + sigma profile")
    common(p)
    p.add_argument("--k", type=int, default=None, help="feature count (default: last sweep k)")
    # features reads no --jobs; the flag stays until the benchmark stops passing
    # `--jobs 1` to it (perfbench/workloads.py)
    p.add_argument("--jobs", type=int, default=1, help="ignored: features runs no pool")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("symmetry", help="ensemble -> delta_hat + moment reports")
    common(p)
    p.add_argument("--samples", type=int, default=None, help="override delta_samples")
    p.add_argument("--anisotropy", type=float, default=0.0)
    p.add_argument("--side", choices=("x", "y"), default="x")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("simulate", help="full exponent sweep -> CSV")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="sweep-level worker pool size")
    p.add_argument("--fresh", action="store_true", help="ignore an existing journal")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in property suites")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MaxcorrError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        out = Path(getattr(args, "out", "out"))
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.json").write_text(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass
        print(f"error: {record['error']}: {record['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
