import _thread
import argparse
import configparser
import gc
import json
import signal
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from maxcorr import cli, dependence, exponent, model
from maxcorr.cli import OUT_ROOT_ENV, build_parser, load_config, main
from maxcorr.errors import ValidationError
from maxcorr.symmetry import delta_report, moment_symmetry_report

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo" / "demo.ini"


def tiny_config(tmp_path, n_configs=20, delta_samples=4000, k="1", eta_x="0.0"):
    joint = (REPO / "demo" / "demo_joint.txt").read_text()
    (tmp_path / "joint.txt").write_text(joint)
    cfg = f"""
[chain]
joint = joint.txt

[channel_x]
t =
    -0.75 0.25 0.25 0.25
    0.25 -0.75 0.25 0.25
    0.25 0.25 -0.75 0.25
    0.25 0.25 0.25 -0.75
eta_grid = {eta_x}

[channel_y]
t =
    -0.75 0.25 0.25 0.25
    0.25 -0.75 0.25 0.25
    0.25 0.25 -0.75 0.25
    0.25 0.25 0.25 -0.75
eta_grid = 0.0

[ensemble]
attribute_size = 3
rho = 0.5

[sweep]
epsilon = 0.05
k = {k}
s = 0.0

[sampling]
n_configs = {n_configs}
delta_samples = {delta_samples}
seed = 3
"""
    path = tmp_path / "exp.ini"
    path.write_text(cfg)
    return path


def grid_config(tmp_path):
    """tiny_config swept over two epsilon and two s values."""
    path = tiny_config(tmp_path, n_configs=4, delta_samples=500)
    text = path.read_text().replace("epsilon = 0.05", "epsilon = 0.05 0.1")
    path.write_text(text.replace("s = 0.0", "s = 0.0 0.4"))
    return path


def aniso_config(tmp_path):
    """tiny_config swept over k = 1 2 and s = 0.0 0.4: two points per (epsilon, s)."""
    path = tiny_config(tmp_path, n_configs=4, delta_samples=500, k="1 2")
    path.write_text(path.read_text().replace("s = 0.0", "s = 0.0 0.4"))
    return path


def seeded_chain(x_size=4, y_size=4, **extra):
    """`[chain]` keys of a seeded joint, to replace tiny_config's joint line."""
    return "\n".join([f"generator = seeded\nx_size = {x_size}\ny_size = {y_size}"]
                     + [f"{key} = {value}" for key, value in extra.items()])


def seeded_config(tmp_path, x_size=3, y_size=4, extra=""):
    """A config whose [chain] is a seeded random joint of the given sizes."""
    def t(n):  # T = J/n - I
        return "\n".join("    " + " ".join(repr(1.0 / n - (i == j)) for j in range(n))
                         for i in range(n))

    sizes = f"x_size = {x_size}\n" + ("" if y_size is None else f"y_size = {y_size}\n")
    path = tmp_path / "seeded.ini"
    path.write_text(
        f"[chain]\ngenerator = seeded\n{sizes}{extra}\n"
        f"[channel_x]\nt =\n{t(x_size)}\n\n[channel_y]\nt =\n{t(y_size or 1)}\n\n"
        "[sweep]\nk = 1 2\n\n[sampling]\nn_configs = 4\ndelta_samples = 200\n"
    )
    return path


class TestConfig:
    def test_loads_demo(self):
        cfg = load_config(DEMO)
        assert cfg.joint.x_labels == ("a", "b", "c", "d")
        assert cfg.k_grid == (1, 2)
        assert cfg.eta1_grid == (0.0, 0.05)

    def test_seed_override(self):
        assert load_config(DEMO, 42).seed == 42

    def test_rejects_bad_k(self, tmp_path):
        path = tiny_config(tmp_path, k="7")
        with pytest.raises(ValidationError, match="k=7"):
            load_config(path)

    def test_validates_channels_up_front(self, tmp_path):
        path = tiny_config(tmp_path, eta_x="2.5")
        with pytest.raises(Exception):
            load_config(path)

    @pytest.mark.parametrize("old, new, needle", [
        ("s = 0.0", "s = 0.0 -0.4", "s = -0.4"),
        ("s = 0.0", "s = 0.0 nan", "s = nan"),
        ("epsilon = 0.05", "epsilon = 0.05 0.0", "epsilon = 0.0"),
    ], ids=["negative-s", "nan-s", "zero-epsilon"])
    def test_validates_ensembles_up_front(self, tmp_path, capsys, old, new, needle):
        # a sweep value the ensemble spec rejects fails before the first
        # point runs: no journal, and the record names the key and value
        for name in ("demo.ini", "demo_joint.txt"):
            (tmp_path / name).write_text((REPO / "demo" / name).read_text())
        path = tmp_path / "demo.ini"
        path.write_text(path.read_text().replace(old, new, 1))
        for command in ("simulate", "features"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            message = json.loads((out / "error.json").read_text())["message"]
            assert "[sweep]" in message and needle in message
            assert not (out / "simulate.partial.jsonl").exists()

    def test_parser_text_released(self):
        # parser <-> SectionProxy cycles are freed only by the cyclic GC, so
        # with it off every parser load_config made is still reachable
        def parsers():
            return [o for o in gc.get_objects() if isinstance(o, configparser.RawConfigParser)]

        gc.disable()
        try:
            before = parsers()
            load_config(DEMO)
            new = [p for p in parsers() if not any(p is b for b in before)]
        finally:
            gc.enable()
        assert new
        for parser in new:
            assert parser.sections() == [] and parser.defaults() == {}

    @pytest.mark.parametrize("name, old, new, needles", [
        ("exp.ini", "n_configs = 20", "n_configs = sixty", ("[sampling] n_configs", "sixty")),
        ("exp.ini", "n_configs = 20", "n_configs = 0", ("[sampling] n_configs = 0", ">= 1")),
        ("exp.ini", "delta_samples = 4000", "delta_samples = 1",
         ("[sampling] delta_samples = 1", ">= 2")),
        ("exp.ini", "-0.75 0.25 0.25 0.25", "-0.75 0.25 abc 0.25", ("[channel_x] t", "abc")),
        ("exp.ini", "-0.75 0.25 0.25 0.25", "-0.75 0.25 0.25",
         ("[channel_x] t", "row 1 has 3")),
        ("exp.ini", "[channel_x]", "[channel_z]", ("[channel_x] t", "missing")),
        ("exp.ini", "seed = 3", "seed = 3\nworkers = 4", ("[sampling] workers = 4", "only 1")),
        ("exp.ini", "[sweep]", "[sweeps]", ("unknown section [sweeps]", "[sweep], [sampling]")),
        ("exp.ini", "n_configs = 20", "n_config = 20",
         ("unknown key [sampling] n_config", "n_configs, delta_samples, seed, workers")),
        ("exp.ini", "[chain]", "[DEFAULT]\nrho = 0.5\n\n[chain]", ("unknown section [DEFAULT]",)),
        ("exp.ini", "rho = 0.5", "rho = 0.5\nrejection_cap = -1",
         ("rejection_cap = -1", ">= 0", "epsilon = 0.05")),
        ("exp.ini", "seed = 3", "seed = 3\nseed = 5", ("'seed'", "'sampling'")),
        ("exp.ini", "joint = joint.txt", "joint = absent.txt", ("[chain] joint", "absent.txt")),
        ("exp.ini", "seed = 3", "seed = 3%", ("exp.ini", "'%' must be followed")),
        ("exp.ini", None, None, ("cannot read config", "exp.ini", "No such file")),
        ("joint.txt", "x_labels: a b c d\n", "", ("[chain] joint", "no 'x_labels:' line")),
        ("joint.txt", " 0.090228508938800953\n", "\n",
         ("[chain] joint", "probs", "row 2 has 4 entries, row 1 has 3")),
        ("joint.txt", "joint v1", "joint v2", ("[chain] joint", "expected 'joint v1'")),
        ("exp.ini", "epsilon = 0.05", "epsilon =", ("[sweep] epsilon = ''", "at least one value")),
        ("exp.ini", "eta_grid = 0.0", "eta_grid =",
         ("[channel_x] eta_grid = ''", "at least one value")),
        ("exp.ini", "joint = joint.txt", "joint = joint.txt\nx_size = 16",
         ("[chain] x_size", "next to joint")),
        ("exp.ini", "seed = 3", "seed = -1", ("[sampling] seed = -1", ">= 0")),
        ("exp.ini", "eta_grid = 0.0", "eta_grid = nan", ("[channel_x] eta_grid = nan", ">= 0")),
        ("exp.ini", "-0.75 0.25 0.25 0.25", "-0.75 0.25 nan 0.25",
         ("[channel_x] t: T has non-finite entry nan at (0, 2)",)),
        ("joint.txt", " 0.090228508938800953\n", " nan\n",
         ("[chain] joint", "probs has non-finite entry nan")),
        ("exp.ini", "joint = joint.txt", seeded_chain(x_size=-1),
         ("[chain] x_size = -1: must be >= 2",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(x_size=0),
         ("[chain] x_size = 0: must be >= 2",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(y_size=1),
         ("[chain] y_size = 1: must be >= 2",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(floor=-2),
         ("[chain] floor = -2.0: must be finite and >= 0",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(floor=-0.5),
         ("[chain] floor = -0.5: must be finite and >= 0",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(floor="nan"),
         ("[chain] floor = nan: must be finite and >= 0",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(floor="1e308"),
         ("[chain] floor = 1e+308: the joint's mass overflows",)),
        ("exp.ini", "joint = joint.txt", seeded_chain(generator_seed=-1),
         ("[chain] generator_seed = -1: must be >= 0",)),
    ], ids=["non-numeric-int", "zero-configs", "one-delta-sample", "non-numeric-matrix", "ragged-matrix", "missing-section",
            "workers", "misspelt-section", "misspelt-key", "default-section",
            "negative-rejection-cap", "duplicate-key", "missing-joint-file", "interpolation",
            "missing-config-file", "joint-without-x-labels", "ragged-joint-row",
            "wrong-joint-kind", "empty-epsilon", "empty-eta-grid", "joint-with-generator-key",
            "negative-seed", "nan-eta", "nan-in-t", "nan-in-joint", "negative-x-size",
            "zero-x-size", "one-symbol-y-size", "floor-below-minus-one", "negative-floor",
            "nan-floor", "overflowing-floor", "negative-generator-seed"])
    def test_malformed_value_named_in_error_record(self, tmp_path, capsys, name, old, new,
                                                   needles):
        path = tiny_config(tmp_path)
        target = tmp_path / name  # the config or its joint file
        if old is None:
            target.unlink()
        else:
            assert old in target.read_text()
            target.write_text(target.read_text().replace(old, new, 1))
        for command in ("features", "simulate", "symmetry", "verify"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            record = json.loads((out / "error.json").read_text())
            assert record["error"] == "ValidationError"
            for needle in needles:
                assert needle in record["message"]
            assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_wide_ragged_matrix_error_is_short(self, tmp_path, capsys):
        # the message names the key and the row, not the 128 x 128 matrix text
        path = seeded_config(tmp_path, x_size=128, y_size=128)
        row = path.read_text().split("t =\n", 1)[1].splitlines()[1]
        path.write_text(path.read_text().replace(row, row.rsplit(" ", 1)[0], 1))
        out = tmp_path / "o"
        assert main(["features", "--config", str(path), "--out", str(out)]) == 1
        assert (out / "error.json").stat().st_size < 1024
        record = json.loads((out / "error.json").read_text())
        assert record["message"] == "[channel_x] t: row 2 has 127 entries, row 1 has 128"

    def test_negative_seed_flag_named_in_error_record(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(DEMO), "--seed", "-1", "--out", str(out)]) == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "--seed = -1" in record["message"] and ">= 0" in record["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("path", [DEMO, REPO / "perfbench" / "configs" / "demo.ini"],
                             ids=["demo", "perfbench-demo"])
    def test_committed_configs_load_unchanged(self, path):
        # the key check refuses nothing the committed demo configs set
        cfg = load_config(path)
        assert (cfg.eta1_grid, cfg.eta2_grid, cfg.epsilon_grid, cfg.k_grid, cfg.s_grid) == (
            (0.0, 0.05), (0.0,), (0.05,), (1, 2), (0.0,))
        assert (cfg.attribute_size, cfg.rho, cfg.rejection_cap, cfg.n_configs,
                cfg.delta_samples, cfg.seed) == (3, 0.5, 1000, 60, 20000, 0)
        assert cfg.joint.x_labels == ("a", "b", "c", "d")

    def test_seeded_generator(self, tmp_path, capsys):
        cfg = load_config(seeded_config(tmp_path))
        assert cfg.joint.probs.shape == (4, 3)
        assert cfg.joint.x_labels == ("x0", "x1", "x2")
        assert cfg.joint.y_labels == ("y0", "y1", "y2", "y3")
        # the joint is a function of generator_seed alone
        assert np.array_equal(load_config(seeded_config(tmp_path)).joint.probs, cfg.joint.probs)
        other = load_config(seeded_config(tmp_path, extra="generator_seed = 7"))
        assert not np.array_equal(other.joint.probs, cfg.joint.probs)
        with pytest.raises(ValidationError, match=r"^\[chain\] y_size is missing$"):
            load_config(seeded_config(tmp_path, y_size=None))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(seeded_config(tmp_path)), "--out", str(out)]) == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[3:]] == [
            ["0000", "0.050000000000000003", "1"], ["0001", "0.050000000000000003", "2"]]

    @pytest.mark.parametrize("y_size, parses", [(3, 1), (4, 2)],
                             ids=["equal-texts", "distinct-texts"])
    def test_each_t_text_is_parsed_once(self, tmp_path, monkeypatch, y_size, parses):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        cfg = load_config(seeded_config(tmp_path, x_size=3, y_size=y_size))
        assert len(calls) == parses
        assert (cfg.t_x is cfg.t_y) == (parses == 1)
        for t, n in ((cfg.t_x, 3), (cfg.t_y, y_size)):
            assert np.array_equal(t, np.full((n, n), 1 / n) - np.eye(n))
            assert not t.flags.writeable

    def test_readme_config_block_lists_config_keys(self):
        # README's ```ini block (commented keys included) is the documented format
        readme = (REPO / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        listed: dict[str, list[str]] = {}
        for line in block.splitlines():
            line = line.lstrip("# ")
            if line.startswith("["):
                section = listed.setdefault(line.strip("[]"), [])
            elif "=" in line and line[0].isalpha():
                section.append(line.split("=", 1)[0].strip())
        assert listed == {name: list(keys) for name, keys in cli.CONFIG_KEYS.items()}

    def test_readme_file_formats_list_result_columns(self):
        # README's "File formats" block states each CSV's header line verbatim
        readme = (REPO / "README.md").read_text()
        block = readme.split("## File formats", 1)[1].split("```\n", 2)[1]
        listed = dict(line.split(None, 1) for line in block.splitlines())
        assert listed["simulate.csv"] == cli.SIM_COLUMNS
        assert listed["symmetry.csv"] == cli.SYMMETRY_COLUMNS


class TestCliCommands:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["features", "--config", str(DEMO), "--no-such-flag"])
        assert exc.value.code == 2

    # symmetry takes N, s and both sides from the config, so it has no such flags;
    # simulate runs at least one job
    @pytest.mark.parametrize("command, flag, value", [
        ("symmetry", "--jobs", "2"), ("verify", "--jobs", "2"), ("symmetry", "--samples", "4000"),
        ("symmetry", "--anisotropy", "0.4"), ("symmetry", "--side", "y"),
        ("simulate", "--jobs", "0"), ("simulate", "--jobs", "-3"),
    ], ids=["symmetry", "verify", "symmetry-samples", "symmetry-anisotropy", "symmetry-side",
            "simulate-zero-jobs", "simulate-negative-jobs"])
    def test_jobs_rejected_where_unread(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(DEMO), flag, value])
        assert exc.value.code == 2

    def test_error_record_on_bad_config(self, tmp_path, capsys):
        path = tiny_config(tmp_path, k="9")
        rc = main(["features", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "ValidationError"

    def test_ingest_round_trip(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("x,y\na,w\na,w\nb,x\nb,x\n")
        rc = main([
            "ingest", str(samples), "--header", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        from maxcorr.model import load_joint

        text = (tmp_path / "o" / "joint.txt").read_text()
        # ingest draws nothing, so its header has no seed line
        assert text.startswith("# config_hash: ")
        assert text.splitlines()[1:3] == ["# records: 4", "joint v1"]
        assert load_joint(text).probs[0, 0] == 0.5

    def test_ingest_declared_alphabets(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text("a,w\na,w\nb,x\nb,w\n")
        rc = main(["ingest", str(samples), "--x-alphabet", "a,b,c", "--y-alphabet", "w,x",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        from maxcorr.model import load_joint

        joint = load_joint((tmp_path / "o" / "joint.txt").read_text())
        assert joint.x_labels == ("a", "b", "c")
        # the declared symbol with no records gets a zero column
        assert np.array_equal(joint.probs, [[0.5, 0.25, 0.0], [0.0, 0.25, 0.0]])
        # a record outside the declared alphabet is named in the error record
        rc = main(["ingest", str(samples), "--x-alphabet", "a,b", "--y-alphabet", "w",
                   "--out", str(tmp_path / "e")])
        assert rc == 1
        record = json.loads((tmp_path / "e" / "error.json").read_text())
        assert record["error"] == "AlphabetMismatchError"
        assert "record 2: y label 'x'" in record["message"]

    def test_ingest_missing_file_named_in_error_record(self, tmp_path, capsys):
        rc = main(["ingest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "cannot read samples" in record["message"]
        assert "absent.csv" in record["message"]
        # a sample file that is not UTF-8 (one Latin-1 e-acute label)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"x,y\ncaf\xe9,0\na,1\n")
        rc = main(["ingest", str(latin1), "--out", str(tmp_path / "d")])
        assert rc == 1
        record = json.loads((tmp_path / "d" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "cannot decode samples" in record["message"]
        assert "latin1.csv" in record["message"]
        # an empty delimiter, which no split accepts
        samples = tmp_path / "s.csv"
        samples.write_text("a,w\nb,x\n")
        rc = main(["ingest", str(samples), "--delimiter", "", "--out", str(tmp_path / "m")])
        assert rc == 1
        record = json.loads((tmp_path / "m" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "--delimiter" in record["message"]
        # labels a joint file cannot hold, which load_joint would not read back:
        # one with whitespace from the samples, and an empty declared one
        samples.write_text("a,w\na b,x\n")
        for argv, needle in (([], "['a b']"), (["--x-alphabet", "a,,b"], "['']")):
            out = tmp_path / f"w{len(argv)}"
            assert main(["ingest", str(samples), *argv, "--out", str(out)]) == 1
            record = json.loads((out / "error.json").read_text())
            assert record["error"] == "ValidationError"
            assert needle in record["message"] and "whitespace" in record["message"]

    def test_features_match_golden_oracle(self, tmp_path, capsys):
        rc = main([
            "features", "--config", str(DEMO), "--k", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        golden = {}
        for line in (REPO / "demo" / "golden_sigmas.txt").read_text().splitlines():
            if line.startswith("sigma"):
                idx, val = line.split(":")
                golden[int(idx.split()[1])] = float(val)
        ours = {}
        for line in (tmp_path / "o" / "sigmas.txt").read_text().splitlines():
            if line.startswith("sigma"):
                idx, val = line.split(":")
                ours[int(idx.split()[1])] = float(val)
        assert set(ours) == set(golden)
        for i, val in golden.items():
            assert ours[i] == pytest.approx(val, abs=1e-10)

    def test_features_csv_schema(self, tmp_path, capsys):
        main(["features", "--config", str(DEMO), "--k", "2", "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "features.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash:")
        assert lines[2] == "index,sigma,f_a,f_b,f_c,f_d,g_w,g_x,g_y,g_z"
        assert len(lines) == 3 + 2
        # %.17g round-trips a float, so each cell reads back as the feature value
        joint = load_config(DEMO).joint
        f, g = dependence.select_features(dependence.canonical_dependence_matrix(joint), 2)
        for i, line in enumerate(lines[3:]):
            cells = dict(zip(lines[2].split(","), line.split(",")))
            assert [float(cells[f"f_{lab}"]) for lab in joint.x_labels] == list(f.h[:, i])
            assert [float(cells[f"g_{lab}"]) for lab in joint.y_labels] == list(g.h[:, i])

    def test_features_writes_one_file_per_result(self, tmp_path, capsys):
        out = tmp_path / "o"
        main(["features", "--config", str(DEMO), "--k", "2", "--out", str(out)])
        assert {p.name for p in out.iterdir()} == {
            "config.echo.ini", "features.csv", "sigmas.txt",
        }

    def test_config_echo_written(self, tmp_path, capsys):
        main(["features", "--config", str(DEMO), "--out", str(tmp_path / "o")])
        assert (tmp_path / "o" / "config.echo.ini").read_text() == DEMO.read_text()

    def test_symmetry_outputs(self, tmp_path, capsys):
        path = grid_config(tmp_path)
        assert main(["symmetry", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "symmetry.csv").read_text().splitlines()
        cfg = load_config(path)
        assert lines[:3] == [f"# config_hash: {cfg.config_hash}", "# seed: 3", cli.SYMMETRY_COLUMNS]
        grid = [(eps, s, side) for eps in (0.05, 0.1) for s in (0.0, 0.4) for side in "xy"]
        assert len(lines) == 3 + len(grid)
        for (eps, s, side), line in zip(grid, lines[3:]):
            cells = dict(zip(cli.SYMMETRY_COLUMNS.split(","), line.split(",")))
            assert (float(cells["epsilon"]), float(cells["s"]), cells["side"]) == (eps, s, side)
            block = cli._delta_block(cfg, side, eps, s)
            rep, lem = delta_report(block), moment_symmetry_report(block)
            assert float(cells["delta_hat"]) == rep.delta
            assert float(cells["delta_stderr"]) == rep.stderr
            for name in cli.SYMMETRY_COLUMNS.split(",")[5:]:
                assert float(cells[name]) == getattr(lem, name)

    def test_symmetry_writes_one_file_per_result(self, tmp_path, capsys):
        path = tiny_config(tmp_path)
        out = tmp_path / "o"
        main(["symmetry", "--config", str(path), "--out", str(out)])
        assert {p.name for p in out.iterdir()} == {"config.echo.ini", "symmetry.csv"}

    def test_symmetry_draws_once(self, tmp_path, capsys, monkeypatch):
        # delta_hat and the moment report of a row are statistics of one drawn block
        from maxcorr.symmetry import MatrixEnsemble

        calls = []
        original = MatrixEnsemble.sample

        def counting(self, *args, **kwargs):
            calls.append((self.sample_block, args, tuple(sorted(kwargs.items()))))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MatrixEnsemble, "sample", counting)
        assert main(["symmetry", "--config", str(grid_config(tmp_path)),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 2 * 2 * 2  # (epsilon, s, side)
        assert len(set(calls)) == len(calls)

    def test_symmetry_delta_is_simulate_delta(self, tmp_path, capsys):
        # simulate's delta_hat is the larger of the two sides' symmetry.csv
        # delta_hat at its (epsilon, s), down to the last digit
        path = grid_config(tmp_path)
        assert main(["symmetry", "--config", str(path), "--out", str(tmp_path / "y")]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        deltas = {}
        for line in (tmp_path / "y" / "symmetry.csv").read_text().splitlines()[3:]:
            eps, s, _, delta = line.split(",")[:4]
            deltas.setdefault((eps, s), []).append(delta)
        rows = (tmp_path / "s" / "simulate.csv").read_text().splitlines()[3:]
        assert len(rows) == len(deltas) == 4
        for row in rows:
            cells = dict(zip(cli.SIM_COLUMNS.split(","), row.split(",")))
            assert cells["delta_hat"] == max(deltas[cells["epsilon"], cells["s"]], key=float)

    def test_verify_draws_seed_block_once(self, tmp_path, capsys, monkeypatch):
        # delta_hat and the first projection-bound trial share the seed block
        from maxcorr.symmetry import MatrixEnsemble

        calls = []
        original = MatrixEnsemble.sample

        def counting(self, *args, **kwargs):
            calls.append((self.sample_block, args, tuple(sorted(kwargs.items()))))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MatrixEnsemble, "sample", counting)
        path = tiny_config(tmp_path)
        main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert len(calls) == 14
        assert len(set(calls)) == len(calls)

    def test_simulate_deterministic_and_resumable(self, tmp_path, capsys):
        path = tiny_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        csv1 = (out1 / "simulate.csv").read_bytes()
        assert csv1 == (out2 / "simulate.csv").read_bytes()
        # resume: journal present -> nothing recomputed, same bytes
        (out1 / "simulate.csv").unlink()
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        captured = capsys.readouterr().out
        assert "(0 computed)" in captured
        assert (out1 / "simulate.csv").read_bytes() == csv1

    def test_verify_demo_all_pass(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(DEMO), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["independent_joint", "zero_t"])
    def test_verify_vanishing_quantity_is_o_eta(self, tmp_path, capsys, case):
        # a quantity that is zero at every eta passes its O(eta) fit without
        # a log of zero: the chain residual of an independent joint, and both
        # fitted quantities of an X channel with T = 0
        path = tiny_config(tmp_path)
        if case == "independent_joint":
            probs = np.outer([0.25, 0.15, 0.35, 0.25], [0.1, 0.2, 0.3, 0.4])
            joint = model.JointPmf(tuple("abcd"), tuple("wxyz"), probs)
            (tmp_path / "joint.txt").write_text(model.dump_joint(joint))
        else:
            # the X channel's t is the only matrix before the first eta_grid
            head, tail = path.read_text().split("eta_grid", 1)
            path.write_text(head.replace("-0.75", "0").replace("0.25", "0") + "eta_grid" + tail)
        main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
        vanishing = ["markov_residual"] + (["channel_spectrum_slope"] if case == "zero_t" else [])
        for name in ("channel_spectrum_slope", "markov_residual"):
            assert lines[name].startswith("PASS"), lines[name]
            assert ("vanishes at every eta" in lines[name]) == (name in vanishing)

    @pytest.mark.parametrize("command, k, joints", [("features", "2", 1),
                                                    ("simulate", "1 2", 1)])
    def test_one_cdm_per_joint(self, tmp_path, capsys, monkeypatch, command, k, joints):
        # features reads one joint; simulate's two points share one noisy joint,
        # built once: average_exponents reads its marginals from the features
        calls, pushes = [], []

        def counting(joint):
            calls.append(joint)
            return build(joint)

        def counting_push(*args):
            pushes.append(args)
            return push(*args)

        build, push = dependence.canonical_dependence_matrix, model.apply_channels
        for module in (cli, dependence):  # dependence's global serves its own callers
            monkeypatch.setattr(module, "canonical_dependence_matrix", counting)
        for module in (cli, exponent):
            monkeypatch.setattr(module, "apply_channels", counting_push, raising=False)
        path = tiny_config(tmp_path, n_configs=10, delta_samples=500, k=k)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == joints
        noisy_joints = joints if command == "simulate" else 0  # features reads the clean joint
        assert len(pushes) == noisy_joints

    def test_out_root_read_when_main_runs(self, tmp_path, capsys, monkeypatch):
        build_parser()  # the parser exists before the variable is set
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "root"))
        assert main(["features", "--config", str(DEMO)]) == 0
        assert (tmp_path / "root" / "features.csv").exists()

    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["features", "--config", str(DEMO), "--out", str(tmp_path / "o")]) == 0
        assert built == []

    def test_simulate_header_embeds_hash_and_seed(self, tmp_path, capsys):
        path = tiny_config(tmp_path)
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        cfg = load_config(path)
        assert lines[0] == f"# config_hash: {cfg.config_hash}"
        assert lines[1] == "# seed: 3"


def simulate(path, out, *extra):
    return main(["simulate", "--config", str(path), "--out", str(out), *extra])


class TestSimulateJournal:
    def test_interrupted_sweep_keeps_finished_points(self, tmp_path, capsys, monkeypatch):
        import maxcorr.cli as cli

        path = tiny_config(tmp_path, k="1 2", eta_x="0.0 0.05")  # 4 points
        assert simulate(path, tmp_path / "whole") == 0
        original = cli._simulate_point
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return original(*args)

        monkeypatch.setattr(cli, "_simulate_point", third_fails)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="interrupted"):
            simulate(path, out)
        assert len((out / "simulate.partial.jsonl").read_text().splitlines()) == 2
        monkeypatch.setattr(cli, "_simulate_point", original)
        capsys.readouterr()
        assert simulate(path, out) == 0
        assert "(2 computed)" in capsys.readouterr().out
        assert (out / "simulate.csv").read_bytes() == (tmp_path / "whole" / "simulate.csv").read_bytes()

    def test_failed_point_under_jobs_keeps_other_points(self, tmp_path, capsys, monkeypatch):
        import maxcorr.cli as cli

        path = tiny_config(tmp_path, k="1 2", eta_x="0.0 0.05")  # 4 points
        assert simulate(path, tmp_path / "whole") == 0
        original = cli._simulate_point

        def second_fails(cfg, point_id, *args):
            if point_id == "0001":
                raise RuntimeError("point 0001 failed")
            return original(cfg, point_id, *args)

        monkeypatch.setattr(cli, "_simulate_point", second_fails)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="point 0001 failed"):
            simulate(path, out, "--jobs", "2")
        journal = (out / "simulate.partial.jsonl").read_text().splitlines()
        assert sorted(json.loads(line)["sweep_id"] for line in journal) == [
            "0000", "0002", "0003"]
        monkeypatch.setattr(cli, "_simulate_point", original)
        capsys.readouterr()
        assert simulate(path, out, "--jobs", "2") == 0
        assert "(1 computed)" in capsys.readouterr().out
        assert (out / "simulate.csv").read_bytes() == (tmp_path / "whole" / "simulate.csv").read_bytes()

    def test_interrupt_under_jobs_keeps_finished_points(self, tmp_path, capsys, monkeypatch):
        import maxcorr.cli as cli

        path = tiny_config(tmp_path, k="1 2", eta_x="0.0 0.01 0.02 0.03")  # 8 points
        original = cli._simulate_point
        lock = threading.Lock()
        interrupted = threading.Event()
        late_starts, returned = [], []

        def third_interrupts(cfg, point_id, *args):
            with lock:
                if interrupted.is_set():
                    late_starts.append(point_id)
            time.sleep(0.05)  # each point outlasts the main thread's reaction
            row = original(cfg, point_id, *args)
            with lock:
                returned.append(point_id)
                if len(returned) == 3:
                    interrupted.set()
                    _thread.interrupt_main()  # a KeyboardInterrupt in the main thread
            return row

        monkeypatch.setattr(cli, "_simulate_point", third_interrupts)
        out = tmp_path / "o"
        # interrupt_main() does nothing while SIGINT is ignored, as in a
        # background launch, so the test installs Python's own handler
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                simulate(path, out, "--jobs", "2")
        finally:
            signal.signal(signal.SIGINT, previous)
        journal = [json.loads(line)["sweep_id"]
                   for line in (out / "simulate.partial.jsonl").read_text().splitlines()]
        assert sorted(journal) == sorted(returned)
        assert len(late_starts) <= 2  # at most the two workers pick up one more point
        monkeypatch.setattr(cli, "_simulate_point", original)
        capsys.readouterr()
        assert simulate(path, out, "--jobs", "2") == 0
        assert f"({8 - len(journal)} computed)" in capsys.readouterr().out

    def test_jobs_do_not_change_rows(self, tmp_path, capsys):
        path = tiny_config(tmp_path, k="1 2", eta_x="0.0 0.05")  # 4 points
        assert simulate(path, tmp_path / "j1") == 0
        assert simulate(path, tmp_path / "j2", "--jobs", "2") == 0
        csv = (tmp_path / "j1" / "simulate.csv").read_bytes()
        assert (tmp_path / "j2" / "simulate.csv").read_bytes() == csv

    def test_fresh_truncates_journal(self, tmp_path, capsys):
        path = tiny_config(tmp_path)  # 1 point
        out = tmp_path / "o"
        assert simulate(path, out) == 0
        assert simulate(path, out, "--fresh") == 0
        assert len((out / "simulate.partial.jsonl").read_text().splitlines()) == 1

    def test_journal_of_other_config_and_seed_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = tiny_config(tmp_path)
        old = load_config(path)
        assert simulate(path, out) == 0
        path = tiny_config(tmp_path, eta_x="0.0 0.05")
        new = load_config(path, 9)
        assert simulate(path, out, "--seed", "9") == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        for needle in (f"'{old.config_hash}', 3", f"'{new.config_hash}', 9", "--fresh"):
            assert needle in record["message"]
        assert simulate(path, out, "--seed", "9", "--fresh") == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[:2] == [f"# config_hash: {new.config_hash}", "# seed: 9"]
        assert len(lines) == 3 + 2

    def test_non_json_journal_line_refused(self, tmp_path, capsys):
        path = tiny_config(tmp_path, k="1 2")  # 2 points
        out = tmp_path / "o"
        assert simulate(path, out) == 0
        csv = (out / "simulate.csv").read_bytes()
        journal = out / "simulate.partial.jsonl"
        rows = journal.read_text().splitlines(keepends=True)
        # a blank line is skipped
        journal.write_text(rows[0] + "\n" + rows[1])
        capsys.readouterr()
        assert simulate(path, out) == 0
        assert "(0 computed)" in capsys.readouterr().out
        assert (out / "simulate.csv").read_bytes() == csv
        # a complete line that is not a JSON object holding every column is
        # refused, not skipped
        short = json.loads(rows[1])
        del short["e_us"]
        for bad in ("not json", "1", json.dumps(short)):
            journal.write_text(rows[0] + bad + "\n" + rows[1])
            assert simulate(path, out) == 1
            record = json.loads((out / "error.json").read_text())
            assert record["error"] == "ValidationError"
            assert "line 2 is not a journal row; rerun with --fresh" in record["message"]

    def test_single_configuration_refused(self, tmp_path, capsys):
        # one configuration has no standard error, so simulate refuses it;
        # features never reads n_configs and still accepts it
        path = tiny_config(tmp_path, n_configs=1)
        assert load_config(path).n_configs == 1
        assert main(["features", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
        out = tmp_path / "o"
        assert simulate(path, out) == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "[sampling] n_configs = 1: simulate needs >= 2" in record["message"]
        assert not (out / "simulate.csv").exists()
        assert not (out / "simulate.partial.jsonl").exists()

    def test_torn_last_line_recomputed(self, tmp_path, capsys):
        path = tiny_config(tmp_path, k="1 2")  # 2 points
        out = tmp_path / "o"
        assert simulate(path, out) == 0
        csv = (out / "simulate.csv").read_bytes()
        journal = out / "simulate.partial.jsonl"
        rows = journal.read_text().splitlines(keepends=True)
        journal.write_text(rows[0] + rows[1][:40])
        capsys.readouterr()
        assert simulate(path, out) == 0
        assert "(1 computed)" in capsys.readouterr().out
        assert (out / "simulate.csv").read_bytes() == csv
        assert journal.read_text() == "".join(rows)


def spy_draws(monkeypatch):
    """The key of each `cli._delta_block` call, and a weak reference to its block."""
    draws, refs = [], []
    draw = cli._delta_block

    def drawing(cfg, side, eps, s):
        block = draw(cfg, side, eps, s)
        draws.append((side, eps, s))
        refs.append(weakref.ref(block))
        return block

    monkeypatch.setattr(cli, "_delta_block", drawing)
    return draws, refs


def spy_live_blocks(monkeypatch, refs):
    """(sweep_id, blocks of `refs` still referenced) after each point returns."""
    live, point = [], cli._simulate_point

    def counting(cfg, point_id, *args):
        row = point(cfg, point_id, *args)
        live.append((point_id, sum(ref() is not None for ref in refs)))
        return row

    monkeypatch.setattr(cli, "_simulate_point", counting)
    return live


class TestDeltaBlocks:
    """`simulate` draws each (side, epsilon, s) delta block once per run."""

    def test_demo_draws_one_block_per_side(self, tmp_path, capsys, monkeypatch):
        # the demo's 4 points share one (epsilon, s)
        draws, _ = spy_draws(monkeypatch)
        assert simulate(DEMO, tmp_path / "o") == 0
        assert draws == [("x", 0.05, 0.0), ("y", 0.05, 0.0)]

    def test_points_differing_in_k_share_blocks(self, tmp_path, capsys, monkeypatch):
        draws, _ = spy_draws(monkeypatch)
        assert simulate(aniso_config(tmp_path), tmp_path / "o") == 0
        assert draws == [(side, 0.05, s) for s in (0.0, 0.4) for side in "xy"]

    def test_each_block_dropped_after_its_last_point(self, tmp_path, capsys, monkeypatch):
        # serial points run one (epsilon, s) at a time, k = 1 and 2 at s = 0.0
        # and then at s = 0.4, so at most one pair of blocks is ever held
        _, refs = spy_draws(monkeypatch)
        live = spy_live_blocks(monkeypatch, refs)
        assert simulate(aniso_config(tmp_path), tmp_path / "o") == 0
        assert live == [("0000", 2), ("0002", 0), ("0001", 2), ("0003", 0)]

    def test_resumed_run_draws_only_keys_left_to_run(self, tmp_path, capsys, monkeypatch):
        path = aniso_config(tmp_path)
        out = tmp_path / "o"
        assert simulate(path, tmp_path / "whole") == 0
        journal = (tmp_path / "whole" / "simulate.partial.jsonl").read_text().splitlines()
        out.mkdir()
        # every point but 0003 (k = 2 at s = 0.4) is done
        (out / "simulate.partial.jsonl").write_text("".join(
            line + "\n" for line in journal if json.loads(line)["sweep_id"] != "0003"))
        draws, refs = spy_draws(monkeypatch)
        live = spy_live_blocks(monkeypatch, refs)
        capsys.readouterr()
        assert simulate(path, out) == 0
        assert "(1 computed)" in capsys.readouterr().out
        assert draws == [("x", 0.05, 0.4), ("y", 0.05, 0.4)]
        # the one point left is the last reader of its blocks, so they are dropped
        assert live == [("0003", 0)]
        csv = (tmp_path / "whole" / "simulate.csv").read_bytes()
        assert (out / "simulate.csv").read_bytes() == csv

    def test_jobs_draw_each_block_once(self, tmp_path, capsys, monkeypatch):
        path = aniso_config(tmp_path)
        assert simulate(path, tmp_path / "j1") == 0
        draws, _ = spy_draws(monkeypatch)
        assert simulate(path, tmp_path / "j2", "--jobs", "2") == 0
        assert sorted(draws) == sorted((side, 0.05, s) for s in (0.0, 0.4) for side in "xy")
        csv = (tmp_path / "j1" / "simulate.csv").read_bytes()
        assert (tmp_path / "j2" / "simulate.csv").read_bytes() == csv

    def test_concurrent_readers_draw_each_key_once(self, monkeypatch):
        # eight threads read 6 (epsilon, s) keys, four readers each, while each
        # draw lasts long enough for other readers of its key to arrive
        readers = [(eps, s) for eps in (0.05, 0.1) for s in (0.0, 0.4, 0.8) for _ in range(4)]
        draws = []

        def slow_draw(cfg, side, eps, s):
            draws.append((side, eps, s))
            time.sleep(0.002)
            return np.zeros(1)

        monkeypatch.setattr(cli, "_delta_block", slow_draw)
        blocks = cli._DeltaBlocks(None, readers)
        taken = []

        def read(eps, s):
            for side in "xy":
                taken.append(((side, eps, s), blocks.take(side, eps, s)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(read, *key) for key in readers]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(draws) == sorted({(side, *key) for key in readers for side in "xy"})
        assert len(taken) == 2 * len(readers)
        for key in set(draws):  # every reader of a key holds the one block drawn for it
            first = next(block for k, block in taken if k == key)
            assert all(block is first for k, block in taken if k == key)
        assert blocks._entries == {}
