import configparser
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from maxcorr.cli import load_config, main
from maxcorr.errors import ValidationError

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

    @pytest.mark.parametrize("old, new, needles", [
        ("n_configs = 20", "n_configs = sixty", ("[sampling] n_configs", "sixty")),
        ("-0.75 0.25 0.25 0.25", "-0.75 0.25 abc 0.25", ("[channel_x] t", "abc")),
        ("-0.75 0.25 0.25 0.25", "-0.75 0.25 0.25", ("[channel_x] t", "row 1 has 3")),
        ("[channel_x]", "[channel_z]", ("[channel_x] t", "missing")),
        ("seed = 3", "seed = 3\nworkers = 4", ("[sampling] workers = 4", "only 1")),
        ("seed = 3", "seed = 3\nseed = 5", ("'seed'", "'sampling'")),
        ("joint = joint.txt", "joint = absent.txt", ("[chain] joint", "absent.txt")),
        ("seed = 3", "seed = 3%", ("exp.ini", "'%' must be followed")),
        (None, None, ("cannot read config", "exp.ini", "No such file")),
    ], ids=["non-numeric-int", "non-numeric-matrix", "ragged-matrix", "missing-section",
            "workers", "duplicate-key", "missing-joint-file", "interpolation",
            "missing-config-file"])
    def test_malformed_value_named_in_error_record(self, tmp_path, capsys, old, new,
                                                   needles):
        path = tiny_config(tmp_path)
        if old is None:
            path.unlink()  # the config file itself is missing
        else:
            path.write_text(path.read_text().replace(old, new, 1))
        rc = main(["features", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        for needle in needles:
            assert needle in record["message"]


class TestCliCommands:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["features", "--config", str(DEMO), "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["symmetry", "verify"])
    def test_jobs_rejected_where_unread(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(DEMO), "--jobs", "2"])
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

        joint = load_joint((tmp_path / "o" / "joint.txt").read_text())
        assert joint.probs[0, 0] == 0.5

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

    def test_config_echo_written(self, tmp_path, capsys):
        main(["features", "--config", str(DEMO), "--out", str(tmp_path / "o")])
        assert (tmp_path / "o" / "config.echo.ini").read_text() == DEMO.read_text()

    def test_symmetry_outputs(self, tmp_path, capsys):
        path = tiny_config(tmp_path)
        rc = main([
            "symmetry", "--config", str(path), "--samples", "4000",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        body = (tmp_path / "o" / "symmetry.txt").read_text()
        assert "delta_hat:" in body

    def test_symmetry_draws_once(self, tmp_path, capsys, monkeypatch):
        # delta_hat and the moment report are statistics of one drawn block
        from maxcorr.symmetry import MatrixEnsemble

        calls = []
        original = MatrixEnsemble.sample

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MatrixEnsemble, "sample", counting)
        path = tiny_config(tmp_path)
        rc = main([
            "symmetry", "--config", str(path), "--samples", "4000",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert len(calls) == 1

    def test_verify_draws_seed_block_once(self, tmp_path, capsys, monkeypatch):
        # delta_hat and the first projection-bound trial share the seed block
        from maxcorr.symmetry import MatrixEnsemble

        calls = []
        original = MatrixEnsemble.sample

        def counting(self, *args, **kwargs):
            calls.append((self.name, args, tuple(sorted(kwargs.items()))))
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
