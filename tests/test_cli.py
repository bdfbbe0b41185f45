"""CLI surface: subcommand examples, formats, caching, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabizeta
import rabizeta.cli as cli
import rabizeta.zeta as zeta
from rabizeta.cli import ResultRecord, config_hash, main


def run_cli(tmp_path, *argv, fmt="csv"):
    out = tmp_path / "record.out"
    code = main(["--format", fmt, "--output", str(out), *argv])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestSpectrumCommand:
    def test_free_levels(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--delta", "0.5", "--g", "0",
                             "--levels", "6")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and not line.startswith("n,")]
        energies = [float(r[2]) for r in rows]
        assert energies == [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5]

    def test_decoupled_shifted_column(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--delta", "0", "--g", "2",
                             "--levels", "3")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and not line.startswith("n,")]
        shifted = [round(float(r[3]), 9) for r in rows]
        assert shifted == [0.0, 0.0, 1.0]

    def test_byte_identical_reruns(self, tmp_path):
        args = ("spectrum", "--delta", "0.5", "--g", "1", "--levels", "8")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# timestamp")]
        assert strip(first) == strip(second)

    def test_refinement_in_meta(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--delta", "0.5", "--g", "2",
                             "--levels", "4", fmt="json")
        assert code == 0
        record = json.loads(text)
        meta = record["meta"]
        (n_start, d_start), (n_check, d_check) = meta["refinement"]
        assert d_start is None and n_check == meta["n_max"] == 2 * n_start
        assert d_check <= meta["rel_tol"]
        # the cutoffs tried are metadata, outside the configuration digest
        options = {k: v for k, v in meta.items()
                   if k not in ("n_max", "converged_count", "refinement")}
        assert record["config_hash"] == config_hash("spectrum", options)

    def test_python_m_entry_point(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
        env["PYTHONPATH"] = str(Path(rabizeta.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "rabizeta", "spectrum", "--levels", "4"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "shifted_energy" in out.stdout


class TestZetaCommand:
    def test_decoupled_value(self, tmp_path):
        code, text = run_cli(tmp_path, "zeta", "--s", "2", "--tau", "1",
                             "--delta", "0", "--g", "3", fmt="json")
        assert code == 0
        record = json.loads(text)
        row = dict(zip(record["columns"], record["rows"][0]))
        assert abs(row["value_re"] - np.pi**2 / 3) < 1e-10

    def test_asymmetric_splitting(self, tmp_path):
        code, text = run_cli(tmp_path, "zeta", "--g", "0", "--eps", "0.3",
                             "--delta", "0.4", fmt="json")
        assert code == 0
        record = json.loads(text)
        row = dict(zip(record["columns"], record["rows"][0]))
        from rabizeta.zeta import hurwitz_zeta

        closed = hurwitz_zeta(2, 1.5).value.real + hurwitz_zeta(2, 0.5).value.real
        assert abs(row["value_re"] - closed) < 1e-8

    def test_constraint_violation_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, "zeta", "--delta", "0.9", "--tau", "0.5")
        assert code == 2

    def test_untilted_variant_refuses_eps(self, tmp_path, capsys):
        # the full tail model of radius delta does not bound levels split by +-eps
        code, text = run_cli(tmp_path, "zeta", "--variant", "full", "--eps", "0.25")
        assert code == 2 and text == ""
        assert "use 'asymmetric'" in capsys.readouterr().err


class TestLimitsCommand:
    def test_parity_monotone_deviation(self, tmp_path):
        code, text = run_cli(tmp_path, "limits", "--variant", "parity+",
                             "--g-grid", "2,4,6,8", "--delta", "0.5", fmt="json")
        assert code == 0
        record = json.loads(text)
        devs = [dict(zip(record["columns"], row))["deviation"] for row in record["rows"]]
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))

    @pytest.mark.parametrize("variant", ["full", "parity+", "parity-"])
    def test_untilted_variant_refuses_eps(self, tmp_path, monkeypatch, variant):
        def no_solve(*args, **kwargs):
            raise AssertionError("a zeta head was solved before eps was checked")

        monkeypatch.setattr(zeta, "_stable_spectrum", no_solve)
        code, text = run_cli(tmp_path, "limits", "--variant", variant, "--eps", "0.25",
                             "--g-grid", "2,4")
        assert code == 2 and text == ""

    def test_level_table(self, tmp_path):
        code, text = run_cli(tmp_path, "limits", "--table", "levels",
                             "--g-grid", "4,8", "--levels", "3", fmt="json")
        assert code == 0
        record = json.loads(text)
        assert len(record["rows"]) == 2 * 2 * 3


class TestFkCommand:
    def test_gibbs_trivial(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "gibbs", "--beta", "0", "--n", "400",
                             fmt="json")
        assert code == 0
        row = json.loads(text)["rows"][0]
        record = json.loads(text)
        named = dict(zip(record["columns"], row))
        assert named["value_re"] == 1.0 and named["stderr"] == 0.0

    def test_spin_corr_zero_lag(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "spin-corr", "--lag", "0", "--n", "400",
                             fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert named["value_re"] == 1.0

    def test_vacuum_z_reported(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "vacuum", "--t", "1", "--n", "20000",
                             fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert named["z"] < 3

    def test_xsquare_real_beta(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "xsquare", "--beta", "0.5", "--n", "400",
                             fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert record["meta"]["beta"] == 0.5
        assert np.isfinite(named["oracle_re"]) and named["oracle_im"] == 0.0

    def test_xchar_real_beta(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "xchar", "--beta", "1", "--n", "400",
                             fmt="json")
        assert code == 0
        assert json.loads(text)["meta"]["beta"] == 1.0

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "fk", "vacuum", "--seed", "-1", "--n", "400")
        assert code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_complex_beta_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "fk", "xsquare", "--beta", "0.5+1j", "--n", "400")
        assert code == 2
        assert "beta must be real" in capsys.readouterr().err

    def test_xsquare_unstable_oracle_exit_code(self, tmp_path, capsys):
        code, text = run_cli(tmp_path, "fk", "xsquare", "--g", "1", "--beta", "0.9",
                             "--n", "400")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("xsquare", "--beta", "0.5+1j"),
        ("xsquare", "--beta", "1.5"),
        ("xchar", "--beta", "1j"),
        ("number", "--m", "9"),
        ("spin-corr", "--lag", "-1"),
        ("number", "--m", "0"),
        ("spin-corr", "--lag", "30"),
        ("number", "--eps", "0.25"),
        ("kernel", "--eps", "0.25"),
        ("dump", "--eps", "0.25"),
    ])
    def test_usage_error_before_sampling(self, tmp_path, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("ensemble built before the options were checked")

        monkeypatch.setattr(cli, "build_ground_ensemble", no_sampling)
        code, _ = run_cli(tmp_path, "fk", *argv)
        assert code == 2

    def test_dump_writes_paths(self, tmp_path):
        dump = tmp_path / "paths.jsonl"
        code, _ = run_cli(tmp_path, "fk", "dump", "--n", "50", "--T", "4",
                          "--out", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 50
        rec = json.loads(lines[0])
        assert set(rec) == {"alpha0", "horizon", "jumps", "log_weight"}
        assert rec["alpha0"] in (-1, 1)
        assert rec["horizon"] == [-4.0, 4.0]


class TestX1Command:
    def test_moment_rows(self, tmp_path):
        code, text = run_cli(tmp_path, "x1", "--delta", "1", "--n", "20000", fmt="json")
        assert code == 0
        record = json.loads(text)
        names = [row[0] for row in record["rows"]]
        assert "E[X1]" in names and "cov(X1,X2)" in names and "KS_statistic" in names
        for row in record["rows"]:
            named = dict(zip(record["columns"], row))
            if named["moment"] not in ("KS_statistic",):
                assert named["z_or_ratio"] < 3
        ks = dict(zip(record["columns"], record["rows"][-1]))
        assert ks["mc"] < ks["closed_or_critical"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\ng = 0\nlevels = 4\n# comment\n")
        out = tmp_path / "o.csv"
        code = main(["--config", str(cfg), "--output", str(out), "spectrum"])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert len(rows) == 4

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels = 4\ndelta = 0.5\ng = 0\n")
        out = tmp_path / "o.csv"
        code = main(["--config", str(cfg), "--output", str(out),
                     "spectrum", "--levels", "2"])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        assert len(rows) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a key value line\n")
        assert main(["--config", str(cfg), "spectrum"]) == 2

    def test_malformed_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels = abc\n")
        assert main(["--config", str(cfg), "spectrum"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "levels" in err


class TestRecordContracts:
    def test_json_round_trip(self, tmp_path):
        _, text = run_cli(tmp_path, "spectrum", "--delta", "0.5", "--g", "1",
                          "--levels", "5", fmt="json")
        record = ResultRecord.from_json(text)
        assert ResultRecord.from_json(record.to_json()) == record

    def test_hash_invariant_under_option_order(self):
        a = config_hash("spectrum", {"delta": 0.5, "g": 1.0, "levels": 5})
        b = config_hash("spectrum", {"levels": 5, "g": 1.0, "delta": 0.5})
        assert a == b

    def test_hash_sensitive_to_values(self):
        a = config_hash("spectrum", {"delta": 0.5})
        b = config_hash("spectrum", {"delta": 0.25})
        assert a != b

    def test_anchor_on_every_row_emission(self, tmp_path):
        _, text = run_cli(tmp_path, "x1", "--delta", "1", "--n", "2000")
        assert any(line.startswith("# anchor=") for line in text.splitlines())


class TestCache:
    def test_records_cached_by_hash(self, tmp_path):
        # only report reads the cache, so no other subcommand writes to it
        cache = tmp_path / "cache"
        out = tmp_path / "o.csv"
        code = main(["--cache-dir", str(cache), "--output", str(out),
                     "spectrum", "--delta", "0.5", "--g", "0", "--levels", "3"])
        assert code == 0
        assert not cache.exists()

    def test_report_uses_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        # seed the cache with a fabricated report so no computation happens
        from rabizeta.cli import ResultRecord as RR, config_hash as ch

        digest = ch("report", {"seed": 1, "quick": True})
        fake = RR(config_hash=digest, quantity="report", anchor="cached",
                  columns=["check"], rows=[["cached-run"]], timestamp="t")
        (cache / f"{digest}.json").write_text(fake.to_json())
        out = tmp_path / "o.json"
        code = main(["--cache-dir", str(cache), "--format", "json",
                     "--output", str(out), "report", "--seed", "1", "--quick"])
        assert code == 0
        assert json.loads(out.read_text())["rows"] == [["cached-run"]]

    def test_report_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        failing = [["forced", "a check that fails", 1.0, 0.0, "FAIL"]]
        monkeypatch.setattr(cli, "acceptance_rows", lambda seed, quick: failing)
        out = tmp_path / "o.json"
        argv = ["--cache-dir", str(tmp_path / "cache"), "--format", "json",
                "--output", str(out), "report", "--seed", "3", "--quick"]
        assert main(argv) == 4
        cold = json.loads(out.read_text())
        assert cold["rows"][0][-1] == "FAIL"
        assert len(os.listdir(tmp_path / "cache")) == 1

        def recompute(seed, quick):
            raise AssertionError("cached report recomputed")

        monkeypatch.setattr(cli, "acceptance_rows", recompute)
        assert main(argv) == 4
        assert json.loads(out.read_text()) == cold
        assert "1 checks FAILED" in capsys.readouterr().err

    def test_report_skipped_without_compute(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["--cache-dir", str(tmp_path / "cache"), "--format", "json",
                     "--output", str(out), "report", "--seed", "2", "--quick",
                     "--no-compute"])
        assert code == 0
        assert json.loads(out.read_text())["rows"][0][-1] == "SKIPPED"

    def test_skipped_report_is_never_cached(self, tmp_path, monkeypatch):
        # the SKIPPED placeholder shares the real report's digest, so a cached
        # placeholder would stand in for the report on every later run
        passing = [["stub", "a check that passes", 0.0, 1.0, "PASS"]]
        calls = []

        def stub(seed, quick):
            calls.append((seed, quick))
            return passing

        monkeypatch.setattr(cli, "acceptance_rows", stub)
        cache = tmp_path / "cache"
        out = tmp_path / "o.json"
        argv = ["--cache-dir", str(cache), "--format", "json", "--output", str(out),
                "report", "--seed", "5", "--quick"]
        assert main(argv + ["--no-compute"]) == 0
        assert json.loads(out.read_text())["rows"][0][-1] == "SKIPPED"
        assert not cache.exists() or os.listdir(cache) == []
        assert main(argv) == 0
        assert calls == [(5, True)]
        rows = json.loads(out.read_text())["rows"]
        assert rows == [["stub", "a check that passes", 0.0, 1.0, "PASS"]]

    def test_report_from_other_sources_is_recomputed(self, tmp_path, monkeypatch):
        # a record cached by different code must not be served to this code
        calls = []

        def stub(seed, quick):
            calls.append((seed, quick))
            return [["stub", "a check that passes", 0.0, 1.0, "PASS"]]

        monkeypatch.setattr(cli, "acceptance_rows", stub)
        argv = ["--cache-dir", str(tmp_path / "cache"), "--format", "json",
                "--output", str(tmp_path / "o.json"), "report", "--seed", "6", "--quick"]
        with monkeypatch.context() as older:
            older.setattr(cli, "_source_fingerprint", lambda: "older sources")
            assert main(argv) == 0
        assert main(argv) == 0
        assert calls == [(6, True), (6, True)]
        assert len(os.listdir(tmp_path / "cache")) == 2
