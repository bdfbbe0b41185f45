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
import rabizeta.estimators as estimators
import rabizeta.paths as paths
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
        # one solve: its delta is the largest relative bracket of the levels
        ((n_start, d_start),) = meta["refinement"]
        assert n_start == meta["n_max"] and d_start <= meta["rel_tol"]
        energies = [row[2] for row in record["rows"]]
        assert 0.0 < meta["max_bracket"] <= d_start * max(1.0, *map(abs, energies))
        # the cutoffs tried and the brackets are metadata, outside the configuration digest
        options = {k: v for k, v in meta.items()
                   if k not in ("n_max", "converged_count", "refinement", "max_bracket")}
        assert record["config_hash"] == config_hash("spectrum", options)

    def test_python_m_entry_point(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
        env["PYTHONPATH"] = str(Path(rabizeta.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "rabizeta", "spectrum", "--levels", "4"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "shifted_energy" in out.stdout


#: (argv, the options the command declares) for every command
OPTION_CASES = [
    (["spectrum", "--levels", "3"], {"delta", "g", "eps", "levels", "variant", "rel_tol"}),
    (["zeta", "--variant", "full", "--n-head", "40"],
     {"delta", "g", "eps", "tau", "s", "n_head", "variant"}),
    (["limits", "zeta", "--variant", "full", "--g-grid", "2,4", "--n-head", "40"],
     {"delta", "eps", "variant", "g_grid", "tau", "s", "n_head"}),
    (["limits", "levels", "--variant", "full", "--g-grid", "4", "--levels", "1"],
     {"delta", "eps", "variant", "g_grid", "levels"}),
    (["fk", "vacuum", "--n", "400"], {"delta", "g", "n", "seed", "t"}),
    (["fk", "partition", "--n", "400"], {"delta", "g", "n", "seed", "t"}),
    (["fk", "energy", "--n", "400"], {"delta", "g", "n", "seed", "t_grid"}),
    (["fk", "kernel", "--n", "400"], {"delta", "g", "n", "seed", "t", "m", "x", "y"}),
    (["fk", "gibbs", "--n", "400"], {"delta", "g", "n", "seed", "T", "beta"}),
    (["fk", "number", "--n", "400"], {"delta", "g", "n", "seed", "T", "m"}),
    (["fk", "xchar", "--n", "400"], {"delta", "g", "n", "seed", "T", "beta"}),
    (["fk", "xsquare", "--n", "400"], {"delta", "g", "n", "seed", "T", "beta"}),
    (["fk", "spin-corr", "--n", "400"], {"delta", "g", "n", "seed", "T", "lag"}),
    (["fk", "dump", "--n", "40"], {"delta", "g", "n", "seed", "T", "out"}),
    (["x1", "--n", "2000"], {"delta", "n", "seed"}),
    (["report", "--quick", "--no-compute"], {"seed", "quick"}),
]


@pytest.mark.parametrize("argv, declared", OPTION_CASES,
                         ids=[" ".join(argv) for argv, _ in OPTION_CASES])
def test_meta_is_the_parsed_options(tmp_path, monkeypatch, argv, declared):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, text = run_cli(tmp_path, *argv, fmt="json")
    assert code == 0
    record = json.loads(text)
    options = {k: v for k, v in record["meta"].items()
               if k not in ("n_max", "converged_count", "refinement", "max_bracket", "series")}
    parsed = cli.build_parser().parse_args(argv)
    expected = {k: getattr(parsed, k) for k in declared}
    expected = {k: repr(v) if isinstance(v, complex) else v for k, v in expected.items()}
    assert options == expected
    command = "/".join(argv[:2]) if argv[0] in ("fk", "limits") else argv[0]
    assert record["config_hash"] == config_hash(command, options)


#: Usage errors: options a command does not read (a config file supplies
#: ``beta``), a group without its command (``limits`` with no table, also in
#: the retired ``--table`` spelling, which has no alias), a bad value, a bad
#: choice, a config file that does not exist, empty grids, output files in a
#: directory that does not exist (``MISSING``) and a cache directory that
#: cannot be created because a file stands in its path (``BLOCKED``).
USAGE_ERRORS = [
    ("spectrum", "--seed", "1"),
    ("spectrum", "--tau", "2"),
    ("limits", "zeta", "--g", "3"),
    ("limits", "levels", "--s", "3"),
    ("limits", "--g", "3"),
    ("limits", "--table", "levels", "--s", "3"),
    ("fk", "vacuum", "--beta", "2"),
    ("fk", "energy", "--t", "3"),
    ("fk", "gibbs", "--m", "2"),
    ("zeta", "--seed", "1"),
    ("--config", "CONFIG", "fk", "vacuum"),
    ("limits", "zeta", "--levels", "3"),
    ("limits",),
    ("limits", "--levels", "3"),
    ("spectrum", "--levels", "abc"),
    ("spectrum", "--variant", "bogus"),
    ("--config", "missing.cfg", "spectrum"),
    ("limits", "zeta", "--g-grid", ""),
    ("limits", "levels", "--g-grid", ""),
    ("limits", "--g-grid", ""),
    ("limits", "--table", "levels", "--g-grid", ""),
    ("fk", "energy", "--t-grid", ","),
    ("spectrum", "--output", "MISSING"),
    ("--output", "MISSING", "limits"),
    ("fk", "dump", "--out", "MISSING"),
    ("report", "--quick", "--cache-dir", "BLOCKED"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_is_one_line(tmp_path, monkeypatch, capsys, solves, argv):
    monkeypatch.chdir(tmp_path)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved or sampled before the options were checked")

    for name in ("adaptive_spectrum", "zeta_variant_value", "zeta_limit_table",
                 "eigenvalue_limit_table", "ground_state", "build_ground_ensemble",
                 "vacuum_element_fk", "vacuum_element_ed", "ground_energy_fk",
                 "acceptance_rows"):
        monkeypatch.setattr(cli, name, no_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 2\n")
    (tmp_path / "file").write_text("")
    words = {"CONFIG": cfg, "MISSING": tmp_path / "missing" / "out.csv",
             "BLOCKED": tmp_path / "file" / "cache"}
    argv = [str(words[word]) if word in words else word for word in argv]
    # a failing command leaves an existing output file as it was
    (tmp_path / "record.out").write_text("kept\n")
    code, text = run_cli(tmp_path, *argv)
    assert code == 2 and text == "kept\n" and solves == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """Every line of the README's command-line block but ``report``."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words[1:] for words in lines if words and words[1] != "report"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", str(tmp_path / "record.out")]) == 0


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

    def test_head_below_the_degeneracy_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the head size was checked")

        monkeypatch.setattr(zeta, "adaptive_spectrum", no_solve)
        for command in (("zeta",), ("limits", "zeta")):
            code, text = run_cli(tmp_path, *command, "--n-head", "0")
            assert code == 2 and text == ""
            assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [("zeta", "--s", "0.5", "--g", "3"),
                                      ("limits", "zeta", "--s", "0.5"),
                                      ("limits", "zeta", "--s", "0")])
    def test_divergent_sum_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before Re(s) was checked")

        monkeypatch.setattr(zeta, "adaptive_spectrum", no_solve)
        code, text = run_cli(tmp_path, *argv)
        assert code == 2 and text == ""
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Re(s) > 1" in err[0]

    def test_untilted_variant_refuses_eps(self, tmp_path, capsys):
        # the full tail model of radius delta does not bound levels split by +-eps
        code, text = run_cli(tmp_path, "zeta", "--variant", "full", "--eps", "0.25")
        assert code == 2 and text == ""
        assert "use 'asymmetric'" in capsys.readouterr().err


class TestLimitsCommand:
    def test_parity_monotone_deviation(self, tmp_path):
        code, text = run_cli(tmp_path, "limits", "zeta", "--variant", "parity+",
                             "--g-grid", "2,4,6,8", "--delta", "0.5", fmt="json")
        assert code == 0
        record = json.loads(text)
        devs = [dict(zip(record["columns"], row))["deviation"] for row in record["rows"]]
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))

    @pytest.mark.parametrize("variant", ["full", "parity+", "parity-"])
    def test_untilted_variant_refuses_eps(self, tmp_path, monkeypatch, variant):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before eps was checked")

        monkeypatch.setattr(zeta, "adaptive_spectrum", no_solve)
        for table in ("zeta", "levels"):
            code, text = run_cli(tmp_path, "limits", table, "--variant", variant,
                                 "--eps", "0.25", "--g-grid", "2,4")
            assert code == 2 and text == ""

    @pytest.mark.parametrize("variant, eps, parities", [
        ("full", "0", [1, 1, -1, -1]),
        ("parity+", "0", [1, 1]),
        ("parity-", "0", [-1, -1]),
        ("asymmetric", "0.25", [1, -1, 1, -1]),
    ])
    def test_level_table_variant(self, tmp_path, variant, eps, parities):
        code, text = run_cli(tmp_path, "limits", "levels", "--variant", variant,
                             "--eps", eps, "--g-grid", "4", "--levels", "2", fmt="json")
        assert code == 0
        record = json.loads(text)
        rows = [dict(zip(record["columns"], row)) for row in record["rows"]]
        assert [r["parity"] for r in rows] == parities
        assert record["meta"]["variant"] == variant
        if variant == "asymmetric":
            assert [r["target"] for r in rows] == [-0.25, 0.25, 0.75, 1.25]

    def test_level_table_csv_cells_are_numbers(self, tmp_path):
        code, text = run_cli(tmp_path, "limits", "levels", "--g-grid", "4",
                             "--levels", "1")
        assert code == 0
        data = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert len(data) == 2
        for line in data:
            for cell in line.split(","):
                float(cell)

    def test_level_table(self, tmp_path):
        code, text = run_cli(tmp_path, "limits", "levels",
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

    # each is refused before any draw, and before the exact value is solved
    @pytest.mark.parametrize("argv", [
        ("partition", "--t", "nan"), ("vacuum", "--t", "inf"), ("energy", "--t-grid", "1,inf"),
        ("energy", "--t-grid", "4,6,6"),
        *[(quantity, *options) for quantity in ("gibbs", "number", "xchar", "xsquare", "spin-corr")
          for options in (("--T", "nan"), ("--T", "inf"), ("--T", "0"), ("--T", "-1"),
                          ("--delta", "0", "--T", "8"))],
    ], ids=" ".join)
    def test_bad_horizon_is_usage_error(self, tmp_path, monkeypatch, capsys, solves, argv):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the horizon was checked")

        monkeypatch.setattr(estimators, "_seed_streams", no_draw)
        monkeypatch.setattr(paths, "_seed_streams", no_draw)
        code, text = run_cli(tmp_path, "fk", *argv, "--n", "400")
        assert code == 2 and text == "" and solves == []
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "fk", "vacuum", "--seed", "-1", "--n", "400")
        assert code == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_complex_beta_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "fk", "xsquare", "--beta", "0.5+1j", "--n", "400")
        assert code == 2
        assert "beta must be real" in capsys.readouterr().err

    def test_xsquare_unstable_oracle_exit_code(self, tmp_path):
        # the oracle that once exited 3 here certifies (test_observables.TestReferences)
        code, text = run_cli(tmp_path, "fk", "xsquare", "--g", "1", "--beta", "0.9",
                             "--n", "400", fmt="json")
        assert code == 0
        named = dict(zip(json.loads(text)["columns"], json.loads(text)["rows"][0]))
        assert named["oracle_re"] == pytest.approx(78432834.53863283023, rel=1e-12)

    def test_xsquare_refusal_terminates(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "xsquare", "--g", "3", "--beta", "0.8",
                             "--n", "400", fmt="json")
        assert code == 0
        named = dict(zip(json.loads(text)["columns"], json.loads(text)["rows"][0]))
        assert named["oracle_re"] == pytest.approx(4.0594913544174409e31, rel=1e-12)

    def test_xsquare_past_the_double_range_exit_code(self, tmp_path, capsys, solves):
        code, text = run_cli(tmp_path, "fk", "xsquare", "--g", "7", "--beta", "0.9",
                             "--n", "400")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "past the double range" in err
        assert "Traceback" not in err
        assert len([dim for dim, k in solves if k is None]) <= 8

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
    def test_one_sample_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the sample count was checked")

        monkeypatch.setattr(rabizeta.jumplaw, "_seed_streams", no_draw)
        code, text = run_cli(tmp_path, "x1", "--n", "1")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "at least 2" in err

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
