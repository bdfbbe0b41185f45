"""CLI surface: subcommand examples, formats, caching, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rabizeta
import rabizeta.cli as cli
import rabizeta.estimators as estimators
import rabizeta.paths as paths
import rabizeta.zeta as zeta
from rabizeta.cli import ResultRecord, config_hash, main
from rabizeta.errors import DomainError
from rabizeta.model import ModelParams


def run_cli(tmp_path, *argv, fmt="csv"):
    out = tmp_path / "record.out"
    code = main([*argv, "--format", fmt, "--output", str(out)])
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
        env = {**os.environ, "PYTHONPATH": str(Path(rabizeta.__file__).resolve().parents[1])}
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
    (["report"], {"seed"}),
]


@pytest.mark.parametrize("argv, declared", OPTION_CASES,
                         ids=[" ".join(argv) for argv, _ in OPTION_CASES])
def test_meta_is_the_parsed_options(tmp_path, monkeypatch, argv, declared):
    monkeypatch.chdir(tmp_path)
    # the report case checks its options, not the battery's rows
    monkeypatch.setattr(cli, "acceptance_rows", lambda seed: [])
    code, text = run_cli(tmp_path, *argv, fmt="json")
    assert code == 0
    record = json.loads(text)
    options = {k: v for k, v in record["meta"].items()
               if k not in ("n_max", "converged_count", "refinement", "max_bracket", "series",
                            "clock_rate")}
    parsed = cli.build_parser().parse_args(argv)
    expected = {k: getattr(parsed, k) for k in declared}
    expected = {k: repr(v) if isinstance(v, complex) else v for k, v in expected.items()}
    assert options == expected
    command = "/".join(argv[:2]) if argv[0] in ("fk", "limits") else argv[0]
    assert record["config_hash"] == config_hash(command, options)


#: Usage errors: options a command does not read (``--cache-dir`` belongs to
#: ``report`` alone), a group without its command (``limits`` with no table),
#: retired spellings, which have no alias (``--table``, ``--config``,
#: ``--no-compute``, ``--quick`` with or without a value, and ``--format``
#: before the command), a bad value, a bad
#: choice, empty grids, output files in a directory that does not exist
#: (``MISSING``) and a cache directory that cannot be created because a file
#: stands in its path (``BLOCKED``).
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
    ("spectrum", "--cache-dir", "X"),
    ("--cache-dir", "X", "report"),
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
    ("fk", "energy", "--n", "1"),
    ("fk", "vacuum", "--n", "1"),
    ("fk", "partition", "--n", "1"),
    ("fk", "kernel", "--n", "1"),
    ("fk", "gibbs", "--n", "0"),
    ("spectrum", "--output", "MISSING"),
    ("--output", "MISSING", "limits"),
    ("fk", "dump", "--out", "MISSING"),
    ("report", "--cache-dir", "BLOCKED"),
    ("report", "--no-compute"),
    ("report", "--quick"),
    ("report", "--quick=1"),
    ("--format", "json", "spectrum"),
]


@pytest.mark.parametrize("argv", [("--format", "json", "spectrum"), ("--seed", "3", "report"),
                                  ("limits", "--g-grid", "2,4", "zeta")], ids=" ".join)
def test_an_option_before_the_command_says_where_options_go(capsys, argv):
    # argparse alone read the option's value as the command name:
    # "argument subcommand: invalid choice: 'json'"
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    option = next(word for word in argv if word.startswith("--"))
    assert len(err.strip().splitlines()) == 1
    assert f"{option} comes before the command: options follow the command name" in err


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
    (tmp_path / "file").write_text("")
    words = {"MISSING": tmp_path / "missing" / "out.csv",
             "BLOCKED": tmp_path / "file" / "cache"}
    argv = [str(words[word]) if word in words else word for word in argv]
    # a failing command leaves an existing output file as it was
    (tmp_path / "record.out").write_text("kept\n")
    code, text = run_cli(tmp_path, *argv)
    assert code == 2 and text == "kept\n" and solves == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


#: Inputs that are not finite, or a tolerance that is not positive: usage
#: errors, each refused before any draw or eigensolve.
NON_FINITE_INPUTS = [
    ("spectrum", "--levels", "2", "--rel-tol", "nan"),
    ("spectrum", "--levels", "2", "--rel-tol", "-1"),
    ("fk", "kernel", "--t", "nan"),
    ("fk", "kernel", "--t", "inf"),
    ("fk", "kernel", "--x", "nan"),
    ("zeta", "--s", "nan"),
    ("zeta", "--s", "inf"),
    ("zeta", "--s", "2+nanj"),
    ("limits", "zeta", "--s", "nan"),
    ("fk", "spin-corr", "--lag", "nan"),
]


@pytest.mark.parametrize("argv", NON_FINITE_INPUTS, ids=" ".join)
def test_non_finite_input_is_usage_error(tmp_path, monkeypatch, capsys, solves, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the input was checked")

    for module in (estimators, paths, rabizeta.kernels, rabizeta.jumplaw):
        monkeypatch.setattr(module, "_seed_streams", no_draw)
    code, text = run_cli(tmp_path, *argv)
    assert code == 2 and text == "" and solves == []
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


def _readme_option_rows() -> list[tuple[list[str], set[str]]]:
    """The README's option table: (the commands of a row, the flags it names)."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split(" | ") for line in section.splitlines()
            if line.strip().startswith("| `")]
    return [(re.findall(r"`([^`]+)`", commands), set(re.findall(r"--[\w-]+", flags)))
            for commands, flags in rows]


def _leaf_parsers(parser, words=()) -> dict[str, argparse.ArgumentParser]:
    """Every command's parser, by its words (``fk vacuum``)."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return {" ".join(words): parser}
    return {name: leaf for word, sub in groups[0].choices.items()
            for name, leaf in _leaf_parsers(sub, (*words, word)).items()}


def _flags(parser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings}


@pytest.mark.parametrize("commands, flags", _readme_option_rows(),
                         ids=[", ".join(commands) for commands, _ in _readme_option_rows()])
def test_readme_option_table_matches_the_parser(commands, flags):
    parser = cli.build_parser()
    leaves = _leaf_parsers(parser)
    for command in commands:
        # every command also takes --format and --output, after its name, and --help
        declared = _flags(leaves[command]) - _flags(parser)
        assert declared == flags | {"--format", "--output"}, command


def test_readme_option_table_names_every_command():
    named = [command for commands, _ in _readme_option_rows() for command in commands]
    assert sorted(named) == sorted(_leaf_parsers(cli.build_parser()))


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


#: The argument of each ensemble quantity at which every path gives exactly 1;
#: ``number`` has none (its order m is at least 1).
TRIVIAL_ARGUMENTS = {"xchar": "0", "xsquare": "0", "gibbs": "0", "spin-corr": "0"}


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
        *[(row.leaf, *options) for row in cli._OBSERVABLES
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

    @pytest.mark.parametrize("g, beta", [(1.0, "0.99"), (1.5, "0.98"), (2.0, "0.98")])
    def test_xsquare_rounding_floor_exit_code(self, tmp_path, capsys, solves, g, beta):
        # the oracle's rounding floor of underflowed components only grows
        # with the cutoff here, by sqrt(rho) a level (rho = 99 and 199), and
        # passes sqrt(tol) only near level 300: the tenth cutoff from the start
        code, text = run_cli(tmp_path, "fk", "xsquare", "--g", str(g), "--beta", beta,
                             "--n", "400")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "rounding floor" in err
        assert "Traceback" not in err
        assert len([dim for dim, k in solves if k is None]) <= 10

    def test_xchar_beta_limit(self):
        # e^(-beta^2/4) reaches the oracle's tolerance at 2 sqrt(ln(1/tol))
        limit = 2.0 * np.sqrt(np.log(1e10))
        cli._check_xchar_beta(8.0, limit)
        cli._check_xchar_beta(8.0, -9.5)
        for beta in (np.nextafter(limit, 20.0), -16.0, np.nan):
            with pytest.raises(DomainError):
                cli._check_xchar_beta(8.0, beta)

    @pytest.mark.parametrize("argv", [
        ("xsquare", "--beta", "0.5+1j"),
        ("xsquare", "--beta", "1.5"),
        ("xchar", "--beta", "1j"),
        ("xchar", "--beta", "12"),
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

    def test_dump_round_trips_the_ensemble(self, tmp_path):
        # each record is one whole path on [-T, T], read back as the oracle's
        # path: its signs, weight and sign at -T are the ensemble's
        from path_oracles import JumpPath

        dump = tmp_path / "paths.jsonl"
        code, _ = run_cli(tmp_path, "fk", "dump", "--g", "1", "--n", "300", "--T", "4",
                          "--seed", "5", "--out", str(dump))
        assert code == 0
        ens = paths.build_ground_ensemble(ModelParams(0.5, 1.0), 300, 4.0, seed=5)
        records = [json.loads(line) for line in dump.read_text().splitlines()]
        walked = [JumpPath(alpha0=r["alpha0"], horizon=tuple(r["horizon"]), jumps=r["jumps"])
                  for r in records]
        assert [r["log_weight"] for r in records] == ens.log_weights.tolist()
        assert [path.alpha0 for path in walked] == ens.alpha0.tolist()
        T = ens.half_width
        for time in (-T / 2, T / 2, -1.0, 1.0, -1e-3, 1e-3):
            assert [path.sign_at(time) for path in walked] == ens.signs_at(time).tolist()

    def test_dump_row_names_the_clock_rate(self, tmp_path):
        code, text = run_cli(tmp_path, "fk", "dump", "--g", "1", "--n", "50", "--T", "4",
                             "--out", str(tmp_path / "paths.jsonl"), fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert named["rate"] == paths._clock_rate(ModelParams(0.5, 1.0)) == 0.25

    @pytest.mark.parametrize("quantity", [row.leaf for row in cli._OBSERVABLES])
    @pytest.mark.parametrize("g", ["0.5", "1"])
    def test_ensemble_meta_names_the_clock_rate(self, tmp_path, quantity, g):
        code, text = run_cli(tmp_path, "fk", quantity, "--g", g, "--n", "400", fmt="json")
        assert code == 0
        meta = json.loads(text)["meta"]
        assert meta["clock_rate"] == paths._clock_rate(ModelParams(0.5, float(g)))

    @pytest.mark.parametrize("n", ["1", "400"])
    @pytest.mark.parametrize("leaf", [(row.leaf, row.option[0], TRIVIAL_ARGUMENTS[row.leaf])
                                      for row in cli._OBSERVABLES
                                      if row.leaf in TRIVIAL_ARGUMENTS])
    def test_trivial_points_read_z_zero(self, tmp_path, leaf, n):
        # every path gives exactly 1 (stderr 0); the ED value is 1 within its rounding
        code, text = run_cli(tmp_path, "fk", *leaf, "--n", n, fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert (named["value_re"], named["stderr"]) == (1.0, 0.0)
        assert named["oracle_re"] != 1.0 and abs(named["oracle_re"] - 1.0) < 1e-15
        assert named["z"] == 0.0

    def test_battery_rows_are_the_leaves(self, tmp_path, monkeypatch):
        # each fk row of the battery reads the z of `fk <leaf>` at its argument
        monkeypatch.setattr(cli.AcceptanceBattery, "N_MC", 20_000)
        battery = {row[0]: row[2] for row in cli.AcceptanceBattery(paths.DEFAULT_SEED).run("fk")}
        flags = {row.leaf: row.option[0] for row in cli._OBSERVABLES}
        for name, leaf, arg in cli.AcceptanceBattery.ENSEMBLE_POINTS:
            argv = ["fk", leaf, "--g", "1", "--n", "20000", flags[leaf], repr(arg)]
            code, text = run_cli(tmp_path, *argv, fmt="json")
            assert code == 0
            record = json.loads(text)
            z = dict(zip(record["columns"], record["rows"][0]))["z"]
            # `fk gibbs` parses --beta -0.5 as complex where the battery holds a
            # float: gibbs_number_fk takes the real arithmetic at either
            assert z == battery[f"fk/{name}"], name

    def test_one_path_misses_the_number_moment(self, tmp_path):
        # one path: a constant estimand with stderr 0, far from the exact value
        code, text = run_cli(tmp_path, "fk", "number", "--n", "1", fmt="json")
        assert code == 0
        record = json.loads(text)
        named = dict(zip(record["columns"], record["rows"][0]))
        assert named["stderr"] == 0.0
        assert named["z"] == float("inf")


class TestX1Command:
    def test_one_sample_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the sample count was checked")

        monkeypatch.setattr(rabizeta.jumplaw, "_seed_streams", no_draw)
        code, text = run_cli(tmp_path, "x1", "--n", "1")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "at least 2" in err

    def test_two_samples_give_an_infinite_cov_z(self, tmp_path):
        # the two centered products of two samples are equal, so the cov row's
        # stderr is exactly 0, and its z follows MCEstimate.z_score
        code, text = run_cli(tmp_path, "x1", "--n", "2", fmt="json")
        assert code == 0
        rows = {row[0]: row for row in json.loads(text)["rows"]}
        assert rows["cov(X1,X2)"][3:] == [0.0, float("inf")]

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
    def test_report_uses_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        # seed the cache with a fabricated report so no computation happens
        from rabizeta.cli import ResultRecord as RR, config_hash as ch

        digest = ch("report", {"seed": 1})
        fake = RR(config_hash=digest, quantity="report", anchor="cached",
                  columns=["check"], rows=[["cached-run"]], timestamp="t")
        (cache / f"{digest}.json").write_text(fake.to_json())
        out = tmp_path / "o.json"
        code = main(["report", "--cache-dir", str(cache), "--seed", "1",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["rows"] == [["cached-run"]]

    def test_report_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        failing = [["forced", "a check that fails", 1.0, 0.0, "FAIL"]]
        monkeypatch.setattr(cli, "acceptance_rows", lambda seed: failing)
        out = tmp_path / "o.json"
        argv = ["report", "--cache-dir", str(tmp_path / "cache"), "--seed", "3",
                "--format", "json", "--output", str(out)]
        assert main(argv) == 4
        cold = json.loads(out.read_text())
        assert cold["rows"][0][-1] == "FAIL"
        assert len(os.listdir(tmp_path / "cache")) == 1

        def recompute(seed):
            raise AssertionError("cached report recomputed")

        monkeypatch.setattr(cli, "acceptance_rows", recompute)
        assert main(argv) == 4
        assert json.loads(out.read_text()) == cold
        assert "1 checks FAILED" in capsys.readouterr().err

    def test_report_from_other_sources_is_recomputed(self, tmp_path, monkeypatch):
        # a record cached by different code must not be served to this code
        calls = []

        def stub(seed):
            calls.append(seed)
            return [["stub", "a check that passes", 0.0, 1.0, "PASS"]]

        monkeypatch.setattr(cli, "acceptance_rows", stub)
        argv = ["report", "--cache-dir", str(tmp_path / "cache"), "--seed", "6",
                "--format", "json", "--output", str(tmp_path / "o.json")]
        with monkeypatch.context() as older:
            older.setattr(cli, "_source_fingerprint", lambda: "older sources")
            assert main(argv) == 0
        assert main(argv) == 0
        assert calls == [6, 6]
        assert len(os.listdir(tmp_path / "cache")) == 2

    def test_truncated_entry_is_recomputed(self, tmp_path, monkeypatch):
        # a run killed while writing must not break every later run with its options
        passing = [["stub", "a check that passes", 0.0, 1.0, "PASS"]]
        monkeypatch.setattr(cli, "acceptance_rows", lambda seed: passing)
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / f"{config_hash('report', {'seed': 7})}.json"
        entry.write_text('{"config_hash": "x", "rows": [')
        out = tmp_path / "o.json"
        assert main(["report", "--cache-dir", str(cache), "--seed", "7",
                     "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["rows"] == passing
        assert ResultRecord.from_json(entry.read_text()).rows == passing
        assert os.listdir(cache) == [entry.name]

    def test_directory_in_place_of_an_entry_is_usage_error(self, tmp_path, monkeypatch,
                                                           capsys):
        # unreadable: a miss; irreplaceable: one error line, exit 2, no partial file left
        passing = [["stub", "a check that passes", 0.0, 1.0, "PASS"]]
        monkeypatch.setattr(cli, "acceptance_rows", lambda seed: passing)
        cache = tmp_path / "cache"
        entry = cache / f"{config_hash('report', {'seed': 8})}.json"
        entry.mkdir(parents=True)
        code = main(["report", "--cache-dir", str(cache), "--seed", "8",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and entry.name in err
        assert "Traceback" not in err
        assert os.listdir(cache) == [entry.name] and entry.is_dir()


class TestBatteryWorkingSets:
    """The battery's path ensemble lives only while its estimates are formed."""

    def test_fk_leaves_no_ensemble_and_x1_does_not_stack_on_it(self):
        # at 1e5 paths the ensemble alone holds 8.0 MB: it must be garbage
        # once fk returns, and no later group's working set may stack on it
        battery = cli.AcceptanceBattery(paths.DEFAULT_SEED)
        battery.gs, battery.vacuum  # warm: built before the trace
        peaks = {}
        tracemalloc.start()
        try:
            for group in ("fk", "x1", "kernels", "parity"):  # in report order
                tracemalloc.reset_peak()
                battery.run(group)
                held, peaks[group] = tracemalloc.get_traced_memory()
                if group == "fk":
                    assert held < 1e6
        finally:
            tracemalloc.stop()
        # one lean working set each: the ensemble's arrays plus one seed
        # stream's draws, rank pass or estimate scratch (12.1 MB when each
        # estimate's values spanned the sample, 15.4 MB before the
        # estimators worked in place), and X1 draws whose pair is dropped
        # for a copy of X1 before its KS statistic (8.1 MB while the pair and
        # the last moment's draws stayed alive under it)
        assert peaks["fk"] <= 9.8e6
        assert peaks["x1"] <= 5.0e6
        # the fk group stays the battery's peak
        assert max(peaks["x1"], peaks["kernels"], peaks["parity"]) < peaks["fk"]

    @staticmethod
    def spy_calls(monkeypatch, names):
        calls = []
        for name in names:
            original = getattr(cli, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(f"rabizeta.cli.{name}", spy)
        return calls

    def test_fk_draws_its_own_paths_before_the_ensemble(self, monkeypatch):
        monkeypatch.setattr(cli.AcceptanceBattery, "N_MC", 20_000)
        # the estimators on the ensemble are reached through the module's
        # globals, so a wrapper installed on each name sees each of its calls
        on_ensemble = ["gibbs_number_fk", "number_moments_fk", "x_characteristic_fk",
                       "gaussian_square_fk", "spin_correlation_fk"]
        calls = self.spy_calls(monkeypatch, ["vacuum_element_fk", "partition_fk",
                                             "ground_energy_fk", "build_ground_ensemble",
                                             *on_ensemble])
        cli.AcceptanceBattery(paths.DEFAULT_SEED).run("fk")
        assert calls == ["vacuum_element_fk", "partition_fk", "ground_energy_fk",
                         "build_ground_ensemble",
                         "gibbs_number_fk", "gibbs_number_fk",
                         "number_moments_fk", "number_moments_fk",
                         "x_characteristic_fk", "gaussian_square_fk",
                         "spin_correlation_fk", "spin_correlation_fk"]

    @pytest.mark.parametrize("groups", [("fk", "parity"), ("parity", "fk"), ("parity",)])
    def test_one_ensemble_whatever_the_groups(self, monkeypatch, groups):
        monkeypatch.setattr(cli.AcceptanceBattery, "N_MC", 20_000)
        calls = self.spy_calls(monkeypatch, ["build_ground_ensemble"])
        battery = cli.AcceptanceBattery(paths.DEFAULT_SEED)
        for group in groups:
            battery.run(group)
        assert calls == ["build_ground_ensemble"]
