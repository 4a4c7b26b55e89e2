import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ering import cli, figures
from ering.cli import main
from ering.states import (
    density_matrix_from_dict,
    density_matrix_to_dict,
    mems,
    projector,
    singlet,
    werner,
)
from ering.tomography import exact_tomography_counts, simulate_tomography, tomo_data_to_csv


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    return main(list(argv))


def run_python(*args):
    """Run a fresh interpreter that imports ering from this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_state_werner_report(capsys):
    assert run_cli("state", "werner", "--p", "0.82") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangle"] == pytest.approx(0.5329, abs=1e-9)
    assert report["linear_entropy"] == pytest.approx(0.3276, abs=1e-9)
    assert report["fidelity_to_singlet"] == pytest.approx((3 * 0.82 + 1) / 4, abs=1e-7)
    assert report["region"] == "violates_local_realism"
    assert report["s_max_abs"] == pytest.approx(2 * math.sqrt(2) * 0.82, abs=1e-6)
    rho = density_matrix_from_dict(report["state"])
    assert np.allclose(rho, werner(0.82))


def test_state_mems_report(capsys):
    assert run_cli("state", "mems", "--p", "0.45") == 0
    report = json.loads(capsys.readouterr().out)
    rho = density_matrix_from_dict(report["state"])
    assert np.allclose(rho, mems(0.45))
    assert report["tangle"] == pytest.approx(0.45**2, abs=1e-9)


def test_state_bell_projector(capsys):
    assert run_cli("state", "bell", "--kind", "phi", "--phi", "3.14159") == 0
    report = json.loads(capsys.readouterr().out)
    rho = density_matrix_from_dict(report["state"])
    expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    expected[0, 3] = expected[3, 0] = -0.5
    assert np.abs(rho - expected).max() < 1e-5  # truncated pi on the CLI
    assert "region" not in report


def test_state_domain_error_exit_code(capsys):
    assert run_cli("state", "werner", "--p", "1.5") == 1
    assert "error" in capsys.readouterr().err


def test_theta_p_error_names_degrees(capsys):
    assert run_cli("state", "nonmax", "--theta-p", "90") == 1
    err = capsys.readouterr().err
    assert "theta_p must be in [0, pi/4] rad (0 to 45 deg), got 1.5708 rad (90 deg)" in err


def test_unknown_family_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("state", "ghz")
    assert exc.value.code == 2


def test_figure_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run_cli("figure", "3", "--out-dir", "/tmp/x")
    assert exc.value.code == 2


def test_figure3_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("figure", "3", "--seed", "5", "--out-dir", str(d1)) == 0
    assert run_cli("figure", "3", "--seed", "5", "--out-dir", str(d2)) == 0
    capsys.readouterr()
    assert (d1 / "fig3.csv").read_bytes() == (d2 / "fig3.csv").read_bytes()
    lines = (d1 / "fig3.csv").read_text().splitlines()
    assert lines[0] == "x_um,normalized_coincidence"
    manifest = json.loads((d1 / "fig3.manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["outputs"] == [str(d1 / "fig3.csv")]
    assert "config" in manifest and "wall_clock_s" in manifest


def test_figure3_grid_is_the_linspace_grid(tmp_path, capsys, monkeypatch):
    """Figure 3 scans np.linspace(-100e-6, 100e-6, 101) bit for bit, without numpy."""
    from ering import optics

    grids = []
    scan = optics.ou_mandel_scan
    monkeypatch.setattr(optics, "ou_mandel_scan", lambda phi, x, c: grids.append(x) or scan(phi, x, c))
    assert run_cli("figure", "3", "--seed", "1", "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    (grid,) = grids
    assert all(type(x) is float for x in grid)
    assert np.array(grid).tobytes() == np.linspace(-100e-6, 100e-6, 101).tobytes()


@pytest.mark.parametrize(
    "argv, lower",
    [
        (("bell", "simulate", "--family", "singlet", "--duration", "1e300", "--out", "x.csv"),
         "--duration or --set pair_rate="),
        (("figure", "2", "--duration", "1e300"), "--duration or --set pair_rate="),
        (("tomo", "simulate", "--family", "singlet", "--counts", "100000000000000000000",
          "--out", "t.csv"), "--counts"),
        (("figure", "8", "--counts-per-setting", "100000000000000000000"), "--counts-per-setting"),
        (("figure", "3", "--counts-per-point", "100000000000000000000"), "--counts-per-point"),
        (("figure", "4", "--duration", "1e300"), "--duration or --set pair_rate="),
        (("figure", "11", "--counts-per-setting", "100000000000000000000"), "--counts-per-setting"),
        (("figure", "12", "--duration", "1e300"), "--duration or --set pair_rate="),
        (("bell", "simulate", "--family", "singlet", "--set", "pair_rate=1e20", "--out", "x.csv"),
         "--duration or --set pair_rate="),
    ],
)
def test_poisson_limit_is_named(argv, lower, tmp_path, monkeypatch, capsys):
    """Each command names the flag that sets its mean counts."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--seed", "1") == 1
    err = capsys.readouterr().err
    assert re.search(r"largest mean count [0-9.e+]+ is above the Poisson limit 9\.22337e\+18", err)
    assert err.endswith(f"; lower {lower}\n")


def test_overflowing_pair_rate_is_named(tmp_path, monkeypatch, capsys):
    """A pair rate whose mean counts overflow a float exits 1 before numpy warns about it."""
    monkeypatch.chdir(tmp_path)
    argv = ("bell", "simulate", "--family", "singlet", "--set", "pair_rate=1e300", "--out", "x.csv")
    assert run_cli(*argv, "--seed", "1") == 1
    err = capsys.readouterr().err
    assert err == "error: the mean counts overflow a float; lower --duration or --set pair_rate=\n"
    assert not (tmp_path / "x.csv").exists()


def test_manifest_records_main_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["x", "--unrelated", "x"])
    argv = ["figure", "3", "--seed", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig3.manifest.json").read_text())
    assert manifest["command"] == ["ering", *argv]


def test_figure12_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["figure", "12", "--seed", "9", "--duration", "2"]
    assert run_cli(*args, "--out-dir", str(d1)) == 0
    assert run_cli(*args, "--out-dir", str(d2)) == 0
    capsys.readouterr()
    assert (d1 / "fig12.csv").read_bytes() == (d2 / "fig12.csv").read_bytes()
    rows = (d1 / "fig12.csv").read_text().splitlines()
    assert rows[0] == "p,abs_S,sigma_S"
    # simulated points stay at or below the ideal 2 sqrt(2) p line
    for row in rows[1:]:
        p, abs_s, sigma = (float(v) for v in row.split(","))
        assert abs_s <= 2 * math.sqrt(2) * p + 5 * sigma


def test_figure2_fringe(tmp_path, capsys):
    assert run_cli("figure", "2", "--seed", "3", "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    rows = (tmp_path / "fig2.csv").read_text().splitlines()
    assert rows[0] == "theta1_deg,coincidences"
    data = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    # phi- pair with theta2 = 45 deg: minimum near theta1 = 45, maximum near 135
    assert data[45.0] < data[135.0] / 10


def test_figure4_columns(tmp_path, capsys):
    assert run_cli("figure", "4", "--seed", "3", "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    rows = (tmp_path / "fig4.csv").read_text().splitlines()
    assert rows[0] == "r_mm,visibility,rate_hz"
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert last[2] > first[2]  # rate grows with the iris
    assert last[2] > 4e3
    assert 0.9 < last[1] <= 1.0


def test_figure_config_override_recorded(tmp_path, capsys):
    assert (
        run_cli(
            "figure", "3", "--seed", "1", "--out-dir", str(tmp_path),
            "--set", "filter_bandwidth=3e-9",
        )
        == 0
    )
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig3.manifest.json").read_text())
    assert manifest["config"]["filter_bandwidth"] == pytest.approx(3e-9)


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"visibility": 0.5}))
    monkeypatch.setenv("ERING_CONFIG", str(cfg))
    assert run_cli("figure", "3", "--seed", "1", "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig3.manifest.json").read_text())
    assert manifest["config"]["visibility"] == 0.5


def test_config_env_var_suppresses_figure_visibility_default(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"visibility": 1.0}))
    monkeypatch.setenv("ERING_CONFIG", str(cfg))
    args = ["figure", "12", "--seed", "1", "--duration", "2"]
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig12.manifest.json").read_text())
    assert manifest["config"]["visibility"] == 1.0


def test_figure_visibility_default_without_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ERING_CONFIG", raising=False)
    args = ["figure", "12", "--seed", "1", "--duration", "2"]
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig12.manifest.json").read_text())
    assert manifest["config"]["visibility"] == 0.94


def test_non_finite_config_value_exit_1(capsys):
    assert run_cli("source", "--set", "pair_rate=nan") == 1
    assert "pair_rate must be finite" in capsys.readouterr().err


def test_negative_counts_per_point_exit_1(tmp_path, capsys):
    args = ["figure", "3", "--seed", "1", "--out-dir", str(tmp_path)]
    assert run_cli(*args, "--counts-per-point", "-5") == 1
    assert "counts-per-point" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("figure", "3", "--counts-per-point", "-5"), "--counts-per-point must be nonnegative"),
        (("figure", "2", "--duration", "0"), "--duration must be positive"),
        (("figure", "12", "--duration", "-1"), "--duration must be positive"),
        (("figure", "8", "--counts-per-setting", "0"), "error: --counts-per-setting must be positive\n"),
    ],
)
def test_rejected_figure_run_creates_no_directory(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(*argv, "--seed", "1", "--out-dir", str(out_dir)) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("counts", ["0", "-3"])
def test_tomo_simulate_non_positive_counts_names_the_flag(counts, tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["tomo", "simulate", "--family", "singlet", "--counts", counts, "--seed", "1"]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --counts must be positive\n"
    assert not list(tmp_path.iterdir())


def test_figure_rows_are_the_rows_the_cli_writes(tmp_path, capsys, monkeypatch):
    """The library call, without argparse, gives the rows of the CLI's CSV, byte for byte."""
    from ering import csvfile
    from ering.figures import FIGURES, default_config, figure_rows

    monkeypatch.delenv("ERING_CONFIG", raising=False)
    for argv, fig_id, params in (
        (["--duration", "2"], "12", {"duration": 2.0}),
        ([], "3", {}),
        (["--phi", "1.2", "--counts-per-point", "500"], "3", {"phi": 1.2, "counts_per_point": 500}),
    ):
        out_dir = tmp_path / "cli"
        assert run_cli("figure", fig_id, "--seed", "4", *argv, "--out-dir", str(out_dir)) == 0
        capsys.readouterr()
        library = tmp_path / f"lib{fig_id}.csv"
        rows = figure_rows(fig_id, default_config(fig_id), 4, **params)
        csvfile.write(library, FIGURES[fig_id].header, rows)
        assert library.read_bytes() == (out_dir / f"fig{fig_id}.csv").read_bytes(), argv


def test_figure_rows_reject_nan_in_every_parameter():
    from ering.figures import FIGURES, default_config, figure_rows

    for fig_id, figure in FIGURES.items():
        for name in figure.params:
            with pytest.raises(ValueError, match="must be"):
                figure_rows(fig_id, default_config(fig_id), 0, **{name: math.nan})


def test_figure_help_lists_the_table(capsys):
    with pytest.raises(SystemExit):
        run_cli("figure", "--help")
    (ids,) = re.findall(r"\{([^}]*)\}", capsys.readouterr().out.split("\n\n")[0])
    assert ids.split(",") == list(figures.FIGURES)


def test_state_has_no_seed_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("state", "werner", "--p", "0.5", "--seed", "1")
    assert exc.value.code == 2


NEGATIVE_SEEDS = [
    ("bell", "simulate", "--family", "singlet", "--seed", "-1", "--out", "x.csv"),
    ("tomo", "simulate", "--family", "singlet", "--seed", "-1", "--out", "x.csv"),
    ("figure", "8", "--seed", "-1"),
    ("figure", "12", "--seed", "-1"),
    ("tomo", "reconstruct", "--data", "in.csv", "--seed", "-7"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "3", "--seed", "1", "--jobs", "1"),
        ("tomo", "simulate", "--family", "file", "--seed", "1", "--out", "x.csv"),
        ("bell", "simulate", "--family", "file", "--seed", "1", "--out", "x.csv"),
        ("state", "bell", "--via", "patchwork"),
        ("state", "singlet", "--via", "patchwork"),
        ("state", "nonmax", "--via", "patchwork"),
        ("state", "tuned", "--via", "patchwork"),
        *NEGATIVE_SEEDS,
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", NEGATIVE_SEEDS, ids=" ".join)
def test_negative_seed_names_the_flag(argv, capsys):
    with pytest.raises(SystemExit):
        run_cli(*argv)
    seed = argv[argv.index("--seed") + 1]
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in err


@pytest.mark.parametrize("family", ["singlet", "file"])
@pytest.mark.parametrize("command", ["tomo", "bell"])
def test_simulate_p_without_a_weighted_family_exit_2(
    command, family, tmp_path, monkeypatch, capsys
):
    state = tmp_path / "rho.json"
    state.write_text(json.dumps(density_matrix_to_dict(werner(0.5))))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    file_flags = ["--state", str(state)] if family == "file" else []
    argv = [command, "simulate", "--family", family, *file_flags, "--seed", "1", "--out", "x.csv"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--p", "0.3")
    assert exc.value.code == 2
    assert "--p goes with --family werner or mems" in capsys.readouterr().err
    assert not list(work.iterdir())
    assert run_cli(*argv) == 0  # the same run without --p is valid


@pytest.mark.parametrize("family", ["werner", "mems"])
def test_tomo_simulate_without_p_is_p_1(family, tmp_path):
    common = ["tomo", "simulate", "--family", family, "--counts", "100", "--seed", "1", "--out"]
    assert run_cli(*common, str(tmp_path / "default.csv")) == 0
    assert run_cli(*common, str(tmp_path / "one.csv"), "--p", "1") == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


# every flag that some state family or figure id reads, with a valid value
_STATE_FLAGS = {"--p": "0.3", "--kind": "psi", "--phi": "0.5", "--theta-p": "20",
                "--fidelity": "0.9", "--a": "0.7", "--via": "formula"}
_STATE_READS = {"werner": {"--p", "--via"}, "mems": {"--p", "--via"}, "bell": {"--kind", "--phi"},
                "singlet": set(), "nonmax": {"--theta-p"}, "tuned": {"--fidelity", "--a"}}
_FIGURE_FLAGS = {"--config": "source.json", "--set": "visibility=0.5", "--duration": "50",
                 "--phi": "1", "--counts-per-point": "500", "--counts-per-setting": "100"}
_BELL_TEST = {"--config", "--set", "--duration"}
_FIGURE_READS = {"2": _BELL_TEST, "3": {"--config", "--set", "--phi", "--counts-per-point"},
                 "4": _BELL_TEST, "8": {"--counts-per-setting"}, "11": {"--counts-per-setting"},
                 "12": _BELL_TEST}
UNREAD_FLAGS = [
    *(("state", family, flag, value) for family, reads in _STATE_READS.items()
      for flag, value in _STATE_FLAGS.items() if flag not in reads),
    *(("figure", fig_id, "--seed", "1", flag, value) for fig_id, reads in _FIGURE_READS.items()
      for flag, value in _FIGURE_FLAGS.items() if flag not in reads),
    *((command, "simulate", "--family", family, "--state", "does_not_exist.json", "--seed", "1",
       "--out", "x.csv") for command in ("tomo", "bell") for family in ("werner", "mems", "singlet")),
]


def test_unread_flag_count():
    # 33 state pairs, 21 figure pairs (4 of them --config or --set on figure 8 or 11), 6 --state
    assert len(UNREAD_FLAGS) == 60


@pytest.mark.parametrize(
    "argv",
    # abbreviations: "--theta" of "--theta-p"; UNREAD_FLAGS has "state bell --p", a prefix of "--phi"
    [*UNREAD_FLAGS, ("state", "nonmax", "--theta", "20")],
    ids=" ".join,
)
def test_unread_or_abbreviated_flag_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def _readme_commands() -> list[list[str]]:
    """The ``ering ...`` lines of the README "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split("#", 1)[0].split()[1:] for line in lines if line.startswith("ering ")]


def test_readme_commands_parse():
    from ering.cli import build_parser

    commands = _readme_commands()
    assert len(commands) >= 14
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_flag_table_matches_parser():
    from ering.cli import build_parser

    def subcommand(parser, name):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [re.split(r"(?<!\\)\|", line)[1:3] for line in readme.splitlines()
            if line.startswith(("| `state", "| `figure"))]
    covered = set()
    for commands, flags in rows:
        for command in re.findall(r"`([^`]+)`", commands):
            parser = build_parser()
            for name in command.split():
                parser = subcommand(parser, name)
            declared = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
            assert set(re.findall(r"`(--[\w-]+)", flags)) == declared, command
            covered.add(command)
    assert len(covered) == 12  # six families and six figure ids


@pytest.mark.parametrize(
    "argv",
    [
        ("state", "werner", "--p", "nan"),
        ("state", "tuned", "--fidelity", "inf"),
        ("source", "--displacement-um", "nan"),
        ("figure", "3", "--seed", "1", "--phi", "nan"),
        ("figure", "12", "--seed", "1", "--duration", "nan"),
        ("tomo", "simulate", "--family", "werner", "--p", "inf", "--seed", "1", "--out", "x.csv"),
        ("bell", "simulate", "--family", "singlet", "--duration", "nan", "--seed", "1",
         "--out", "x.csv"),
        ("bell", "eval", "--counts", "x.csv", "--angles", "0", "45", "nan", "67.5"),
    ],
)
def test_non_finite_float_flag_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "JSON object"),
        ('{"basis": ["HH", "HV", "VH", "VV"], "re": [[0.25, 0, 0, 0]], "im": []}', "4x4"),
        ('{"basis": ["HH", "HV", "VH", "VV"], "re": ' + json.dumps(np.eye(4).tolist()) + "}",
         "missing 'im'"),
        ('{"basis": ["HH", "HV", "VH", "VV"], "re": [[0.25, "x", 0, 0]], "im": []}', "numbers"),
        ('{"basis": ["HH", "HV", "VH", "VV"], "re": ' + json.dumps(np.eye(4).tolist())
         + ', "im": ' + json.dumps(np.full((4, 4), np.nan).tolist()) + "}", "finite"),
        ('{"basis": ["VV"], "re": [], "im": []}', "basis"),
        ('{"basis": ["HH", "HV", "VH", "VV"], "re": [[0.25, 0', "bad JSON: Expecting"),
    ],
)
def test_malformed_density_matrix_json_exit_2(text, message, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(text)
    argv = ["bell", "simulate", "--family", "file", "--state", str(state), "--seed", "1",
            "--out", str(tmp_path / "c.csv")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{state}: " in err and message in err
    data = tmp_path / "tomo.csv"
    tomo_data_to_csv(exact_tomography_counts(werner(0.5), 1e4), data)
    assert run_cli("tomo", "reconstruct", "--data", str(data), "--target", str(state)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, overrides, message",
    [
        ("[1, 2]", [], "expected a JSON object, got list"),
        ('{"alpha": null}', [], "'alpha' needs a number, got None"),
        ('{"alpha": [1]}', [], "'alpha' needs a number, got [1]"),
        ('{"bogus": 1}', [], "unknown config key 'bogus'"),
        (None, ["--set", "alpha=abc"], "'alpha' needs a number, got 'abc'"),
        ('{"visibility": true}', [], "'visibility' needs a number, got True"),
        ('{"alpha": "0.05"}', [], "'alpha' needs a number, got '0.05'"),
        ('{"alpha": 0.05', [], "bad JSON: Expecting"),
    ],
)
def test_malformed_config_exit_2(text, overrides, message, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ERING_CONFIG", raising=False)
    config = tmp_path / "c.json"
    argv = ["source", *overrides]
    if text is not None:
        config.write_text(text)
        argv += ["--config", str(config)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert (f"{config}: " in err) == (text is not None)


_NOT_UTF8 = b"\xff\xfe{"


def test_non_utf8_config_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ERING_CONFIG", raising=False)
    config = tmp_path / "bin.json"
    config.write_bytes(_NOT_UTF8)
    assert run_cli("source", "--config", str(config)) == 2
    assert f"{config}: not UTF-8 text" in capsys.readouterr().err


def test_non_utf8_state_exit_2(tmp_path, capsys):
    state = tmp_path / "bin.json"
    state.write_bytes(_NOT_UTF8)
    argv = ["bell", "simulate", "--family", "file", "--state", str(state), "--seed", "1",
            "--out", str(tmp_path / "c.csv")]
    assert run_cli(*argv) == 2
    assert f"{state}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("tomo", "reconstruct", "--data"), ("bell", "eval", "--counts")])
def test_non_utf8_csv_exit_2(command, tmp_path, capsys):
    # the first lines are valid; the bad byte sits in a later row
    path = tmp_path / "bin.csv"
    path.write_bytes(b"# duration_s 1\ntheta1_deg,theta2_deg,counts\n0,0,5\n" + _NOT_UTF8 + b"\n")
    assert run_cli(*command, str(path)) == 2
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("tomo", "reconstruct", "--data"), ("bell", "eval", "--counts")])
def test_nul_in_csv_exit_2(command, tmp_path, capsys):
    path = tmp_path / "nul.csv"
    path.write_bytes(b"# duration_s 1\ntheta1_deg,theta2_deg,counts\n0,0,5\n0,4\x005,5\n")
    assert run_cli(*command, str(path)) == 2
    assert f"error: {path}:4: line contains a NUL character" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "x", "11.25 s", ""])
def test_tomo_reconstruct_bad_flux_header_exit_2(value, tmp_path, capsys):
    path = tmp_path / "flux.csv"
    tomo_data_to_csv(exact_tomography_counts(werner(0.5), 1e4), path)
    lines = path.read_text().splitlines()
    lines[0] = f"# total_flux_estimate {value}"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("tomo", "reconstruct", "--data", str(path)) == 2
    assert "flux.csv:1: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "8", "--seed", "1", "--set", "visibility=0.5"),
        ("figure", "11", "--seed", "1", "--set", "pair_rate=1"),
        ("figure", "8", "--seed", "1", "--config", "source.json"),
    ],
)
def test_tomography_figures_reject_config_flags(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[4]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure8_low_counts_rank_one_reconstruction(tmp_path):
    # a rank-1 ML point has Tr rho^2 = 1 + 1 ulp; S_L must still be in [0, 1]
    assert run_cli(
        "figure", "8", "--seed", "2", "--counts-per-setting", "40", "--out-dir", str(tmp_path)
    ) == 0
    rows = (tmp_path / "fig8.csv").read_text().splitlines()[1:]
    assert len(rows) == 13
    assert all(0.0 <= float(row.split(",")[0]) <= 1.0 for row in rows)


def test_state_mems_zero_is_separable(capsys):
    assert run_cli("state", "mems", "--p", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["separable"] is True
    assert report["region"] == "separable_local"


def test_tomo_round_trip(tmp_path, capsys):
    data_csv = tmp_path / "tomo.csv"
    target = tmp_path / "target.json"
    report_path = tmp_path / "report.json"
    assert (
        run_cli(
            "tomo", "simulate", "--family", "werner", "--p", "0.47",
            "--counts", "10000", "--seed", "3",
            "--out", str(data_csv), "--target-out", str(target),
        )
        == 0
    )
    assert (
        run_cli(
            "tomo", "reconstruct", "--data", str(data_csv), "--seed", "0",
            "--target", str(target), "--out", str(report_path),
        )
        == 0
    )
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["physical"] is True
    assert report["fidelity_to_target"] >= 0.99
    assert report["design_condition_number"] == pytest.approx(9.749, rel=1e-3)
    assert (tmp_path / "report.manifest.json").exists()


def test_tomo_reconstruct_seed_is_optional(tmp_path, capsys):
    data_csv = tmp_path / "tomo.csv"
    assert (
        run_cli(
            "tomo", "simulate", "--family", "mems", "--p", "0.6",
            "--counts", "10000", "--seed", "4", "--out", str(data_csv),
        )
        == 0
    )
    with_seed, without_seed = tmp_path / "with.json", tmp_path / "without.json"
    assert run_cli("tomo", "reconstruct", "--data", str(data_csv), "--seed", "0",
                   "--out", str(with_seed)) == 0
    assert run_cli("tomo", "reconstruct", "--data", str(data_csv), "--out", str(without_seed)) == 0
    capsys.readouterr()
    assert without_seed.read_text() == with_seed.read_text()
    manifest = json.loads((tmp_path / "without.manifest.json").read_text())
    assert manifest["master_seed"] is None
    assert json.loads((tmp_path / "with.manifest.json").read_text())["master_seed"] == 0


def test_tomo_reconstruct_exact_counts(tmp_path, capsys):
    data = exact_tomography_counts(mems(0.77), 1e5)
    path = tmp_path / "exact.csv"
    tomo_data_to_csv(data, path)
    target = tmp_path / "target.json"
    from ering.states import save_density_matrix

    save_density_matrix(mems(0.77), target)
    assert (
        run_cli("tomo", "reconstruct", "--data", str(path), "--seed", "0", "--target", str(target))
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity_to_target"] >= 1 - 1e-8


def test_tomo_reconstruct_malformed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("setting_index,proj1,proj2,counts\n0,H,H,nope\n")
    assert run_cli("tomo", "reconstruct", "--data", str(bad), "--seed", "0") == 2
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def test_tomo_reconstruct_non_finite_counts_exit_2(tmp_path, capsys):
    data = exact_tomography_counts(werner(0.5), 1e4)
    path = tmp_path / "nan.csv"
    tomo_data_to_csv(data, path)
    lines = path.read_text().splitlines()
    lines[2] = "0,H,H,nan"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("tomo", "reconstruct", "--data", str(path), "--seed", "0") == 2
    assert "nan.csv:3" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["E(0,1e400)", "E(1e400,0)", "E(-1e400,0.5)"])
def test_tomo_reconstruct_non_finite_projector_angle_exit_2(label, tmp_path, capsys):
    data = exact_tomography_counts(werner(0.5), 1e4)
    path = tmp_path / "angle.csv"
    tomo_data_to_csv(data, path)
    lines = path.read_text().splitlines()
    lines[16] = f'14,H,"{label}",10032'
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("tomo", "reconstruct", "--data", str(path), "--seed", "0") == 2
    err = capsys.readouterr().err
    assert f"angle.csv:17: projector label {label!r} has a non-finite angle" in err


def test_tomo_reconstruct_incomplete_settings_exit_1(tmp_path, capsys):
    path = tmp_path / "one_row.csv"
    path.write_text("# total_flux_estimate 20\nsetting_index,proj1,proj2,counts\n0,H,H,5\n")
    for method in ("ml", "linear"):
        assert run_cli("tomo", "reconstruct", "--data", str(path), "--seed", "0", "--method", method) == 1
        assert "not complete" in capsys.readouterr().err


def test_tomo_reconstruct_singlet_converges(tmp_path, capsys):
    # exit 3 on this file before the Newton solve
    data = tmp_path / "singlet.csv"
    args = ["--family", "singlet", "--counts", "40000", "--seed", "1", "--out", str(data)]
    assert run_cli("tomo", "simulate", *args) == 0
    assert run_cli("tomo", "reconstruct", "--data", str(data), "--seed", "0") == 0
    capsys.readouterr()


def test_tomo_reconstruct_near_pure_werner_converges(tmp_path, capsys):
    # exit 3 while the rank finish allowed 50 Newton steps: its rank-3 solve needs 115
    data = tmp_path / "near_pure.csv"
    args = ["--family", "werner", "--p", "0.9995", "--counts", "40000", "--seed", "198"]
    assert run_cli("tomo", "simulate", *args, "--out", str(data)) == 0
    assert run_cli("tomo", "reconstruct", "--data", str(data)) == 0
    capsys.readouterr()


def test_bell_eval_duplicate_row_exit_2(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    assert (
        run_cli(
            "bell", "simulate", "--family", "singlet", "--duration", "16", "--seed", "5",
            "--out", str(counts),
        )
        == 0
    )
    capsys.readouterr()
    with open(counts, "a") as fh:
        fh.write("0,22.5,1\n")
    assert run_cli("bell", "eval", "--counts", str(counts)) == 2
    assert "duplicate" in capsys.readouterr().err


def test_bell_eval_without_duration_line_exit_2(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    run_cli("bell", "simulate", "--family", "singlet", "--duration", "16", "--seed", "5",
            "--out", str(counts))
    capsys.readouterr()
    lines = counts.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# duration_s ")
    counts.write_text("".join(lines[1:]))
    assert run_cli("bell", "eval", "--counts", str(counts)) == 2
    assert f"{counts}: no '# duration_s <value>' line" in capsys.readouterr().err


def test_bell_eval_missing_setting_exit_2(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    run_cli("bell", "simulate", "--family", "singlet", "--duration", "16", "--seed", "5",
            "--out", str(counts))
    capsys.readouterr()
    lines = counts.read_text().splitlines(keepends=True)
    counts.write_text("".join(line for line in lines if not line.startswith("0,112.5,")))
    assert run_cli("bell", "eval", "--counts", str(counts)) == 2
    err = capsys.readouterr().err
    assert str(counts) in err
    assert "theta1 = 0 deg, theta2 = 112.5 deg" in err


def test_bell_eval_zero_total_base_pair_exit_1(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    run_cli("bell", "simulate", "--family", "singlet", "--duration", "16", "--seed", "5",
            "--out", str(counts))
    capsys.readouterr()
    zeroed = ("0,22.5", "90,112.5", "0,112.5", "90,22.5")  # the base pair (0, 22.5)
    lines = counts.read_text().splitlines()
    rows = [line.rsplit(",", 1) for line in lines[2:]]  # below the comment and the header
    lines[2:] = [f"{k},{0 if k in zeroed else n}" for k, n in rows]
    counts.write_text("\n".join(lines) + "\n")
    assert run_cli("bell", "eval", "--counts", str(counts)) == 1
    assert "zero total counts" in capsys.readouterr().err


def test_tomo_reconstruct_missing_file_exit_2(tmp_path, capsys):
    assert run_cli("tomo", "reconstruct", "--data", str(tmp_path / "nope.csv"), "--seed", "0") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, target",
    [
        (["state", "werner", "--p", "0.5", "--out"], "dir"),
        (["bell", "simulate", "--family", "singlet", "--duration", "4", "--seed", "1", "--out"], "dir"),
        (["figure", "3", "--seed", "1", "--out-dir"], "file"),
    ],
)
def test_unwritable_output_path_exit_2(argv, target, tmp_path, capsys):
    path = tmp_path / "taken"
    if target == "dir":
        path.mkdir()
    else:
        path.write_text("kept\n")
    assert run_cli(*argv, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if target == "file":
        assert path.read_text() == "kept\n"


TOMO_SIMULATE = (
    "tomo simulate --family werner --p 0.5 --counts 100 --seed 1 "
    "--out {} --target-out {}"
)

#: Every output flag: the command with the flag's value as {}, the value
#: the cases start from, the file the value names and the run's manifest.
OUTPUT_FLAGS = {
    "state --out": ("state werner --p 0.5 --out {}", "r.json", "{}", "r.manifest.json"),
    "source --out": ("source --out {}", "r.json", "{}", "r.manifest.json"),
    "figure --out-dir": (
        "figure 3 --seed 1 --out-dir {}", "d", "{}/fig3.csv", "d/fig3.manifest.json"
    ),
    "tomo simulate --out": (TOMO_SIMULATE.format("{}", "t.json"), "t.csv", "{}", "t.manifest.json"),
    "tomo simulate --target-out": (
        TOMO_SIMULATE.format("t.csv", "{}"), "t.json", "{}", "t.manifest.json"
    ),
    "tomo reconstruct --out": (
        "tomo reconstruct --data in.csv --out {}", "r.json", "{}", "r.manifest.json"
    ),
    "bell simulate --out": (
        "bell simulate --family singlet --duration 4 --seed 1 --out {}",
        "c.csv", "{}", "c.manifest.json",
    ),
}

#: The value that makes two outputs of a two-output command one file.
COLLIDING = {"tomo simulate --out": "t.json", "tomo simulate --target-out": "t.manifest.json"}

CASES = ("target is a directory", "parent is missing", "parent is a file",
         "manifest is a directory", "two outputs collide", "target is a symlink loop",
         "manifest is a hard link to the output")


def _listing(root: Path) -> dict:
    """Every entry below ``root``: a file's bytes, a symlink's target, or "dir"."""
    listing = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_symlink():
            listing[rel] = ("link", os.readlink(path))
        else:
            listing[rel] = "dir" if path.is_dir() else path.read_bytes()
    return listing


def _refused_output(flag: str, case: str) -> tuple[str, str]:
    """Set up ``case`` for ``flag`` in the working directory.

    Returns the flag's value and the path the run must refuse.
    """
    _, value, output, manifest = OUTPUT_FLAGS[flag]
    if case == "target is a directory":
        Path(output.format(value)).mkdir(parents=True)
        return value, output.format(value)
    if case == "parent is missing":
        return f"missing/{value}", f"missing/{value}"
    if case == "parent is a file":
        Path("f").write_text("kept\n")
        return f"f/{value}", f"f/{value}"
    if case == "manifest is a directory":
        Path(manifest).mkdir(parents=True)
        return value, manifest
    target = Path(output.format(value))
    target.parent.mkdir(exist_ok=True)
    if case == "target is a symlink loop":
        target.symlink_to(target.name)
        return value, str(target)
    if case == "manifest is a hard link to the output":
        target.write_text("kept\n")
        os.link(target, manifest)
        return value, manifest
    if flag in COLLIDING:
        return COLLIDING[flag], COLLIDING[flag]
    # a one-output run collides only through a link: its manifest is the output
    Path(manifest).symlink_to(target.name)
    return value, manifest


@pytest.mark.parametrize(
    "flag, case",
    # --out-dir is created with its parents, so a missing parent is no error
    [(f, c) for f in OUTPUT_FLAGS for c in CASES if (f, c) != ("figure --out-dir", CASES[1])],
)
def test_refused_output_changes_no_file(flag, case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ERING_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    tomo_data_to_csv(simulate_tomography(werner(0.5), 1000, 1), "in.csv")
    value, refused = _refused_output(flag, case)
    before = _listing(tmp_path)
    assert main(OUTPUT_FLAGS[flag][0].format(value).split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and refused in err
    assert _listing(tmp_path) == before


def _called(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return getattr(func, "id", getattr(func, "attr", None))


def _writes(called) -> bool:
    # a writer called by its name or through its module (bell.counts_to_csv)
    writers = ("print", "tomo_data_to_csv", "counts_to_csv", "save_density_matrix")
    return str(called).rpartition(".")[2] in writers or str(called).startswith("csvfile.write")


def test_commands_leave_printing_and_writing_to_the_output_step():
    """No command, nor a cli helper it calls, nor any code of ``ering.figures`` (every point
    function, grid and table entry) prints or writes a file itself."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in functions:
        if not name.startswith("cmd_"):
            continue
        todo, seen = [name], {name}
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                called = _called(node) if isinstance(node, ast.Call) else None
                if _writes(called):
                    found.append(f"{name}: {called}")
                elif called in functions and called not in seen:
                    seen.add(called)
                    todo.append(called)
    for figure in figures.FIGURES.values():  # every point function is code of the module walked
        assert getattr(figure.point, "func", figure.point).__module__ == "ering.figures"
    module = ast.parse(Path(figures.__file__).read_text())
    for node in ast.walk(module):
        if isinstance(node, ast.Call) and _writes(_called(node)):
            found.append(f"ering.figures: {_called(node)}")
    assert found == []


def test_bell_simulate_and_eval(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    assert (
        run_cli(
            "bell", "simulate", "--family", "werner", "--p", "0.904",
            "--duration", "180", "--seed", "5", "--out", str(counts),
            "--set", "visibility=1.0",
        )
        == 0
    )
    capsys.readouterr()
    assert run_cli("bell", "eval", "--counts", str(counts)) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    assert values["|S|"] == pytest.approx(2 * math.sqrt(2) * 0.904, abs=0.05)
    assert values["sigma_S"] < 0.01
    assert values["violation_sigmas"] > 100


def test_state_via_patchwork_matches_formula(capsys):
    assert run_cli("state", "mems", "--p", "0.77", "--via", "patchwork") == 0
    report = json.loads(capsys.readouterr().out)
    rho = density_matrix_from_dict(report["state"])
    assert np.abs(rho - mems(0.77)).max() < 1e-12


def test_source_report(capsys):
    assert run_cli("source", "--displacement-um", "60") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ring_diameter_m"] == pytest.approx(1.518e-2, rel=1e-3)
    assert report["ou_mandel_fwhm_um"] == pytest.approx(35, rel=0.2)
    assert abs(report["phase_geometry"]["phi_rad"]) == pytest.approx(math.pi, rel=0.25)
    assert report["phase_geometry"]["lateral_offset_um"] == pytest.approx(6.0, rel=0.05)
    assert report["detected_pair_rate_hz"] > 4e3


def test_source_rejects_bad_displacement(capsys):
    assert run_cli("source", "--displacement-um", "20000") == 1
    assert "regime" in capsys.readouterr().err


def test_console_script_installed():
    out = run_python("-m", "ering", "--version")
    assert out.returncode == 0
    assert "ering" in out.stdout


def _imported(*args, returncode: int = 0) -> set[str]:
    """Modules a fresh interpreter imports, read from its ``-X importtime`` report."""
    out = run_python("-X", "importtime", *args)
    assert out.returncode == returncode, out.stderr[-2000:]
    lines = [line for line in out.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_import_loads_no_scipy(tmp_path):
    """``import ering`` loads no numpy, and each command only the modules it runs."""
    code = "import ering, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    root = _imported("-c", "import ering")
    assert "ering" in root
    assert not [m for m in root if m.startswith(("numpy", "scipy", "ering."))]
    for argv, returncode in ((["--version"], 0), (["state", "werner", "--bogus"], 2)):
        modules = _imported("-m", "ering", *argv, returncode=returncode)
        assert "ering.cli" in modules and "numpy" not in modules
    counts = tmp_path / "counts.csv"
    simulate = ["bell", "simulate", "--family", "singlet", "--seed", "5", "--out", str(counts)]
    assert run_cli(*simulate) == 0
    bell_eval = _imported("-m", "ering", "bell", "eval", "--counts", str(counts))
    assert "ering.counts" in bell_eval
    assert not bell_eval & {"ering.tomography", "ering.source", "ering.entanglement"}
    tomo = _imported("-m", "ering", "tomo", "simulate", "--family", "singlet", "--seed", "1",
                     "--out", str(tmp_path / "tomo.csv"))
    assert "ering.tomography" in tomo
    assert not tomo & {"ering.source", "ering.bell"}


def test_plan_settings_load_no_numpy():
    """The counts layer builds a plan's CHSH settings without ``bell`` and without numpy."""
    code = ("import sys, ering.counts; ering.counts.STANDARD_PLAN.bloch_settings(); "
            "assert 'numpy' not in sys.modules and 'ering.bell' not in sys.modules")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr


def test_numpy_free_commands_import_no_numpy(tmp_path):
    """``bell eval``, ``source`` and a noise-free ``figure 3`` load no numpy; ``state`` no tomography."""
    code = "import sys, ering.counts, ering.optics; assert 'numpy' not in sys.modules"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    counts = tmp_path / "counts.csv"
    simulate = ["bell", "simulate", "--family", "singlet", "--seed", "5", "--out", str(counts)]
    assert run_cli(*simulate) == 0
    figures = str(tmp_path / "figures")
    for argv in (
        ["bell", "eval", "--counts", str(counts)],
        ["source", "--displacement-um", "60"],
        ["figure", "3", "--seed", "1", "--out-dir", figures],
    ):
        modules = _imported("-m", "ering", *argv)
        assert "ering.cli" in modules
        assert not [m for m in modules if m.split(".")[0] == "numpy"], argv
    noisy = _imported("-m", "ering", "figure", "3", "--seed", "1", "--counts-per-point", "500",
                      "--out-dir", figures)
    assert "numpy" in noisy
    state = _imported("-m", "ering", "state", "werner")
    assert "ering.states" in state and "ering.tomography" not in state
