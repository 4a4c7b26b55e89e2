import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ering.cli import main
from ering.states import density_matrix_from_dict, mems, projector, singlet, werner
from ering.tomography import exact_tomography_counts, tomo_data_to_csv


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


def test_state_has_no_seed_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("state", "werner", "--p", "0.5", "--seed", "1")
    assert exc.value.code == 2


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
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "x"])
def test_tomo_reconstruct_bad_flux_header_exit_2(value, tmp_path, capsys):
    path = tmp_path / "flux.csv"
    tomo_data_to_csv(exact_tomography_counts(werner(0.5), 1e4), path)
    lines = path.read_text().splitlines()
    lines[0] = f"# total_flux_estimate {value}"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("tomo", "reconstruct", "--data", str(path)) == 2
    assert "flux.csv:1: " in capsys.readouterr().err


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


def test_import_loads_no_scipy():
    code = "import ering, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
