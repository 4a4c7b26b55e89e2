"""Command-line interface.

Units on every flag: polarizer and waveplate angles in degrees, pair
phases in radians, displacements in micrometers, durations in seconds.
Bloch angles (Theta, Phi) appear only inside JSON reports, in radians.

Every stochastic subcommand requires an explicit ``--seed``; rerunning
with the same arguments, config and seed reproduces byte-identical
output files, and each file-writing run leaves a ``*.manifest.json``
recording the command line, config snapshot, seed, version and outputs.
``tomo reconstruct`` is deterministic; its optional ``--seed`` is only recorded.

Every ``--family`` value of every subcommand is built by the one registry
``STATES``; ``state --via patchwork`` builds werner and mems only.  All
CSV files share the layout of ``ering.csvfile``.

Exit codes: 0 success, 1 domain error (including informationally
incomplete tomography settings), 2 usage or input-format error (a
non-finite float flag, ``--family file`` without ``--state``, a malformed
CSV or density-matrix file), 3 no rank of the maximum-likelihood
reconstruction passed its optimality certificate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, csvfile
from .bell import (
    AnglePlan,
    STANDARD_PLAN,
    angle_label,
    chsh_from_counts,
    chsh_optimize,
    counts_from_csv,
    counts_to_csv,
)
from .entanglement import (
    MEMS,
    WERNER,
    classify,
    is_separable_ppt,
    linear_entropy,
    tangle,
    tangle_curve,
)
from .errors import ConvergenceError, InputFormatError
from .source import (
    SourceConfig,
    coherence_time_from_bandwidth,
    config_to_dict,
    config_with_overrides,
    detected_pair_rate,
    displacement_visibility,
    load_config,
    mems_partition,
    ou_mandel_fwhm,
    ou_mandel_scan,
    phase_from_displacement,
    ring_diameter,
    sector_area,
    simulate_bell_test,
    simulate_coincidences,
    synthesize,
    werner_partition,
)
from .states import (
    bell_state,
    check_density_matrix,
    density_matrix_to_dict,
    load_density_matrix,
    mems,
    nonmax_state,
    projector,
    save_density_matrix,
    singlet,
    tune_entanglement,
    werner,
)
from .tomography import (
    design_condition_number,
    fidelity,
    linear_reconstruct,
    ml_reconstruct,
    simulate_tomography,
    tomo_data_from_csv,
    tomo_data_to_csv,
)

CONFIG_ENV_VAR = "ERING_CONFIG"


def _config_path(args) -> str | None:
    return getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)


def _load_base_config(args) -> SourceConfig:
    path = _config_path(args)
    config = load_config(path) if path else SourceConfig()
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, _, value = item.partition("=")
        if not _:
            raise InputFormatError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise InputFormatError(f"config key {key!r} needs a number, got {value!r}") from None
    return config_with_overrides(config, overrides)


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _write_manifest(args, config, outputs: list[Path], t0) -> Path:
    """Record the run next to its first output."""
    manifest = {
        "command": ["ering", *args.argv],
        "config": config_to_dict(config) if config is not None else None,
        "master_seed": args.seed,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }
    path = outputs[0].with_suffix(".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _print_report(report: dict, out) -> None:
    text = json.dumps(report, indent=2)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


#: Every --family value of every subcommand -> the state built from the flags.
STATES = {
    WERNER: lambda args: werner(args.p),
    MEMS: lambda args: mems(args.p),
    "bell": lambda args: projector(bell_state(args.kind, args.phi)),
    "singlet": lambda args: projector(singlet()),
    "nonmax": lambda args: projector(nonmax_state(math.radians(args.theta_p))),
    "tuned": lambda args: tune_entanglement(args.fidelity, args.a),
    "file": lambda args: load_density_matrix(args.state),
}

#: The families that ``state --via patchwork`` builds from sector weights.
PATCHWORK = {WERNER: werner_partition, MEMS: mems_partition}


def _build_state(args) -> np.ndarray:
    if getattr(args, "via", "formula") == "patchwork":
        return synthesize(PATCHWORK[args.family](args.p), math.pi)
    return STATES[args.family](args)


def cmd_state(args) -> int:
    rho = check_density_matrix(_build_state(args))
    separable, negativity = is_separable_ppt(rho)
    s_max, _ = chsh_optimize(rho)
    report = {
        "state": density_matrix_to_dict(rho),
        "tangle": tangle(rho),
        "linear_entropy": linear_entropy(rho),
        "fidelity_to_singlet": fidelity(rho, projector(singlet())),
        "negativity": negativity,
        "separable": separable,
        "s_max_abs": s_max,
    }
    if args.family in (WERNER, MEMS):
        cls = classify(args.family, args.p)
        report["region"] = cls.region.value
        report["s_l_interval"] = list(cls.s_l_interval)
    _print_report(report, args.out)
    return 0


def cmd_source(args) -> int:
    config = _load_base_config(args)
    report = {
        "config": config_to_dict(config),
        "ring_diameter_m": ring_diameter(config),
        "sector_area_m2": sector_area(config.iris_radius, config),
        "detected_pair_rate_hz": detected_pair_rate(config),
        "coherence_time_s": coherence_time_from_bandwidth(config),
        "ou_mandel_fwhm_um": ou_mandel_fwhm(config) * 1e6,
    }
    if args.displacement_um is not None:
        geom = phase_from_displacement(args.displacement_um * 1e-6, config)
        report["phase_geometry"] = {
            "delta_d_um": args.displacement_um,
            "oa_prime_m": geom.oa_prime,
            "ob_prime_m": geom.ob_prime,
            "b_prime_c_m": geom.b_prime_c,
            "lateral_offset_um": geom.lateral_offset * 1e6,
            "phi_rad": geom.phi,
            "visibility": displacement_visibility(args.displacement_um * 1e-6, config),
        }
    _print_report(report, args.out)
    return 0


def _fig2_point(theta1_deg, duration, config, seed):
    setting = (math.radians(theta1_deg), math.radians(45.0))
    rho = projector(bell_state("phi", math.pi))
    table = simulate_coincidences(rho, [setting], duration, config, seed)
    return theta1_deg, table.get(*setting)


def _fig4_point(r, duration, config, seed):
    full = sector_area(config.mask_diameter, config)
    fraction = sector_area(r, config) / full
    scaled = config_with_overrides(config, {"pair_rate": config.pair_rate * fraction})
    rho = projector(bell_state("phi", math.pi))
    # the phi = pi pair coincides as cos^2(theta1 + theta2):
    # maximum at theta1 + theta2 = 180 deg, minimum at 90 deg
    t_max = (math.radians(135.0), math.radians(45.0))
    t_min = (math.radians(45.0), math.radians(45.0))
    table = simulate_coincidences(rho, [t_max, t_min], duration, scaled, seed)
    n_max = table.get(*t_max)
    n_min = table.get(*t_min)
    if n_max + n_min == 0:
        return r * 1e3, 0.0, 0.0
    visibility = (n_max - n_min) / (n_max + n_min)
    return r * 1e3, visibility, n_max / duration


def _fig12_point(p, duration, config, seed):
    table, plan = simulate_bell_test(werner(p), duration, config, seed)
    s, sigma = chsh_from_counts(table, plan)
    return p, abs(s), sigma


def _fig_tomo_point(family, p, counts, seed):
    rho = STATES[family](argparse.Namespace(p=p))
    data = simulate_tomography(rho, counts, seed)
    rec = ml_reconstruct(data)
    s_l = linear_entropy(rec)
    t = tangle(rec)
    return s_l, t, family, p, tangle_curve(family, min(1.0, s_l))


def cmd_figure(args) -> int:
    t0 = time.monotonic()
    config = _load_base_config(args)
    if args.id in (2, 4, 12) and not _config_path(args) and not args.set:
        # measured-visibility default for the Bell-test figures
        config = config_with_overrides(config, {"visibility": 0.94})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"fig{args.id}.csv"
    if args.duration is None:
        args.duration = 180.0 if args.id == 12 else 1.0
    if args.duration <= 0:
        raise ValueError("--duration must be positive")
    if args.counts_per_point < 0:
        raise ValueError("--counts-per-point must be nonnegative")

    if args.id == 2:
        grid = np.arange(45.0, 135.0 + 1e-9, 2.5)
        rows = [
            _fig2_point(t1, args.duration, config, seed=_derived_seed(args.seed, i))
            for i, t1 in enumerate(grid)
        ]
        csvfile.write(out_path, ["theta1_deg", "coincidences"], rows)
    elif args.id == 3:
        xs = np.linspace(-100e-6, 100e-6, 101)
        curve = ou_mandel_scan(args.phi, xs, config)
        rows = []
        rng = np.random.default_rng(args.seed)
        for x, c in curve:
            if args.counts_per_point > 0:
                c = rng.poisson(args.counts_per_point * c) / args.counts_per_point
            rows.append((x * 1e6, c))
        csvfile.write(out_path, ["x_um", "normalized_coincidence"], rows)
    elif args.id == 4:
        grid = np.linspace(0.5e-3, config.mask_diameter, 20)
        rows = [
            _fig4_point(r, args.duration, config, seed=_derived_seed(args.seed, i))
            for i, r in enumerate(grid)
        ]
        csvfile.write(out_path, ["r_mm", "visibility", "rate_hz"], rows)
    elif args.id in (8, 11):
        family = WERNER if args.id == 8 else MEMS
        grid = np.linspace(0.05, 0.95, 13)
        rows = [
            _fig_tomo_point(family, p, args.counts_per_setting, seed=_derived_seed(args.seed, i))
            for i, p in enumerate(grid)
        ]
        csvfile.write(out_path, ["S_L", "T", "family", "p", "T_curve"], rows)
    else:  # 12; argparse admits no other id
        grid = np.linspace(0.05, 1.0, 20)
        rows = [
            _fig12_point(p, args.duration, config, seed=_derived_seed(args.seed, i))
            for i, p in enumerate(grid)
        ]
        csvfile.write(out_path, ["p", "abs_S", "sigma_S"], rows)

    manifest = _write_manifest(args, config, [out_path], t0)
    print(f"wrote {out_path} and {manifest}")
    return 0


def cmd_tomo_simulate(args) -> int:
    t0 = time.monotonic()
    rho = _build_state(args)
    data = simulate_tomography(rho, args.counts, args.seed)
    outputs = [Path(args.out)]
    tomo_data_to_csv(data, outputs[0])
    if args.target_out:
        save_density_matrix(rho, args.target_out)
        outputs.append(Path(args.target_out))
    _write_manifest(args, None, outputs, t0)
    print(f"wrote {outputs[0]}")
    return 0


def cmd_tomo_reconstruct(args) -> int:
    t0 = time.monotonic()
    data = tomo_data_from_csv(args.data)
    if args.method == "linear":
        rho = linear_reconstruct(data)
    else:
        rho = ml_reconstruct(data)
    min_eig = float(np.linalg.eigvalsh(rho).min())
    physical = min_eig >= -1e-10
    report = {
        "method": args.method,
        "density_matrix": density_matrix_to_dict(rho),
        "physical": physical,
        "min_eigenvalue": min_eig,
        "design_condition_number": design_condition_number(data.settings),
    }
    if physical:
        rho_checked = check_density_matrix(rho)
        s_max, _ = chsh_optimize(rho_checked)
        report.update(
            tangle=tangle(rho_checked),
            linear_entropy=linear_entropy(rho_checked),
            s_max_abs=s_max,
        )
    if args.target:
        target = check_density_matrix(load_density_matrix(args.target))
        if physical:
            report["fidelity_to_target"] = fidelity(rho, target)
    _print_report(report, args.out)
    if args.out:
        _write_manifest(args, None, [Path(args.out)], t0)
    return 0


def _plan_from_args(args) -> AnglePlan:
    if args.angles is None:
        return STANDARD_PLAN
    return AnglePlan(*(math.radians(a) for a in args.angles))


def cmd_bell_simulate(args) -> int:
    t0 = time.monotonic()
    config = _load_base_config(args)
    plan = _plan_from_args(args)
    table, _ = simulate_bell_test(_build_state(args), args.duration, config, args.seed, plan)
    out = Path(args.out)
    counts_to_csv(table, out)
    _write_manifest(args, config, [out], t0)
    print(f"wrote {out}")
    return 0


def cmd_bell_eval(args) -> int:
    table = counts_from_csv(args.counts)
    plan = _plan_from_args(args)
    for t1, t2 in plan.all_settings():
        l1, l2 = angle_label(t1), angle_label(t2)
        if (l1, l2) not in table.entries:
            raise InputFormatError(
                f"{args.counts}: no row for the joint setting theta1 = {l1} deg, theta2 = {l2} deg"
            )
    s, sigma = chsh_from_counts(table, plan)
    violation = (abs(s) - 2) / sigma if sigma > 0 else float("nan")
    print(f"S = {s:.6f}")
    print(f"|S| = {abs(s):.6f}")
    print(f"sigma_S = {sigma:.6f}")
    print(f"violation_sigmas = {violation:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ering",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ering {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", help="JSON source-config file (or $ERING_CONFIG)")
    config_flags.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (file notation, e.g. alpha=0.0506)",
    )
    angle_flags = argparse.ArgumentParser(add_help=False)
    angle_flags.add_argument(
        "--angles",
        type=finite_float,
        nargs=4,
        metavar=("T1", "T1P", "T2", "T2P"),
        help="base polarizer angles in degrees (default 0 45 22.5 67.5)",
    )

    p_state = sub.add_parser(
        "state", help="build a state family member and print its measures"
    )
    p_state.add_argument(
        "family", choices=["werner", "mems", "bell", "singlet", "nonmax", "tuned"]
    )
    p_state.add_argument("--p", type=finite_float, default=1.0, help="singlet weight in [0, 1]")
    p_state.add_argument("--kind", choices=["phi", "psi"], default="phi")
    p_state.add_argument("--phi", type=finite_float, default=0.0, help="pair phase in radians")
    p_state.add_argument(
        "--theta-p", type=finite_float, default=0.0, help="pump waveplate angle in degrees [0, 45]"
    )
    p_state.add_argument(
        "--fidelity", type=finite_float, default=1.0, help="singlet fidelity in [1/4, 1]"
    )
    p_state.add_argument(
        "--a", type=finite_float, default=0.5, help="eigenvector weight in [1/2, 1]"
    )
    p_state.add_argument(
        "--via",
        choices=["formula", "patchwork"],
        default="formula",
        help="werner/mems only: build from the closed form or from the sector-patchwork recipe",
    )
    p_state.add_argument("--out", help="also write the JSON report to this file")
    p_state.set_defaults(func=cmd_state)

    p_src = sub.add_parser(
        "source", parents=[config_flags], help="geometry and rate report for a source configuration"
    )
    p_src.add_argument(
        "--displacement-um",
        type=finite_float,
        default=None,
        help="mirror displacement in micrometers: adds the ray-traced pair phase and visibility",
    )
    p_src.add_argument("--out", help="also write the JSON report to this file")
    p_src.set_defaults(func=cmd_source)

    p_fig = sub.add_parser(
        "figure", parents=[config_flags], help="regenerate the data behind a figure as CSV"
    )
    p_fig.add_argument("id", type=int, choices=[2, 3, 4, 8, 11, 12])
    p_fig.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p_fig.add_argument("--out-dir", default="figures", help="output directory")
    p_fig.add_argument(
        "--duration",
        type=finite_float,
        default=None,
        help="seconds per grid point (figs 2, 4: default 1) "
        "or total seconds per run (fig 12: default 180)",
    )
    p_fig.add_argument(
        "--phi", type=finite_float, default=0.0, help="pair phase in radians (fig 3)"
    )
    p_fig.add_argument(
        "--counts-per-point",
        type=int,
        default=0,
        help="fig 3: add Poisson counting noise at this count level (0 = noiseless)",
    )
    p_fig.add_argument(
        "--counts-per-setting",
        type=int,
        default=40000,
        help="figs 8/11: tomography flux per setting (measured counts average 1/4 of it)",
    )
    p_fig.set_defaults(func=cmd_figure)

    p_tomo = sub.add_parser("tomo", help="simulate or reconstruct tomography data")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True)
    p_sim = tomo_sub.add_parser("simulate", help="write simulated 16-setting counts")
    p_sim.add_argument("--family", choices=["werner", "mems", "singlet", "file"], required=True)
    p_sim.add_argument("--p", type=finite_float, default=1.0, help="singlet weight in [0, 1]")
    p_sim.add_argument("--state", help="density-matrix JSON (with --family file)")
    p_sim.add_argument("--counts", type=int, default=10000, help="mean counts per setting")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output counts CSV")
    p_sim.add_argument("--target-out", help="also write the true state as JSON")
    p_sim.set_defaults(func=cmd_tomo_simulate)
    p_rec = tomo_sub.add_parser("reconstruct", help="reconstruct a state from counts")
    p_rec.add_argument("--data", required=True, help="counts CSV from 'tomo simulate'")
    p_rec.add_argument("--method", choices=["ml", "linear"], default="ml")
    p_rec.add_argument(
        "--seed", type=int, help="optional, recorded in the manifest; the ML solve is deterministic"
    )
    p_rec.add_argument("--target", help="density-matrix JSON to compare against")
    p_rec.add_argument("--out", help="write the JSON report here")
    p_rec.set_defaults(func=cmd_tomo_reconstruct)

    p_bell = sub.add_parser("bell", help="simulate or evaluate a CHSH coincidence run")
    bell_sub = p_bell.add_subparsers(dest="bell_command", required=True)
    p_bsim = bell_sub.add_parser(
        "simulate",
        parents=[angle_flags, config_flags],
        help="write a simulated 16-setting counts CSV",
    )
    p_bsim.add_argument("--family", choices=["werner", "mems", "singlet", "file"], required=True)
    p_bsim.add_argument("--p", type=finite_float, default=1.0)
    p_bsim.add_argument("--state", help="density-matrix JSON (with --family file)")
    p_bsim.add_argument(
        "--duration",
        type=finite_float,
        default=180.0,
        help="total seconds, split over the 16 settings",
    )
    p_bsim.add_argument("--seed", type=int, required=True)
    p_bsim.add_argument("--out", required=True)
    p_bsim.set_defaults(func=cmd_bell_simulate)
    p_beval = bell_sub.add_parser(
        "eval", parents=[angle_flags], help="CHSH parameter and Poisson error from counts"
    )
    p_beval.add_argument("--counts", required=True, help="counts CSV")
    p_beval.set_defaults(func=cmd_bell_eval)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv  # recorded in manifests
    if getattr(args, "family", None) == "file" and not args.state:
        parser.error("--family file needs --state")
    if getattr(args, "via", "formula") == "patchwork" and args.family not in PATCHWORK:
        parser.error("--via patchwork builds werner and mems only")
    try:
        return args.func(args)
    except (InputFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
