"""Command-line interface: the argparse parser, the config loading and ``_finish``, the
one output step that checks every path, writes the files, then the manifest, then stdout.

Units on every flag: polarizer and waveplate angles in degrees, pair
phases in radians, displacements in micrometers, durations in seconds.
Bloch angles (Theta, Phi) appear only in the ``E(Theta,Phi)`` projector
labels of tomography CSV files, in radians.

Each ``state`` family and ``figure`` id parses only the flags it reads,
given after it (``state werner --out r.json``); no flag may be abbreviated.
Every ``--family`` value is built by the registry ``STATES`` (``state
werner|mems --via patchwork`` builds from sector weights instead), and
every figure id, with its flags and rows, by the table ``ering.figures.FIGURES``.

Every stochastic subcommand requires an explicit ``--seed``, and a rerun
with the same arguments, config and seed writes byte-identical files.
Every file-writing run leaves a ``*.manifest.json`` of the command line,
config snapshot (null for ``state`` and ``tomo``), seed (null without
``--seed``), version and outputs.  ``tomo reconstruct`` is deterministic;
its optional ``--seed`` is only recorded.

Each command imports the numerical modules it runs, and only those, so
``--version``, ``--help``, every usage error, ``bell eval``, ``source`` and
a noise-free ``figure 3`` finish without loading numpy.

Exit codes: 0 success, 1 domain error (including informationally
incomplete tomography settings), 2 usage or input-format error (an unread
or abbreviated flag, a non-finite float flag, ``--state`` without
``--family file`` or the reverse, ``--p`` with ``--family singlet`` or
``file``, a malformed CSV or density-matrix file, an input or output
path that cannot be opened, two outputs of one run on the same file), 3
no rank of the maximum-likelihood reconstruction passed its optimality
certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, csvfile
from .errors import ConvergenceError, InputFormatError, PoissonLimitError
from .figures import FIGURES, default_config, figure_rows

CONFIG_ENV_VAR = "ERING_CONFIG"


def _config_path(args) -> str | None:
    return getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)


def _load_base_config(args):
    from .optics import SourceConfig, config_with_overrides, load_config

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


def _manifest_path(first) -> Path:
    """A run's manifest, next to its first output (``--out .`` included, which the check refuses)."""
    first = Path(first)
    return first.parent / (first.stem + ".manifest.json")


def _finish(args, t0: float, config, text: str, outputs: list) -> None:
    """The one output step: check every path, write the outputs, then the manifest, then print.

    ``outputs`` holds ``(path, write)`` pairs.
    """
    paths = [Path(path) for path, _ in outputs]
    if paths:
        paths.append(_manifest_path(paths[0]))
    taken = set()
    for path in paths:
        if path.is_dir():
            raise InputFormatError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise InputFormatError(f"cannot write {path}: {path.parent} is not a directory")
        try:  # two paths of one file share device and inode, or a new file's real path
            st = path.stat()
            key = st.st_dev, st.st_ino
        except FileNotFoundError:
            key = os.path.realpath(path)
        if key in taken:
            raise InputFormatError(f"cannot write {path}: another output is the same file")
        taken.add(key)
    for path, (_, write) in zip(paths, outputs):
        write(path)
    if paths:
        if config is not None:  # only a command that has already loaded ering.optics
            from .optics import config_to_dict

            config = config_to_dict(config)
        manifest = {
            "command": ["ering", *args.argv],
            "config": config,
            "master_seed": getattr(args, "seed", None),
            "version": __version__,
            "outputs": [str(p) for p in paths[:-1]],
            "wall_clock_s": round(time.monotonic() - t0, 3),
        }
        csvfile.write_text(paths[-1], json.dumps(manifest, indent=2) + "\n")
    print(text, end="")


def _report(report: dict, out) -> tuple[str, list]:
    """The stdout text of a JSON report and, with ``out``, the same text as a file."""
    text = json.dumps(report, indent=2) + "\n"
    return text, [(out, functools.partial(csvfile.write_text, text=text))] if out else []


def finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type of every --seed: a negative seed is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


#: Every --family value of every subcommand -> the state built from the flags,
#: given the ``ering.states`` module.
STATES = {
    "werner": lambda st, args: st.werner(args.p),
    "mems": lambda st, args: st.mems(args.p),
    "bell": lambda st, args: st.projector(st.bell_state(args.kind, args.phi)),
    "singlet": lambda st, args: st.projector(st.singlet()),
    "nonmax": lambda st, args: st.projector(st.nonmax_state(math.radians(args.theta_p))),
    "tuned": lambda st, args: st.tune_entanglement(args.fidelity, args.a),
    "file": lambda st, args: st.load_density_matrix(args.state),
}


def _build_state(args):
    if getattr(args, "via", "formula") == "patchwork":
        from .source import mems_partition, synthesize, werner_partition

        partition = {"werner": werner_partition, "mems": mems_partition}[args.family]
        return synthesize(partition(args.p), math.pi)
    from . import states

    return STATES[args.family](states, args)


def cmd_state(args):
    from .bell import chsh_optimize
    from .entanglement import classify, is_separable_ppt, linear_entropy, tangle
    from .states import check_density_matrix, density_matrix_to_dict, fidelity, projector, singlet

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
    if args.family in ("werner", "mems"):
        cls = classify(args.family, args.p)
        report["region"] = cls.region.value
        report["s_l_interval"] = list(cls.s_l_interval)
    return None, *_report(report, args.out)


def cmd_source(args):
    from .optics import (
        coherence_time_from_bandwidth, config_to_dict, detected_pair_rate, displacement_visibility,
        ou_mandel_fwhm, phase_from_displacement, ring_diameter, sector_area,
    )

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
    return config, *_report(report, args.out)


def cmd_figure(args):
    """Draws the rows before it creates ``--out-dir``, in which no output check can then fail."""
    figure = FIGURES[args.id]
    given = _config_path(args) or getattr(args, "set", None)
    config = _load_base_config(args) if given else default_config(args.id)
    params = {name: getattr(args, name) for name in figure.params}
    rows = figure_rows(args.id, config, args.seed, **params)
    out_path = Path(args.out_dir) / f"fig{args.id}.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write = functools.partial(csvfile.write, header=figure.header, rows=rows)
    return config, f"wrote {out_path} and {_manifest_path(out_path)}\n", [(out_path, write)]


def cmd_tomo_simulate(args):
    from .states import save_density_matrix
    from .tomography import simulate_tomography, tomo_data_to_csv

    rho = _build_state(args)
    if args.counts <= 0:
        raise ValueError("--counts must be positive")
    data = simulate_tomography(rho, args.counts, args.seed)
    outputs = [(args.out, functools.partial(tomo_data_to_csv, data))]
    if args.target_out:
        outputs.append((args.target_out, functools.partial(save_density_matrix, rho)))
    return None, f"wrote {Path(args.out)}\n", outputs


def cmd_tomo_reconstruct(args):
    import numpy as np

    from .bell import chsh_optimize
    from .entanglement import linear_entropy, tangle
    from .states import check_density_matrix, density_matrix_to_dict, load_density_matrix
    from .tomography import (
        design_condition_number, fidelity, linear_reconstruct, ml_reconstruct, tomo_data_from_csv,
    )

    data = tomo_data_from_csv(args.data)
    rho = (linear_reconstruct if args.method == "linear" else ml_reconstruct)(data)
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
        s_max, _ = chsh_optimize(rho)
        report.update(tangle=tangle(rho), linear_entropy=linear_entropy(rho), s_max_abs=s_max)
    if args.target:
        target = check_density_matrix(load_density_matrix(args.target))
        if physical:
            report["fidelity_to_target"] = fidelity(rho, target)
    return None, *_report(report, args.out)


def _plan_from_args(args):
    from .counts import STANDARD_PLAN, AnglePlan

    if args.angles is None:
        return STANDARD_PLAN
    return AnglePlan(*(math.radians(a) for a in args.angles))


def cmd_bell_simulate(args):
    from .counts import counts_to_csv
    from .source import simulate_bell_test

    config = _load_base_config(args)
    plan = _plan_from_args(args)
    table, _ = simulate_bell_test(_build_state(args), args.duration, config, args.seed, plan)
    return config, f"wrote {Path(args.out)}\n", [(args.out, functools.partial(counts_to_csv, table))]


def cmd_bell_eval(args):
    from .counts import chsh_from_counts, counts_from_csv

    table = counts_from_csv(args.counts)
    plan = _plan_from_args(args)
    for l1, l2 in plan.labels:
        if (l1, l2) not in table.entries:
            raise InputFormatError(
                f"{args.counts}: no row for the joint setting theta1 = {l1} deg, theta2 = {l2} deg"
            )
    s, sigma = chsh_from_counts(table, plan)
    violation = (abs(s) - 2) / sigma if sigma > 0 else float("nan")
    text = f"S = {s:.6f}\n|S| = {abs(s):.6f}\nsigma_S = {sigma:.6f}\n"
    return None, text + f"violation_sigmas = {violation:.2f}\n", []


def _flag(*names, **options) -> argparse.ArgumentParser:
    """A parent parser that gives one flag to every parser built from it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser_class = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = parser_class(
        prog="ering",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ering {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", help="JSON source-config file (or $ERING_CONFIG)")
    config_flags.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (file notation, e.g. alpha=0.0506)",
    )
    angle_flags = _flag(
        "--angles",
        type=finite_float,
        nargs=4,
        metavar=("T1", "T1P", "T2", "T2P"),
        help="base polarizer angles in degrees (default 0 45 22.5 67.5)",
    )
    out = _flag("--out", help="also write the JSON report to this file")
    simulated = argparse.ArgumentParser(add_help=False)  # the state of tomo and bell simulate
    simulated.add_argument("--family", choices=["werner", "mems", "singlet", "file"], required=True)
    simulated.add_argument("--p", type=finite_float, help="singlet weight in [0, 1] (werner, mems; 1)")
    simulated.add_argument("--state", help="density-matrix JSON (with --family file)")

    p_state = sub.add_parser("state", help="build a state family member and print its measures")
    p_state.set_defaults(func=cmd_state)
    families = p_state.add_subparsers(dest="family", required=True, parser_class=parser_class)
    weight = _flag("--p", type=finite_float, default=1.0, help="singlet weight in [0, 1]")
    via = _flag(
        "--via", choices=["formula", "patchwork"], default="formula", help="how to build the state"
    )
    kind = _flag("--kind", choices=["phi", "psi"], default="phi")
    phi = _flag("--phi", type=finite_float, default=0.0, help="pair phase in radians")
    theta_p = _flag(
        "--theta-p", type=finite_float, default=0.0, help="pump waveplate angle in degrees [0, 45]"
    )
    fid = _flag("--fidelity", type=finite_float, default=1.0, help="singlet fidelity in [1/4, 1]")
    a = _flag("--a", type=finite_float, default=0.5, help="eigenvector weight in [1/2, 1]")
    for family, parents in (
        ("werner", [weight, via]),
        ("mems", [weight, via]),
        ("bell", [kind, phi]),
        ("singlet", []),
        ("nonmax", [theta_p]),
        ("tuned", [fid, a]),
    ):
        families.add_parser(family, parents=[*parents, out])

    p_src = sub.add_parser(
        "source",
        parents=[config_flags, out],
        help="geometry and rate report for a source configuration",
    )
    p_src.add_argument(
        "--displacement-um",
        type=finite_float,
        default=None,
        help="mirror displacement in micrometers: adds the ray-traced pair phase and visibility",
    )
    p_src.set_defaults(func=cmd_source)

    p_fig = sub.add_parser("figure", help="regenerate the data behind a figure as CSV")
    p_fig.set_defaults(func=cmd_figure)
    figures = p_fig.add_subparsers(dest="id", required=True, parser_class=parser_class)
    fig_flags = argparse.ArgumentParser(add_help=False)
    fig_flags.add_argument(
        "--seed", type=nonnegative_int, required=True, help="master seed (required)"
    )
    fig_flags.add_argument("--out-dir", default="figures", help="output directory")
    for fig_id, figure in FIGURES.items():
        p_id = figures.add_parser(
            fig_id, parents=[fig_flags, config_flags] if figure.config else [fig_flags]
        )
        for name, (default, help_, _) in figure.params.items():
            number = finite_float if isinstance(default, float) else int
            flag = "--" + name.replace("_", "-")
            p_id.add_argument(flag, type=number, default=default, help=help_)
        p_id.set_defaults(means_flag=figure.means_flag)

    p_tomo = sub.add_parser("tomo", help="simulate or reconstruct tomography data")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True, parser_class=parser_class)
    p_sim = tomo_sub.add_parser(
        "simulate", parents=[simulated], help="write simulated 16-setting counts"
    )
    p_sim.add_argument("--counts", type=int, default=10000, help="mean counts per setting")
    p_sim.add_argument("--seed", type=nonnegative_int, required=True)
    p_sim.add_argument("--out", required=True, help="output counts CSV")
    p_sim.add_argument("--target-out", help="also write the true state as JSON")
    p_sim.set_defaults(func=cmd_tomo_simulate, means_flag="--counts")
    p_rec = tomo_sub.add_parser("reconstruct", help="reconstruct a state from counts")
    p_rec.add_argument("--data", required=True, help="counts CSV from 'tomo simulate'")
    p_rec.add_argument("--method", choices=["ml", "linear"], default="ml")
    p_rec.add_argument(
        "--seed",
        type=nonnegative_int,
        help="optional, recorded in the manifest; the ML solve is deterministic",
    )
    p_rec.add_argument("--target", help="density-matrix JSON to compare against")
    p_rec.add_argument("--out", help="write the JSON report here")
    p_rec.set_defaults(func=cmd_tomo_reconstruct)

    p_bell = sub.add_parser("bell", help="simulate or evaluate a CHSH coincidence run")
    bell_sub = p_bell.add_subparsers(dest="bell_command", required=True, parser_class=parser_class)
    p_bsim = bell_sub.add_parser(
        "simulate",
        parents=[angle_flags, config_flags, simulated],
        help="write a simulated 16-setting counts CSV",
    )
    p_bsim.add_argument(
        "--duration",
        type=finite_float,
        default=180.0,
        help="total seconds, split over the 16 settings",
    )
    p_bsim.add_argument("--seed", type=nonnegative_int, required=True)
    p_bsim.add_argument("--out", required=True)
    p_bsim.set_defaults(func=cmd_bell_simulate, means_flag="--duration or --set pair_rate=")
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
    family = getattr(args, "family", None)
    if (family == "file") != (getattr(args, "state", None) is not None):
        parser.error("--state goes with --family file, and --family file needs --state")
    if getattr(args, "p", 1.0) is None:  # tomo or bell simulate without --p: werner, mems at 1
        args.p = 1.0
    elif family in ("singlet", "file") and hasattr(args, "p"):
        parser.error("--p goes with --family werner or mems")
    t0 = time.monotonic()
    try:
        _finish(args, t0, *args.func(args))
        return 0
    except (ValueError, OSError, ConvergenceError) as exc:
        if isinstance(exc, PoissonLimitError):  # name the flag that sets the mean counts
            exc.args = (exc.args[0], args.means_flag)
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InputFormatError, OSError)):
            return 2
        return 3 if isinstance(exc, ConvergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
