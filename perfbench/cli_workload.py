"""The ``cli`` workload: a fixed list of ``python -m ering`` commands.

Every command runs in a fresh interpreter with a hermetic environment (see
``hermetic_env``) and a working directory that holds only the input files
written at set-up, so paths in the outputs are relative and stable.  Its
stdout and output files are checked against the golden set in
``golden/cli.json``: text byte for byte, numbers within ``NUM_ABS_TOL +
NUM_REL_TOL * |golden|``.  Manifests are compared without ``wall_clock_s``.
``python record_golden.py`` re-records the set.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from gates import GateFailure

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NUM_ABS_TOL = 1e-6
NUM_REL_TOL = 1e-6
COMMAND_TIMEOUT_S = 120

ERING = ("-m", "ering")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]  # arguments to the Python interpreter
    outputs: tuple[str, ...] = ()  # files the command writes, relative to its cwd


COMMANDS = (
    Command("version", (*ERING, "--version")),
    Command("state_werner", (*ERING, "state", "werner", "--p", "0.82")),
    Command("state_mems_patchwork", (*ERING, "state", "mems", "--p", "0.45", "--via", "patchwork")),
    Command("source", (*ERING, "source", "--displacement-um", "60")),
    Command(
        "figure3", (*ERING, "figure", "3", "--seed", "1", "--out-dir", "figures"),
        ("figures/fig3.csv", "figures/fig3.manifest.json"),
    ),
    Command(
        "figure12", (*ERING, "figure", "12", "--seed", "7", "--out-dir", "figures"),
        ("figures/fig12.csv", "figures/fig12.manifest.json"),
    ),
    # default --jobs (os.cpu_count()): the process pool is part of what is measured
    Command(
        "figure8", (*ERING, "figure", "8", "--seed", "7", "--out-dir", "figures"),
        ("figures/fig8.csv", "figures/fig8.manifest.json"),
    ),
    Command(
        "tomo_simulate",
        (*ERING, "tomo", "simulate", "--family", "werner", "--p", "0.47", "--counts", "40000",
         "--seed", "3", "--out", "tomo.csv", "--target-out", "target.json"),
        ("tomo.csv", "target.json", "tomo.manifest.json"),
    ),
    Command(
        "tomo_reconstruct",
        (*ERING, "tomo", "reconstruct", "--data", "in_tomo.csv", "--seed", "0",
         "--target", "in_target.json", "--out", "report.json"),
        ("report.json", "report.manifest.json"),
    ),
    Command(
        "bell_simulate",
        (*ERING, "bell", "simulate", "--family", "singlet", "--duration", "180", "--seed", "5",
         "--out", "counts.csv"),
        ("counts.csv", "counts.manifest.json"),
    ),
    Command("bell_eval", (*ERING, "bell", "eval", "--counts", "in_counts.csv")),
    Command("importtime", ("-X", "importtime", "-c", "import ering")),
)


def hermetic_env() -> dict:
    """The environment of every command: no ERING_CONFIG, src on the path, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "ERING_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def write_inputs(work_dir: Path) -> None:
    """Input files of ``tomo reconstruct`` and ``bell eval``, from fixed seeds.

    They match what ``tomo simulate --family werner --p 0.47 --counts 40000
    --seed 3`` and ``bell simulate --family singlet --duration 180 --seed 5``
    write, but are made once here so each command can run on its own.
    """
    from ering import bell, source, states, tomography

    rho = states.werner(0.47)
    tomography.tomo_data_to_csv(tomography.simulate_tomography(rho, 40000, 3), work_dir / "in_tomo.csv")
    states.save_density_matrix(rho, work_dir / "in_target.json")
    table, _ = source.simulate_bell_test(
        states.projector(states.singlet()), 180.0, source.SourceConfig(), 5
    )
    bell.counts_to_csv(table, work_dir / "in_counts.csv")


def run_command(cmd: Command, work_dir: Path) -> subprocess.CompletedProcess:
    for rel in cmd.outputs:
        (work_dir / rel).unlink(missing_ok=True)
    return subprocess.run(
        [sys.executable, *cmd.argv],
        cwd=work_dir,
        env=hermetic_env(),
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT_S,
    )


def snapshot(cmd: Command, proc: subprocess.CompletedProcess, work_dir: Path) -> dict:
    """What the golden set records of one command: stdout and output files."""
    files = {}
    for rel in cmd.outputs:
        text = (work_dir / rel).read_text()
        if rel.endswith(".manifest.json"):
            manifest = json.loads(text)
            manifest.pop("wall_clock_s", None)
            text = json.dumps(manifest, indent=2) + "\n"
        files[rel] = text
    # -X importtime timings go to stderr; its stdout is empty
    return {"stdout": proc.stdout, "files": files}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare_text(got: str, want: str) -> str | None:
    """None if ``got`` matches ``want``: text exactly, numbers within tolerance."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if got_parts != want_parts:
        return "text differs"
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if abs(float(g) - float(w)) > NUM_ABS_TOL + NUM_REL_TOL * abs(float(w)):
            return f"number {g} differs from golden {w}"
    return None


def parse_importtime(stderr: str) -> dict:
    """Seconds: cumulative import of ering, and own time of scipy and numpy modules."""
    total, scipy_s, numpy_s = None, 0.0, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name == "ering":
            total = cum_us * 1e-6
        elif name == "scipy" or name.startswith("scipy."):
            scipy_s += self_us * 1e-6
        elif name == "numpy" or name.startswith("numpy."):
            numpy_s += self_us * 1e-6
    if total is None:
        raise ValueError("no 'ering' line in -X importtime output")
    return {"total_s": total, "scipy_s": scipy_s, "numpy_s": numpy_s}


class Cli:
    name = "cli"
    # a run covers the command list a whole number of times, so the mix is fixed
    whole_passes = True
    # wall time: a command's time includes its process start and its pool
    clock = staticmethod(time.perf_counter)
    reference_s = calibrate.REF_IMPORT_S

    @staticmethod
    def reference() -> float:
        return calibrate.import_numpy(hermetic_env())

    def build(self, seed: int, work_dir: Path) -> list[Command]:
        self.work_dir = work_dir
        write_inputs(work_dir)
        self.golden = json.loads(GOLDEN_PATH.read_text())["commands"]
        start = seed % len(COMMANDS)
        return list(COMMANDS[start:] + COMMANDS[:start])

    def kind(self, cmd: Command) -> str:
        return cmd.name

    def run_item(self, cmd: Command, tr) -> dict:
        proc = tr.call(f"cli.{cmd.name}", run_command, cmd, self.work_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd.name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        got = snapshot(cmd, proc, self.work_dir)
        want = self.golden[cmd.name]
        if sorted(got["files"]) != sorted(want["files"]):
            raise GateFailure(f"{cmd.name}: wrote {sorted(got['files'])}, golden has {sorted(want['files'])}")
        for label, g, w in [("stdout", got["stdout"], want["stdout"])] + [
            (rel, got["files"][rel], want["files"][rel]) for rel in want["files"]
        ]:
            problem = compare_text(g, w)
            if problem:
                raise GateFailure(f"{cmd.name} {label}: {problem}")
        if cmd.name == "importtime":
            return {"import": parse_importtime(proc.stderr)}
        if cmd.name == "tomo_reconstruct":
            return {"fidelity": json.loads(proc.stdout)["fidelity_to_target"]}
        return {}
