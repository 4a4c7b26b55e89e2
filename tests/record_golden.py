"""Record the exact stdout and output files of a fixed list of CLI commands.

    PYTHONPATH=src python tests/record_golden.py

runs every command of ``COMMANDS`` in order as ``python -m ering`` in one
fresh temporary directory (so later commands read what earlier ones wrote),
without ``ERING_CONFIG``, and writes ``tests/golden/cli.json``: per command
its argv, exit code, stdout and the text of every file it created or
changed.  ``tests/test_golden.py`` replays the same commands in process and
requires every byte to match.  It also writes ``tests/golden/usage.json``:
the exit code, stdout and stderr of the ``USAGE`` runs, which end in the
top-level parser, replayed by ``tests/test_cli.py``.  Manifests are stored without their
``wall_clock_s`` entry, the one value that differs between runs.

Before writing, it prints a drift report against the golden it replaces:
per command, a changed exit code, a changed set of files, any change of
the non-numeric text, and the largest absolute change of the numbers in
its stdout and files.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
USAGE_GOLDEN = Path(__file__).parent / "golden" / "usage.json"
SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    ("state_werner", "state werner --p 0.82"),
    ("state_werner_patchwork", "state werner --p 0.3 --via patchwork"),
    ("state_mems", "state mems --p 0.45"),
    ("state_mems_patchwork", "state mems --p 0.45 --via patchwork"),
    ("state_mems_out", "state mems --p 0.9 --out state_mems.json"),
    ("state_bell", "state bell --kind phi --phi 3.14159"),
    ("state_bell_psi", "state bell --kind psi --phi 1.0"),
    ("state_singlet", "state singlet"),
    ("state_nonmax", "state nonmax --theta-p 20"),
    ("state_tuned", "state tuned --fidelity 0.9 --a 0.7"),
    ("source", "source"),
    ("source_displacement", "source --displacement-um 60 --set alpha=0.0506 --out source.json"),
    ("figure2", "figure 2 --seed 3 --out-dir figures"),
    ("figure3", "figure 3 --seed 1 --out-dir figures"),
    ("figure3_noise", "figure 3 --seed 2 --phi 1.2 --counts-per-point 500 --out-dir noisy"),
    ("figure4", "figure 4 --seed 3 --out-dir figures"),
    ("figure8", "figure 8 --seed 7 --out-dir figures"),
    ("figure11", "figure 11 --seed 7 --counts-per-setting 20000 --out-dir figures"),
    ("figure12", "figure 12 --seed 7 --out-dir figures"),
    ("tomo_sim_werner",
     "tomo simulate --family werner --p 0.47 --counts 40000 --seed 3 --out tomo_w.csv "
     "--target-out target_w.json"),
    ("tomo_sim_mems",
     "tomo simulate --family mems --p 0.6 --counts 10000 --seed 4 --out tomo_m.csv"),
    ("tomo_sim_singlet", "tomo simulate --family singlet --counts 40000 --seed 1 --out tomo_s.csv"),
    ("tomo_sim_file",
     "tomo simulate --family file --state target_w.json --counts 20000 --seed 5 "
     "--out tomo_f.csv --target-out target_f.json"),
    ("tomo_rec_ml",
     "tomo reconstruct --data tomo_w.csv --seed 0 --target target_w.json --out report_w.json"),
    ("tomo_rec_linear", "tomo reconstruct --data tomo_m.csv --method linear"),
    ("tomo_rec_singlet", "tomo reconstruct --data tomo_s.csv"),
    ("tomo_rec_file",
     "tomo reconstruct --data tomo_f.csv --target target_f.json --out report_f.json"),
    ("bell_sim_singlet",
     "bell simulate --family singlet --duration 180 --seed 5 --out counts_s.csv"),
    ("bell_sim_werner",
     "bell simulate --family werner --p 0.904 --duration 180 --seed 5 --set visibility=1.0 "
     "--out counts_w.csv"),
    ("bell_sim_mems_angles",
     "bell simulate --family mems --p 0.8 --angles 10 55 32.5 77.5 --seed 6 --out counts_m.csv"),
    ("bell_sim_file",
     "bell simulate --family file --state target_w.json --duration 60 --seed 8 --out counts_f.csv"),
    ("bell_eval", "bell eval --counts counts_s.csv"),
    ("bell_eval_angles", "bell eval --counts counts_m.csv --angles 10 55 32.5 77.5"),
    ("bell_sim_degenerate",
     "bell simulate --family werner --p 0.7 --angles 0 0 0 0 --duration 2 --seed 4 "
     "--out counts_d.csv"),
    ("bell_eval_degenerate", "bell eval --counts counts_d.csv --angles 0 0 0 0"),
)

#: Runs that end in the top-level parser: its help, its version, no command and an unknown one.
USAGE = (["--help"], ["--version"], [], ["foo"])

_WALL_CLOCK = re.compile(r',\n  "wall_clock_s": [-+0-9.eE]+')


def snapshot(work_dir: Path) -> dict[str, str]:
    """Every file below ``work_dir`` by relative path, manifests without wall time."""
    files = {}
    for path in sorted(work_dir.rglob("*")):
        if path.is_file():
            text = path.read_bytes().decode()
            if path.name.endswith(".manifest.json"):
                text = _WALL_CLOCK.sub("", text)
            files[path.relative_to(work_dir).as_posix()] = text
    return files


def changed_files(before: dict[str, str], after: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in after.items() if before.get(k) != v}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_drift(old: str, new: str) -> float | None:
    """Largest |new - old| over the numbers of two texts; None if the rest of the text differs."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = zip(_NUMBER.findall(old), _NUMBER.findall(new))
    return max((abs(float(b) - float(a)) for a, b in pairs), default=0.0)


def drift_report(old: list[dict], new: list[dict]) -> list[str]:
    """One line per command whose recorded exit code, files, text or numbers changed."""
    before = {entry["name"]: entry for entry in old}
    lines = []
    for entry in new:
        name = entry["name"]
        was = before.pop(name, None)
        if was is None:
            lines.append(f"{name}: new command")
            continue
        changes = []
        for key in ("argv", "exit"):
            if was[key] != entry[key]:
                changes.append(f"{key} {was[key]} -> {entry[key]}")
        if was["files"].keys() != entry["files"].keys():
            changes.append(f"files {sorted(was['files'])} -> {sorted(entry['files'])}")
        texts = {"stdout": (was["stdout"], entry["stdout"])}
        for path in sorted(was["files"].keys() & entry["files"].keys()):
            texts[path] = (was["files"][path], entry["files"][path])
        worst = 0.0
        for label, (a, b) in texts.items():
            delta = number_drift(a, b)
            if delta is None:
                changes.append(f"{label}: text changed")
            else:
                worst = max(worst, delta)
        if worst:
            changes.append(f"max |delta| {worst:.1e}")
        if changes:
            lines.append(f"{name}: " + "; ".join(changes))
    lines += [f"{name}: command removed" for name in before]
    return lines


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ERING_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


def record_usage() -> dict:
    """Exit code, stdout and stderr of each ``USAGE`` run of ``python -m ering`` at 80 columns,
    and the Python version they were read on (argparse words its messages per version)."""
    runs = []
    for argv in USAGE:
        proc = subprocess.run(
            [sys.executable, "-m", "ering", *argv],
            env=dict(_env(), COLUMNS="80"),
            capture_output=True,
            text=True,
        )
        runs.append(
            {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        )
    return {"python": "%d.%d" % sys.version_info[:2], "runs": runs}


def record() -> list[dict]:
    env = _env()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        files = snapshot(work_dir)
        for name, command in COMMANDS:
            argv = command.split()
            proc = subprocess.run(
                [sys.executable, "-m", "ering", *argv], cwd=work_dir, env=env, capture_output=True
            )
            after = snapshot(work_dir)
            results.append(
                {
                    "name": name,
                    "argv": argv,
                    "exit": proc.returncode,
                    "stdout": proc.stdout.decode(),
                    "files": changed_files(files, after),
                }
            )
            files = after
    return results


if __name__ == "__main__":
    results = record()
    if GOLDEN.exists():
        report = drift_report(json.loads(GOLDEN.read_text()), results)
        print("\n".join(report) if report else f"no drift against {GOLDEN}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n")
    USAGE_GOLDEN.write_text(json.dumps(record_usage(), indent=1) + "\n")
    print(f"wrote {GOLDEN} and {USAGE_GOLDEN}")
