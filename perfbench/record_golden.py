"""Re-record the golden outputs of the ``cli`` workload.

    python3 perfbench/record_golden.py

Runs every command of ``cli_workload.COMMANDS`` once, the way the
benchmark does, and writes ``golden/cli.json``.  Re-record only when a
change is meant to alter what the CLI prints or writes, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_workload  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=out_dir, prefix="golden-"))
    try:
        cli_workload.write_inputs(work)
        commands = {}
        for cmd in cli_workload.COMMANDS:
            proc = cli_workload.run_command(cmd, work)
            if proc.returncode != 0:
                print(f"{cmd.name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
                return 1
            commands[cmd.name] = cli_workload.snapshot(cmd, proc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = {
        "tolerance": {"abs": cli_workload.NUM_ABS_TOL, "rel": cli_workload.NUM_REL_TOL},
        "commands": commands,
    }
    cli_workload.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {cli_workload.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
