"""Exact-bytes regression of the CLI against ``tests/golden/cli.json``.

The golden holds the stdout and every output file of the commands in
``record_golden.COMMANDS``; re-record it with ``tests/record_golden.py``
only when an output is meant to change.
"""

import json

from ering.cli import main
from record_golden import COMMANDS, GOLDEN, changed_files, snapshot


def test_cli_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ERING_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == [command.split() for _, command in COMMANDS]
    files = snapshot(tmp_path)
    for entry in golden:
        code = main(entry["argv"])
        stdout = capsys.readouterr().out
        after = snapshot(tmp_path)
        assert (entry["name"], code, stdout) == (entry["name"], entry["exit"], entry["stdout"])
        assert changed_files(files, after) == entry["files"], entry["name"]
        files = after
