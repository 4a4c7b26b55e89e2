"""Exact-bytes regression of the CLI against ``tests/golden/cli.json``.

The golden holds the stdout and every output file of the commands in
``record_golden.COMMANDS``; re-record it with ``tests/record_golden.py``
only when an output is meant to change.
"""

import json

from ering.cli import main
from record_golden import COMMANDS, GOLDEN, changed_files, drift_report, snapshot


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


def test_drift_report_names_text_exit_file_and_number_changes():
    def entry(name, stdout, files, code=0):
        return {"name": name, "argv": [name], "exit": code, "stdout": stdout, "files": files}

    old = [
        entry("same", "S = 2.5\n", {"a.csv": "x,1e-3\n"}),
        entry("numbers", '{"T": 0.25, "n": 3}\n', {"a.csv": "p\n0.5\n"}),
        entry("text", "ok 1\n", {}),
        entry("code", "", {}),
        entry("files", "", {"a.csv": "1\n"}),
        entry("gone", "", {}),
    ]
    new = [
        entry("same", "S = 2.5\n", {"a.csv": "x,1e-3\n"}),
        entry("numbers", '{"T": 0.2500001, "n": 3}\n', {"a.csv": "p\n0.4999998\n"}),
        entry("text", "ok 1 more\n", {}),
        entry("code", "", {}, code=3),
        entry("files", "", {"b.csv": "1\n"}),
        entry("added", "", {}),
    ]
    report = drift_report(old, new)
    assert report[0] == "numbers: max |delta| 2.0e-07"
    assert report[1] == "text: stdout: text changed"
    assert report[2] == "code: exit 0 -> 3"
    assert report[3] == "files: files ['a.csv'] -> ['b.csv']"
    assert report[4:] == ["added: new command", "gone: command removed"]
