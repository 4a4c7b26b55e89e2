import ast
import csv
import io
import json
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ering import csvfile
from ering.counts import CountsTable, STANDARD_PLAN, angle_label, counts_from_csv, counts_to_csv
from ering.cli import main
from ering.errors import InputFormatError
from ering.states import density_matrix_to_dict, save_density_matrix, werner
from ering.tomography import TomoData, TomoSetting, tomo_data_from_csv, tomo_data_to_csv

from test_bell import counts_table


def rowwise_write(path, header, rows, comments=None, digits=10):
    """The row-by-row writer that ``csvfile.write`` replaced: the byte oracle.

    Each row is written by ``csv.writer`` with a ``\\r\\n`` terminator, which
    quotes a cell holding a ``\\r`` or a ``\\n`` on every Python version, and
    the terminator is then replaced by ``\\n``.
    """
    lines = [f"# {key} {value:.10g}" for key, value in (comments or {}).items()]
    cells = ([f"{v:.{digits}g}" if isinstance(v, float) else v for v in row] for row in rows)
    for row in (header, *cells):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n"))
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def oracle_bytes(monkeypatch, tmp_path, write_file):
    """The bytes ``write_file(path)`` produces with the oracle writer in place."""
    path = tmp_path / "oracle.csv"
    with monkeypatch.context() as patch:
        patch.setattr(csvfile, "write", rowwise_write)
        write_file(path)
    return path.read_bytes()


def test_counts_file_matches_the_rowwise_bytes(tmp_path, monkeypatch):
    counts = {setting: 1000 + 37 * k for k, setting in enumerate(STANDARD_PLAN.settings)}
    table = counts_table({**counts, (0.0, math.pi / 8): 12.5}, duration=11.25)  # a non-integer count
    path = tmp_path / "counts.csv"
    counts_to_csv(table, path)
    assert path.read_bytes() == oracle_bytes(monkeypatch, tmp_path, lambda p: counts_to_csv(table, p))
    assert counts_from_csv(path).entries == table.entries


def test_tomography_file_matches_the_rowwise_bytes(tmp_path, monkeypatch):
    settings = [TomoSetting("H", "V"), TomoSetting("E(0.7,0.3)", "D"), TomoSetting("R", "L")]
    data = TomoData(settings, np.array([12.0, 0.1 + 0.2, 7.0]), 4.0e4 / 3)
    path = tmp_path / "tomo.csv"
    tomo_data_to_csv(data, path)
    text = path.read_text()
    assert '"E(0.7,0.3)"' in text and "0.30000000000000004" in text
    assert path.read_bytes() == oracle_bytes(monkeypatch, tmp_path, lambda p: tomo_data_to_csv(data, p))
    assert tomo_data_from_csv(path).settings == settings


def test_a_count_cell_is_an_int_where_its_value_is_integer():
    """The one count-cell rule of both data files: an int as it is, an integer value as an int."""
    cases = [(7, 7), (10**20, 10**20), (12.0, 12), (np.float64(3.0), 3), (-0.0, 0), (1e22, 10**22),
             (12.5, 12.5), (np.float64(0.1 + 0.2), 0.30000000000000004)]
    for n, cell in cases:
        got = csvfile.count_cell(n)
        assert type(got) is type(cell) and got == cell, n


def test_comments_quotes_and_cell_types_match_the_rowwise_bytes(tmp_path):
    header = ["label", "x", "n", "note"]
    rows = [
        ("E(0.7,0.3)", 1 / 3, 7, 'says "hi"'),
        ("plain", 2.5e-17, -3, ""),
        ("a\nb", float("nan"), 0, "x,y"),
    ]
    comments = {"duration_s": 11.25, "total_flux_estimate": 1e5 / 7}
    for digits in (10, 17):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        csvfile.write(ours, header, rows, comments, digits=digits)
        rowwise_write(theirs, header, rows, comments, digits=digits)
        assert ours.read_bytes() == theirs.read_bytes()
    csvfile.write(ours, header, iter(rows))
    rowwise_write(theirs, header, iter(rows))
    assert ours.read_bytes() == theirs.read_bytes()


#: Text cells that need quoting or look like it, projector labels among them.
_QUOTABLE = st.one_of(
    st.text(max_size=6),
    st.text(alphabet=st.sampled_from(list('ab ,"\n\r;()E\u0398\u03a6')), max_size=8),
    st.builds(
        lambda theta, phi: f"E({theta:.10g},{phi:.10g})",
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
    ),
    st.sampled_from(["", ",", '"', '""', 'a"b', "x,y", "E(\u0398,\u03a6)", " padded "]),
)
_ANY_CELL = st.one_of(_QUOTABLE, st.integers(-(10**20), 10**20), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    header=st.lists(_QUOTABLE, min_size=1, max_size=4),
    rows=st.lists(st.lists(_ANY_CELL, max_size=4), max_size=8),
    comments=st.dictionaries(
        st.text(alphabet="abcdefghij_", min_size=1, max_size=6),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**6), 10**6)),
        max_size=3,
    ),
    digits=st.sampled_from([10, 17]),
)
def test_any_rows_match_the_rowwise_bytes(tmp_path_factory, header, rows, comments, digits):
    tmp = tmp_path_factory.mktemp("rows")
    csvfile.write(tmp / "ours.csv", header, rows, comments, digits=digits)
    rowwise_write(tmp / "theirs.csv", header, rows, comments, digits=digits)
    assert (tmp / "ours.csv").read_bytes() == (tmp / "theirs.csv").read_bytes()


def _no_nul(value):
    return not (isinstance(value, str) and "\0" in value)


@pytest.mark.parametrize(
    "text,line",
    [("a,b\nx\0y,1\n", 2), ("# note \0\na,b\nx,1\n", 1), ('a,b\n"x\ny",1\n2,\0\n', 4)],
)
def test_a_nul_is_refused_at_its_line(tmp_path, text, line):
    # on every Python version: csv.reader on 3.10 raises its own error instead
    path = tmp_path / "nul.csv"
    path.write_text(text)
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:{line}: line contains a NUL"):
        csvfile.read(path, ["a", "b"], {})


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 4), data=st.data())
def test_any_rows_read_back_whole(tmp_path_factory, width, data):
    # cells holding a comma, a quote, \n or a lone \r come back as written, up
    # to the strip of every field; a NUL is left out, since the reader refuses
    # a line holding one (test_a_nul_is_refused_at_its_line)
    header = data.draw(st.lists(_QUOTABLE.filter(_no_nul), min_size=width, max_size=width))
    assume(not header[0].startswith(("#", "\ufeff")))  # a comment line, a byte-order mark
    row = st.lists(_ANY_CELL.filter(_no_nul), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, max_size=8))
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    csvfile.write(path, header, rows, digits=17)
    texts = [[format(v, ".17g") if isinstance(v, float) else str(v) for v in row] for row in rows]
    want = [[text.strip() for text in row] for row in texts if width > 1 or row[0].strip()]
    _, got = csvfile.read(path, [text.strip() for text in header], {})
    assert [fields for _, fields in got] == want


def textmode_lines(path):
    """The lines read through a text-mode file object: the line oracle of ``csvfile.read``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for number, text in enumerate(lines, 1):
        if "\0" in text:
            raise csvfile.error(path, number, "line contains a NUL character")
    return lines


def _read_outcome(path):
    try:
        return csvfile.read(path, ["a", "b"], {"k": 0.0})
    except InputFormatError as exc:
        return "error", str(exc)


def assert_reads_as_the_text_mode_oracle(path):
    """``csvfile.read`` gives the rows, line numbers or error it gives on the oracle's lines."""
    ours = _read_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvfile, "_lines", textmode_lines)
        assert ours == _read_outcome(path)


#: characters that str.splitlines would split at but a CSV reader must not
_NOT_LINE_ENDS = "\x0b\x0c\x1c\x85\u2028\u2029"
_PLAIN_CELL = st.text(alphabet=st.sampled_from(list("ab 1.-éΘΦ中" + _NOT_LINE_ENDS)), max_size=5)
#: a quoted cell may hold commas, doubled quotes and every line ending, a lone \r among them
_QUOTED_CELL = st.lists(
    st.sampled_from(["a", "é", "中", ",", '""', "\n", "\r\n", "\r", " ", "\u2028"]), max_size=6
).map(lambda parts: '"' + "".join(parts) + '"')
_LINE = st.tuples(
    st.lists(st.one_of(_PLAIN_CELL, _QUOTED_CELL), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
)


@settings(max_examples=300, deadline=None)
@given(
    bom=st.booleans(),
    comments=st.lists(st.sampled_from(["# k 3", "# k 0", "# note é", "#", "# k x"]), max_size=2),
    header=st.sampled_from(["a,b", " a , b ", "a", "é,b"]),
    lines=st.lists(_LINE, max_size=8),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=2, max_size=2),
    # a NUL or bad UTF-8 somewhere, a partial BOM among them
    damage=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 10**6), st.sampled_from([b"\0", b"\xff", b"\xe4\xb8", b"\xef\xbb", b"\x80"])
        ),
    ),
)
def test_read_matches_the_text_mode_oracle(
    tmp_path_factory, bom, comments, header, lines, ends, damage
):
    text = "".join(line + ends[0] for line in comments) + header + ends[1]
    text += "".join(cells + end for cells, end in lines)
    data = (_BOM if bom else b"") + text.encode("utf-8")
    if damage is not None:
        at, junk = damage
        at %= len(data) + 1
        data = data[:at] + junk + data[at:]
    path = tmp_path_factory.mktemp("oracle") / "in.csv"
    path.write_bytes(data)
    assert_reads_as_the_text_mode_oracle(path)


@pytest.mark.parametrize("end", [b"\r\n", b"\r", "é\n".encode(), b"\xff\n", b"\0\n"])
@pytest.mark.parametrize("pad", range(8185, 8195))
def test_read_matches_the_text_mode_oracle_at_its_chunk_edge(tmp_path, pad, end):
    # the text-mode reader decodes 8192 bytes at a time: a line ending, a
    # two-byte character, bad UTF-8 or a NUL across that edge splits as in one read
    path = tmp_path / "edge.csv"
    path.write_bytes(b"# " + b"x" * pad + end + b"a,b\r\n\"p\rq\",1\r2,\xc3\xa9\n")
    assert_reads_as_the_text_mode_oracle(path)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=40), bom=st.booleans())
def test_json_text_errors_match_the_text_mode_reader(tmp_path_factory, data, bom):
    assume(bom or data not in _PARTIAL_BOMS)  # see test_a_partial_byte_order_mark_is_not_utf8
    path = tmp_path_factory.mktemp("json") / "in.json"
    path.write_bytes((_BOM if bom else b"") + data)

    def outcome(load):
        try:
            return repr(load())  # repr: a NaN read twice compares equal
        except InputFormatError as exc:
            return str(exc)
        except json.JSONDecodeError as exc:
            return f"{path}: bad JSON: {exc}"
        except UnicodeDecodeError as exc:
            return f"{path}: not UTF-8 text ({exc.reason})"

    ours = outcome(lambda: csvfile.read_json(path, lambda value: value))
    with open(path, encoding="utf-8-sig") as fh:
        assert ours == outcome(lambda: json.load(fh))


_PARTIAL_BOMS = (b"\xef", b"\xef\xbb")


@pytest.mark.parametrize("data", _PARTIAL_BOMS)
def test_a_partial_byte_order_mark_is_not_utf8(tmp_path, data):
    # the one input on which the text-mode reader differs: its decoder
    # drops a partial mark at the end of the file and reads it as empty
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with open(path, encoding="utf-8-sig") as fh:
        assert fh.read() == ""
    for read in (lambda: csvfile.read(path, ["a"], {}), lambda: csvfile.read_json(path, dict)):
        with pytest.raises(InputFormatError, match=r": not UTF-8 text \(unexpected end of data\)$"):
            read()


@pytest.mark.parametrize("kind", ["missing", "directory", "unreadable"])
def test_unopenable_input_raises_what_a_text_mode_open_raises(tmp_path, kind):
    path = tmp_path / "in.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "unreadable":
        path.write_text("a,b\n")
        path.chmod(0)
        if os.access(path, os.R_OK):
            pytest.skip("this user reads a file of mode 000")
    with pytest.raises(OSError) as expected:
        open(path, newline="", encoding="utf-8-sig")
    for read in (lambda: csvfile.read(path, ["a", "b"], {}), lambda: csvfile.read_json(path, dict)):
        with pytest.raises(OSError) as got:
            read()
        assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


def rowwise_counts_from_csv(path):
    """A row-by-row counts reader written out step by step, the reference for ``counts_from_csv``."""
    comments, rows = csvfile.read(path, ["theta1_deg", "theta2_deg", "counts"], {"duration_s": None})
    entries = {}
    for line, (t1, t2, n) in rows:
        t1 = csvfile.number(path, line, t1, "angle")
        t2 = csvfile.number(path, line, t2, "angle")
        key = (angle_label(math.radians(t1)), angle_label(math.radians(t2)))
        n = csvfile.count(path, line, n)
        if key in entries:
            raise csvfile.error(path, line, f"duplicate setting {key}")
        entries[key] = int(n) if n.is_integer() else n
    return CountsTable(entries, comments["duration_s"])


def _outcome(read, path):
    try:
        table = read(path)
    except InputFormatError as exc:
        return "error", str(exc)
    return table.entries, table.duration


@pytest.mark.parametrize(
    "body",
    [
        ["180,22.50,5", "-0,67.5,6", "45,22.5,7", "225,67.50,8.5"],
        ["0,22.5,5", "180,22.50,3"],
        ["-0,22.50,1", "45,67.5,2", "0,22.5,2"],
        ["180,22.50,5", "22.50x,0,1"],
        ["180,-0,5", "0,nan,1"],
        ["0,22.5,5", "180,22.50,-3"],
        [f"{k / 4},{k / 2:.3f},{k}" for k in range(600)] + ["0,0.000,1"],
    ],
    ids=["labels", "duplicate-180", "duplicate-minus-0", "bad-after-good", "nan", "negative",
         "more-texts-than-the-cache-holds"],
)
def test_counts_reader_matches_the_rowwise_reader(tmp_path, body):
    path = tmp_path / "counts.csv"
    path.write_text("# duration_s 2\ntheta1_deg,theta2_deg,counts\n" + "\n".join(body) + "\n")
    expected = _outcome(rowwise_counts_from_csv, path)
    for _ in range(2):  # the second read finds every angle in angle_label's cache
        assert _outcome(counts_from_csv, path) == expected


@pytest.mark.parametrize("blank_lines", [0, 2])
@pytest.mark.parametrize("bad", [0, 5, 15])
def test_malformed_counts_row_reports_its_line(tmp_path, blank_lines, bad):
    rows = [f"0,{10 * k},{k}" for k in range(16)]
    rows[bad] = "0,22.5"
    path = tmp_path / "counts.csv"
    head = "# run 7\n# duration_s 2\n# seeded\ntheta1_deg,theta2_deg,counts\n" + "\n" * blank_lines
    path.write_text(head + "\n".join(rows) + "\n")
    line = 4 + blank_lines + bad + 1
    where = re.escape(f"{path}:{line}")
    with pytest.raises(InputFormatError, match=f"^{where}: expected 3 fields, got 2$"):
        counts_from_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("x,22.5,3", "could not convert string to float: 'x'"),
        ("0,nan,3", "non-finite angle 'nan'"),
        ("0,-inf,3", "non-finite angle '-inf'"),
        ("0,22.5,-3", "negative counts -3"),
        ("0,22.5,nan", "non-finite counts 'nan'"),
        ("180,22.5,3", r"duplicate setting \('0', '22.5'\)"),
    ],
)
def test_bad_counts_cell_reports_its_line(tmp_path, row, message):
    path = tmp_path / "counts.csv"
    path.write_text("# duration_s 2\ntheta1_deg,theta2_deg,counts\n0,22.5,5\n" + row + "\n")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:4: {message}$"):
        counts_from_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,H,V,x", "could not convert"),
        ("1,H,V,-2", "negative counts"),
        ("1,H,Q,2", "unknown projector label"),
        ("2,H,V,2", "setting_index must be 1"),
    ],
)
def test_malformed_tomography_row_reports_its_line(tmp_path, row, message):
    path = tmp_path / "tomo.csv"
    path.write_text(
        "# total_flux_estimate 100\n# note\nsetting_index,proj1,proj2,counts\n0,H,H,5\n" + row + "\n"
    )
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:5: {message}"):
        tomo_data_from_csv(path)


# ---------------------------------------------------------------------------
# the one writer: in-place rewrite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("old", ["x" * 5000 + "\n", "", "a\n"], ids=["long", "empty", "short"])
def test_rewrite_leaves_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "out.csv"
    path.write_text(old)
    inode = path.stat().st_ino
    for text in ("header\n1,2\n", "h\n", "é,\"q\"\n" * 300, ""):
        csvfile.write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert path.stat().st_ino == inode


def test_short_writes_still_leave_exactly_the_new_bytes(tmp_path, monkeypatch):
    # os.write may take fewer bytes than given; only the loop in write_text writes the rest
    path = tmp_path / "out.csv"
    path.write_text("an old and much longer text\n" * 40)
    taken = []
    real_write = os.write

    def short_write(fd, data):
        taken.append(real_write(fd, bytes(data[:5])))
        return taken[-1]

    monkeypatch.setattr(os, "write", short_write)
    text = "h\u00e9ader,\"q\"\n1,2\n" * 3
    csvfile.write_text(path, text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode("utf-8")
    assert sum(taken) == len(text.encode("utf-8")) and max(taken) == 5 and len(taken) > 1


def test_new_file_mode_follows_the_umask(tmp_path):
    previous = os.umask(0o027)
    try:
        csvfile.write_text(tmp_path / "ours", "x\n")
        with open(tmp_path / "theirs", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "ours").stat().st_mode)
    assert mode == 0o666 & ~0o027 == stat.S_IMODE((tmp_path / "theirs").stat().st_mode)


def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old text\n")
    path.chmod(0o600)
    csvfile.write_text(path, "new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "new\n"


def test_writing_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("a much longer old text\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    csvfile.write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_no_file_is_opened_with_o_trunc(tmp_path, monkeypatch, capsys):
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # a new file, then a rewrite
        assert main(["state", "werner", "--p", "0.5", "--out", str(tmp_path / "r.json")]) == 0
        assert main(["bell", "simulate", "--family", "singlet", "--duration", "4",
                     "--seed", "1", "--out", str(tmp_path / "counts.csv")]) == 0
        save_density_matrix(werner(0.5), tmp_path / "rho.json")
    capsys.readouterr()
    assert len(flags) == 2 * 5  # report and its manifest, counts and theirs, density matrix
    assert not [f for f in flags if f & os.O_TRUNC]


def test_json_files_are_the_indented_dump(tmp_path, capsys):
    report, counts = tmp_path / "r.json", tmp_path / "counts.csv"
    assert main(["state", "werner", "--p", "0.5", "--out", str(report)]) == 0
    assert main(["bell", "simulate", "--family", "singlet", "--duration", "4",
                 "--seed", "1", "--out", str(counts)]) == 0
    printed = capsys.readouterr().out.split("\nwrote ")[0]
    assert report.read_text() == json.dumps(json.loads(printed), indent=2) + "\n"
    manifest = counts.with_suffix(".manifest.json").read_text()
    assert manifest == json.dumps(json.loads(manifest), indent=2) + "\n"
    rho = werner(0.3)
    save_density_matrix(rho, tmp_path / "rho.json")
    expected = json.dumps(density_matrix_to_dict(rho), indent=2) + "\n"
    assert (tmp_path / "rho.json").read_bytes() == expected.encode()


def _writes_a_file(call: ast.Call) -> str | None:
    """What a call writes a file with, if it does: open in a write mode, write_text, json.dump."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
        mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
        if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
            return f"open(..., {mode.value!r})"
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes") and not (
            isinstance(func.value, ast.Name) and func.value.id == "csvfile"
        ):
            return f".{func.attr}"
        if func.attr == "dump" and isinstance(func.value, ast.Name) and func.value.id == "json":
            return "json.dump"
    return None


def test_every_file_is_written_by_the_one_writer():
    src = Path(csvfile.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
                found.append(f"{path.name}:{node.lineno}: O_TRUNC")
            if isinstance(node, ast.Call) and path.name != "csvfile.py":
                what = _writes_a_file(node)
                if what:
                    found.append(f"{path.name}:{node.lineno}: {what}")
    assert found == []


_BOM = "﻿".encode("utf-8")


def _with_prefix(path: Path, prefix: bytes) -> Path:
    path.write_bytes(prefix + path.read_bytes())
    return path


@pytest.mark.parametrize("prefix", [b"", _BOM], ids=["plain", "bom"])
def test_every_reader_takes_a_leading_byte_order_mark(prefix, tmp_path):
    from ering.optics import SourceConfig, config_to_dict, load_config
    from ering.states import load_density_matrix

    table = counts_table({setting: 100 + k for k, setting in enumerate(STANDARD_PLAN.settings)}, 2.5)
    counts_to_csv(table, tmp_path / "counts.csv")
    back = counts_from_csv(_with_prefix(tmp_path / "counts.csv", prefix))
    assert (back.entries, back.duration) == (table.entries, table.duration)

    data = TomoData([TomoSetting("H", "V"), TomoSetting("D", "R")], np.array([12.0, 7.0]), 40.0)
    tomo_data_to_csv(data, tmp_path / "tomo.csv")
    back = tomo_data_from_csv(_with_prefix(tmp_path / "tomo.csv", prefix))
    assert back.settings == data.settings and back.counts.tolist() == [12.0, 7.0]

    config = SourceConfig(cone_aperture=0.03)
    (tmp_path / "config.json").write_text(json.dumps(config_to_dict(config)))
    assert load_config(_with_prefix(tmp_path / "config.json", prefix)) == config

    rho = werner(0.6)
    save_density_matrix(rho, tmp_path / "rho.json")
    assert (load_density_matrix(_with_prefix(tmp_path / "rho.json", prefix)) == rho).all()


def test_a_byte_order_mark_after_the_start_is_refused(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"# duration_s 1\n" + _BOM + b"theta1_deg,theta2_deg,counts\n0,0,5\n")
    with pytest.raises(InputFormatError, match="expected header"):
        counts_from_csv(path)
