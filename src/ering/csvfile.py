"""The one CSV layout of every data file the package reads or writes, the
one reader of JSON input files and the one writer of every output file.

Optional ``# key value`` comment lines, a header row, then one row per
record; every line ends in ``\\n``.  ``write`` formats each row once and
quotes a cell as ``csv.writer`` does with ``QUOTE_MINIMAL``: a cell holding
a comma, a double quote, a newline or a carriage return is wrapped in
double quotes with its quotes doubled, and a row of one empty cell is
written ``""``.  So an ``E(Theta,Phi)`` projector label is quoted, and a
cell holding a lone ``\\r`` is quoted too (the reader splits lines there
otherwise); both read back whole.  Read errors name
``path:line``.  Every JSON file the package reads goes through
``read_json``, and every file it writes, CSV or JSON, through ``write_text``.
"""

from __future__ import annotations

import csv
import json
import math
import os

from .errors import InputFormatError


def write(path, header: list[str], rows, comments: dict | None = None, digits: int = 10) -> None:
    """Write a file in one call; float cells get ``digits`` significant digits, comment values 10.

    Cells are str, int or float; each row is formatted and joined once, and
    only a table holding a comma, a double quote, a newline or a carriage
    return inside a cell, or a row of one empty cell, is joined again with
    the quoting rule of the module docstring.
    """
    spec = f".{digits}g"
    table = [
        [v if type(v) is str else format(v, spec) if isinstance(v, float) else str(v) for v in row]
        for row in (header, *rows)
    ]
    text = "\n".join(map(",".join, table))
    # a comma or newline beyond those of the joins is inside a cell
    inside = text.count(",") > sum(map(len, table)) - len(table) or text.count("\n") >= len(table)
    if inside or '"' in text or "\r" in text or [""] in table:
        text = "\n".join(map(_quoted_line, table))
    head = "".join(f"# {key} {value:.10g}\n" for key, value in (comments or {}).items())
    write_text(path, head + text + "\n")


def _quoted_line(cells: list[str]) -> str:
    if cells == [""]:
        return '""'
    return ",".join(
        '"' + cell.replace('"', '""') + '"'
        if "," in cell or '"' in cell or "\n" in cell or "\r" in cell
        else cell
        for cell in cells
    )


def write_text(path, text: str) -> None:
    """Make ``path`` hold exactly ``text`` as UTF-8, rewriting it in place.

    The file is opened without ``O_TRUNC`` and cut at the end of the new
    bytes, so an existing file never passes through size zero (ext4 flushes
    a file truncated to zero and rewritten when it is closed).  A new file
    gets mode ``0o666 & ~umask``, an existing one keeps its inode and mode,
    and a symlink is followed, as with ``open(path, "w")``.  A kill between
    the write and the cut can leave the new text followed by the old tail.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def read_json(path, parse):
    """``parse`` of a UTF-8 JSON file, byte-order mark or not; bad JSON or text or a parse
    error names the path."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse(json.load(fh))
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: bad JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except InputFormatError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def read(
    path, header: list[str], comments: dict[str, float | None]
) -> tuple[dict[str, float], list]:
    """The comment values and the nonblank rows, as ``(line, stripped fields)`` pairs.

    ``comments`` maps the keys read to their defaults; a key whose default
    is None must be in the file.  A comment line whose first word is one of
    those keys must be exactly ``# key value``, at most once per key; other
    comment lines are skipped.  A value in the file must be finite and
    positive, or equal its default (0 stands for unknown).  The file must be
    UTF-8 text with no NUL character; a leading byte-order mark is skipped.
    """
    values = dict(comments)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for number, text in enumerate(lines, 1):
        if "\0" in text:  # csv.reader on Python 3.10 refuses such a line with its own error
            raise error(path, number, "line contains a NUL character")
    start = 0
    seen = set()
    while start < len(lines) and lines[start].startswith("#"):
        parts = lines[start][1:].split()
        start += 1
        if parts and parts[0] in comments:
            key, *rest = parts
            if key in seen:
                raise InputFormatError(f"{path}:{start}: {key} is given twice")
            seen.add(key)
            if len(rest) != 1:
                raise InputFormatError(
                    f"{path}:{start}: {key} needs exactly one value, got {' '.join(rest)!r}"
                )
            text = rest[0]
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and (value > 0 or value == comments[key])):
                raise InputFormatError(
                    f"{path}:{start}: {key} must be finite and positive, got {text!r}"
                )
            values[key] = value
    for key, default in comments.items():
        if default is None and key not in seen:
            raise InputFormatError(f"{path}: no '# {key} <value>' line")
    reader = csv.reader(lines[start:])
    if list(map(str.strip, next(reader, []))) != header:
        raise InputFormatError(f"{path}:{start + 1}: expected header {','.join(header)!r}")
    rows = []
    width = len(header)
    for fields in reader:
        if len(fields) > 1 or "".join(fields).strip():
            line = start + reader.line_num
            if len(fields) != width:
                raise error(path, line, f"expected {width} fields, got {len(fields)}")
            rows.append((line, list(map(str.strip, fields))))
    return values, rows


def error(path, line: int, message: str) -> InputFormatError:
    """The error of a bad ``path`` at ``line``, read ``path:line: message``."""
    return InputFormatError(f"{path}:{line}: {message}")


def number(path, line: int, text: str, what: str) -> float:
    """``text`` as a finite float, else an InputFormatError at ``path:line``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise error(path, line, str(exc)) from None
    if not math.isfinite(value):
        raise error(path, line, f"non-finite {what} {text!r}")
    return value


def count(path, line: int, text: str) -> float:
    """``text`` as a finite, nonnegative count."""
    value = number(path, line, text, "counts")
    if value < 0:
        raise error(path, line, f"negative counts {value:g}")
    return value
