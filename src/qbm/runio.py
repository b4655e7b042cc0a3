"""Artifact files: ``write_csv`` formats a table, ``write_text`` a report,
``copy_file`` mirrors a file already written, byte for byte, and ``read_csv``
reads a table back.  A table is an ordered mapping from column name to 1-d
column, so its header is its keys.  Every CSV starts with a ``#``-prefixed
schema comment and a plain header row; floats are written with %.17g so
reruns are byte-identical.  ``qbm.runner`` writes every artifact and
``qbm.config`` reads every input file; no numeric module does file I/O.
"""

from __future__ import annotations

import shutil

import numpy as np

from qbm.errors import FileError, ValidationError


_CHUNK_ROWS = 256  # rows stacked and converted to Python floats at a time, so memory stays flat


def write_csv(path, table: dict) -> None:
    """Write ``table``, ``{name: 1-d column}``, one row per index, its names as the header."""
    header = ",".join(table)
    columns = [np.asarray(column) for column in table.values()]
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {header}\n")
            fh.write(header + "\n")
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                chunk = np.column_stack([column[start : start + _CHUNK_ROWS] for column in columns])
                fh.write("".join(line % tuple(row) for row in chunk.tolist()))
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def write_text(path, lines) -> None:
    """Write a plain-text report, one line per item of ``lines``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def copy_file(src, dst) -> None:
    """Write ``dst`` as a byte copy of ``src``, without reformatting it."""
    try:
        shutil.copyfile(src, dst)
    except OSError as exc:
        raise FileError(f"cannot write {dst}: {exc}") from exc


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV in the layout of :func:`write_csv`: header row, then numbers.

    Blank lines and ``#`` comment lines are skipped.  A file that is not
    UTF-8, a non-numeric cell or a row whose length differs from the header
    raises ``ValidationError`` naming the file (and the line).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1)]
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"CSV {path} is not UTF-8 text: {exc.reason}") from exc
    body = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise ValidationError(f"CSV {path} has no header row")
    header = [name.strip() for name in body[0][1].split(",")]
    rows = []
    for lineno, ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"CSV {path} line {lineno}: expected {len(header)} values, got {len(cells)}"
            )
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ValidationError(f"CSV {path} line {lineno}: {exc}") from exc
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))
