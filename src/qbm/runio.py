"""Deterministic CSV and text-report writing shared by the artifact emitters.

Every output file starts with a ``#``-prefixed schema comment followed by a
plain header row; floats are written with %.17g so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from qbm.errors import FileError


_CHUNK_ROWS = 256  # rows converted to Python floats at a time, so memory stays flat


def write_csv(path, columns: str, rows) -> None:
    rows = np.atleast_2d(np.asarray(rows))
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {columns}\n")
            fh.write(columns + "\n")
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start : start + _CHUNK_ROWS].tolist()
                fh.write("".join(line % tuple(row) for row in chunk))
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def write_text(path, lines) -> None:
    """Write a plain-text report, one line per item of ``lines``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a CSV written by :func:`write_csv` (also used for diffing)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return header, data
