"""Artifact files: ``write_csv`` formats a table, ``write_text`` a report,
``copy_file`` mirrors a file already written, byte for byte, and ``read_csv``
reads a table back.  A table is an ordered mapping from column name to 1-d
column, so its header is its keys.  Every CSV starts with a ``#``-prefixed
schema comment and a plain header row; each float is written as ``'%.17g'``
writes it, so reruns are byte-identical.  ``qbm.runner`` writes every
artifact and ``qbm.config`` reads every input file; no numeric module does
file I/O.

``format_rows`` gives those bytes with numpy alone.  For each cell it takes
e = floor(log10|x|) and forms |x| 10^(16 - e) exactly enough to round it to
the 17-digit integer D: a double-double product (Dekker, Numer. Math. 18,
224, 1971) with a double-double table of powers of ten.  D's digits are laid
out from a table of 4-digit groups with the sign, ``0.000`` prefix, point,
exponent and trailing-zero rules of ``%g``.  A cell it cannot certify goes to
``'%.17g'`` itself: zero aside, |x| outside [1e-38, 1e43) (NaN, infinities and
subnormals included), a scaled value within 1e-4 of a half-integer, where
the correctly rounded digits may differ, and an estimate e that is off by one.
"""

from __future__ import annotations

import functools
import shutil

import numpy as np

from qbm.errors import FileError, ValidationError


_CHUNK_CELLS = 1024  # cells formatted at a time, so memory stays flat

# A cell is laid out in six little-endian 64-bit words, 48 bytes, whose NUL
# bytes are padding that one ``bytes.translate`` deletes:
#   word 0     sign, the "0.000" prefix of fixed notation below 1, digit 0, slot
#   words 1-4  digits 1-16 in groups of four, each digit followed by a slot
#   word 5     the "e+XX" suffix of exponential notation; last byte the separator
# The slot after a digit holds the decimal point if the point follows that digit.
_K_LOW, _K_HIGH = -27, 55  # powers 10^k in the table; class i scales by 10^(i + _K_LOW)
_CLASSES = _K_HIGH - _K_LOW + 1
_X_OF_CLASS_0 = 16 - _K_LOW  # the decimal exponent of class i is _X_OF_CLASS_0 - i
_SPLIT = 134217729.0  # Veltkamp's 2^27 + 1
_KEPT = 18  # digits up to the last nonzero one, 0 to 17: key = class * _KEPT + kept
_WORD = np.dtype("<u8")


@functools.cache
def _tables() -> tuple:
    """The formatter's lookup tables, about 0.2 MB, built on first use."""
    # 10^k = hi + lo, each correctly rounded, and hi split in halves of 26 bits
    hi, lo = [], []
    for k in range(_K_LOW, _K_HIGH + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    head = _SPLIT * hi
    head -= head - hi
    powers = (hi, np.array(lo), head, hi - head)

    # each group g = 0 ... 9999 of four digits, each digit followed by a '.'
    # that the masks below keep or drop, built from the pairs 00 ... 99
    ten = np.arange(10, dtype=_WORD)
    pair = ((ten[:, None] + 48) | 46 << 8 | (ten + 48) << 16 | 46 << 24).ravel()
    quad = (pair[:, None] | pair << 32).ravel()
    # the digits through the last nonzero one of a pair, of a group, and of the
    # number up to group j (digits 4j + 1 to 4j + 4), or 0 for a zero group
    ten = np.arange(10, dtype=np.int8)
    pair_kept = np.where(ten > 0, 2, np.where(ten[:, None] > 0, 1, 0)).astype(np.int8).ravel()
    quad_kept = np.where(pair_kept > 0, pair_kept + 2, pair_kept[:, None]).ravel()
    kept = np.where(quad_kept > 0, quad_kept + np.arange(1, 17, 4, dtype=np.int8)[:, None], 0)

    x = _X_OF_CLASS_0 - np.arange(_CLASSES)  # the decimal exponent of each class
    fixed = (-4 <= x) & (x < 17)
    integer_digits = np.where(fixed & (x >= 0), x + 1, 1)  # printed even if zero
    point = np.where(fixed, x, 0)  # the digit the point follows; none below 1 or at 16
    pointed = ~fixed | ((0 <= x) & (x < 16))
    shown = np.maximum(np.arange(_KEPT), integer_digits[:, None])
    dot = pointed[:, None] & (shown > point[:, None] + 1)  # a digit follows the point
    cell = np.zeros((_CLASSES, _KEPT, 5, 8), dtype=np.uint8)
    digit = 1 + np.arange(16).reshape(4, 4)
    byte = np.uint8(255)
    cell[:, :, 1:, 0::2] = byte * (digit < shown[:, :, None, None])
    cell[:, :, 1:, 1::2] = byte * (dot[:, :, None, None] & (digit == point[:, None, None, None]))
    cell[:, :, 0, 7] = np.uint8(46) * (dot & (point == 0)[:, None])
    suffix = np.zeros((_CLASSES, 8), dtype=np.uint8)
    for i in np.flatnonzero((-4 <= x) & (x < 0)):
        cell[i, :, 0, 1 : 2 - x[i]] = np.frombuffer(b"0." + b"0" * (-x[i] - 1), dtype=np.uint8)
    for i in np.flatnonzero(~fixed):
        suffix[i, :4] = np.frombuffer(b"e%+03d" % x[i], dtype=np.uint8)
    words = cell.view(_WORD).reshape(_CLASSES * _KEPT, 5)
    # word 0 of each key, its prefix and point; words 1-4, the masks of the groups
    return powers, quad, kept, words[:, 0].copy(), words[:, 1:].T.copy(), suffix.view(_WORD).ravel()


def _significand(x: np.ndarray) -> tuple:
    """(D, class, certified) of each float x: D = round(|x| 10^(16 - e)), 17 digits.

    ``certified`` is False where D or e may be wrong, and for zero; there D
    is 0 and the class that of e = 0, so a zero is laid out as "0".
    """
    (hi, lo, head, tail), *_ = _tables()
    a = np.abs(x)
    certified = (a >= 1e-38) & (a < 1e43)
    a[~certified] = 1.0
    cls = (16.0 - _K_LOW - np.floor(np.log10(a))).astype(np.intp)  # in range for certified a
    # y = a 10^(16 - e) as y + y_lo: a * hi exactly (Dekker's product), plus a * lo
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    y = a * hi[cls]
    err = a_head * head[cls] - y
    err += a_head * tail[cls]
    err += a_tail * head[cls]
    err += a_tail * tail[cls]
    err += a * lo[cls]
    y_lo = err - ((y + err) - y)
    y += err  # an even integer from 2^53 on, so D = y + round(y_lo)
    rounded = np.floor(y_lo + 0.5)
    d = y.astype(np.int64)
    d += rounded.astype(np.int64)
    # 17 digits, neither rounded up to 10^17 nor from just below 10^16 (e one too
    # high), and not within 1e-4 of a tie: the error of y + y_lo is below 1e-14
    certified &= (d >= 10**16) & (d < 10**17) & ((y > 1e16) | (y_lo >= 0))
    certified &= np.abs(y_lo - rounded) < 0.5 - 1e-4
    cls[~certified] = _X_OF_CLASS_0
    d[~certified] = 0
    return d, cls, certified


def format_rows(block: np.ndarray) -> bytes:
    """The rows of the 2-d ``block`` as CSV lines, every cell byte for byte ``'%.17g' % v``."""
    _, quad, kept, lead_words, masks, suffixes = _tables()
    x = np.ascontiguousarray(block, dtype=float).ravel()
    d, cls, certified = _significand(x)
    top = d // 10**8
    d -= top * 10**8
    digit0 = top // 10**8
    top -= digit0 * 10**8
    groups = (top // 10**4, top % 10**4, d // 10**4, d % 10**4)
    last = kept[0][groups[0]]
    for j in (1, 2, 3):
        np.maximum(last, kept[j][groups[j]], out=last)
    key = cls * _KEPT + last
    words = np.empty((6, x.size), dtype=_WORD)
    np.take(lead_words, key, out=words[0])
    words[0] |= (digit0 + 48).astype(_WORD) << 48
    words[0] |= np.signbit(x) * _WORD.type(45)
    for j, group in enumerate(groups):
        np.take(quad, group, out=words[j + 1])
        words[j + 1] &= masks[j][key]
    np.take(suffixes, cls, out=words[5])
    ends = np.full(block.shape[1], ord(","), dtype=_WORD)
    ends[-1] = ord("\n")
    words[5].reshape(-1, len(ends))[:] |= ends << 56
    # each cell it could not certify, '%.17g' itself: padded with spaces, which
    # never occur in a cell and are deleted with the NULs, before its separator
    for i in np.flatnonzero(~certified & (x != 0)):
        words[:5, i] = np.frombuffer(b"%-40.17g" % x[i], dtype=_WORD)
        words[5, i] &= 255 << 56
    return words.T.tobytes().translate(None, b" \0")


def write_csv(path, table: dict) -> None:
    """Write ``table``, ``{name: 1-d column}``, one row per index, its names as the header."""
    header = ",".join(table)
    columns = [np.asarray(column, dtype=float) for column in table.values()]
    rows = max(1, _CHUNK_CELLS // len(columns))
    try:
        with open(path, "wb") as fh:
            fh.write(f"# {header}\n{header}\n".encode("utf-8"))
            for start in range(0, len(columns[0]), rows):
                fh.write(format_rows(np.column_stack([c[start : start + rows] for c in columns])))
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
