import ast
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm
from qbm.runio import format_rows, read_csv, write_csv

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300, 5e-324, 0.1, 1.0 / 3.0]


def reference_bytes(columns, rows):
    """The format the writer promises: a schema comment, a header, %.17g per cell."""
    lines = [f"# {columns}", columns]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_rows(rows) -> bytes:
    """CSV lines of ``rows`` formatted cell by cell with ``'%.17g'``."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist()).encode()


def ties() -> list:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5.

    m/8 (m odd, 8e14 <= m < 8e15) and m/4 (4e15 <= m < 2^53) are exact, and
    their %.17g rounds half to even.
    """
    rng = np.random.default_rng(11)
    ms = [*(2 * rng.integers(4 * 10**14, 4 * 10**15, 40) + 1), *(2 * rng.integers(2 * 10**15, 2**52, 40) + 1)]
    values = [int(m) / 8 for m in ms[:40]] + [int(m) / 4 for m in ms[40:]]
    for v in values:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    return values


def edge_values() -> np.ndarray:
    """Where a vectorized %.17g could go wrong, each with its negative.

    NaN payloads, the zeros, infinities, subnormals and the normal limits;
    each power of ten and its neighbours (some of those doubles round up to
    the power at 17 digits); the bounds of the certified range; values with
    trailing zeros; and exact ties.
    """
    payloads = np.array([0x7FF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF], dtype=np.uint64)
    values = [*payloads.view(float), np.nan, 0.0, np.inf, 5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1.7976931348623157e308, 1e-38, 1e43, 0.1, 0.3, 1.5,
              123456.789, 1200.0, 0.00012, 1.5e-5, 12345678901234567.0, 2.0**53, 2.0**53 + 2.0]
    for k in range(-324, 309):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0), np.nextafter(power, np.inf), 9.5 * power]
    values += ties()
    values = np.array(values)
    return np.concatenate([values, -values])


def test_csv_bytes_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(3)
    special = np.concatenate([SPECIAL, edge_values()])
    n = len(special)  # crosses the writer's chunk boundaries many times
    rows = np.column_stack(
        [
            special,
            np.arange(n, dtype=float) - 300.0,  # integer-valued floats
            rng.normal(scale=1e3, size=n),
            rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
        ]
    )
    path = tmp_path / "t.csv"
    write_csv(path, dict(zip("abcd", rows.T)))
    assert path.read_bytes() == reference_bytes("a,b,c,d", rows)
    header, data = read_csv(path)
    assert header == ["a", "b", "c", "d"]
    np.testing.assert_array_equal(data, rows)


def test_csv_single_row_and_single_column(tmp_path):
    path = tmp_path / "row.csv"
    write_csv(path, {"x": [1.5], "y": [-0.0], "z": [2.0]})
    assert path.read_bytes() == reference_bytes("x,y,z", [[1.5, -0.0, 2.0]])
    col = np.array([[v] for v in SPECIAL])
    write_csv(path, {"x": col[:, 0]})
    assert path.read_bytes() == reference_bytes("x", col)


def test_formatter_matches_per_cell_format_on_the_edge_list():
    values = edge_values()
    for ncols in (1, 2, 3, 7):
        rows = np.resize(values, (len(values) // ncols + 1, ncols))
        assert format_rows(rows) == reference_rows(rows), ncols


def test_formatter_matches_per_cell_format_on_a_million_patterns():
    # raw 64-bit patterns, most outside the certified range, and as many
    # with exponents drawn inside it
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 2**64, size=2**19, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(1023 - 126, 1023 + 143, size=2**19, dtype=np.uint64)
    inside = (raw & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    for bits in (raw, inside):
        rows = bits.view(float).reshape(-1, 8)
        for start in range(0, len(rows), 4096):
            block = rows[start : start + 4096]
            assert format_rows(block) == reference_rows(block), start


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=8, max_size=8 * 600), ncols=st.integers(1, 5))
def test_formatter_matches_per_cell_format_on_drawn_patterns(data, ncols):
    values = np.frombuffer(data[: len(data) // 8 * 8], dtype=np.float64)
    rows = np.resize(values, (len(values) // ncols + 1, ncols))
    assert format_rows(rows) == reference_rows(rows)


def test_csv_writer_stacks_one_chunk_at_a_time(tmp_path):
    # stacking the whole 2^17-row table first traced 3 MiB; a chunk, 0.1 MiB
    table = {name: np.full(2**17, 0.1) for name in "xyz"}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def imported_names(tree):
    """Every module an import under ``tree`` names, ``from a import b`` as both a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_the_edges_of_the_pipeline_do_file_io():
    # config reads every input file and runner writes every artifact; kernels,
    # coefficients, homogeneous, propagator, qcf and oracle only compute
    importers = {
        path.stem
        for path in Path(qbm.__file__).parent.glob("*.py")
        if "qbm.runio" in set(imported_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert importers == {"config", "runner"}
