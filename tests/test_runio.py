import ast
import tracemalloc
from pathlib import Path

import numpy as np

import qbm
from qbm.runio import read_csv, write_csv

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300, 5e-324, 0.1, 1.0 / 3.0]


def reference_bytes(columns, rows):
    """The format the writer promises: a schema comment, a header, %.17g per cell."""
    lines = [f"# {columns}", columns]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_bytes_match_per_cell_format(tmp_path):
    rng = np.random.default_rng(3)
    n = 600  # crosses the writer's row-chunk boundaries
    special = np.resize(np.array(SPECIAL), n)
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
