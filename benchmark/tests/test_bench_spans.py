"""The span tracer patches every binding of a layer function, restores it, and nests spans."""

import sys

import numpy as np
import pytest

from conftest import short_run
from spans import LAYERS, Tracer, layer_metrics, self_times


def bindings():
    """Identity of every attribute of every loaded qbm module."""
    return {(name, attr): id(value) for name, module in list(sys.modules.items())
            if name == "qbm" or name.startswith("qbm.") for attr, value in vars(module).items()}


@pytest.fixture(scope="module")
def pipeline():
    import qbm.runner  # noqa: F401  (loads every layer)
    from qbm.coefficients import compute_coefficients
    from qbm.kernels import ReservoirSpec, tabulate_kernels

    spec = ReservoirSpec(family="ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)
    grid = 0.01 * np.arange(101)
    return spec, grid, compute_coefficients(tabulate_kernels(spec, grid))


def test_wrappers_restore_every_patched_attribute():
    import qbm.runner
    import qbm.runio

    before = bindings()
    original = qbm.runio.write_csv
    with pytest.raises(RuntimeError):
        with Tracer("restore") as tracer:
            patched = {key for key, ident in bindings().items() if before.get(key) != ident}
            assert qbm.runner.write_csv is qbm.runio.write_csv is not original
            raise RuntimeError("leave the block by an exception")
    assert bindings() == before
    assert tracer._patched == []
    # runner's from-import bindings, the package re-exports and the defining modules
    assert {("qbm.runner", "write_csv"), ("qbm.runio", "write_csv"),
            ("qbm.propagator", "solve_fundamental"), ("qbm", "build_propagator"),
            ("qbm.kernels", "quad")} <= patched


def test_nested_solve_and_lazy_writes_are_attributed_to_their_parent(pipeline, tmp_path):
    import qbm.propagator as propagator
    import qbm.coefficients as coefficients

    spec, grid, coeffs = pipeline
    with Tracer("nested") as tracer:
        bundle = propagator.build_propagator(spec, grid, "full", coeffs=coeffs)
        propagator.write_propagator_csv(bundle, str(tmp_path / "p.csv"))
        coefficients.write_coefficients_csv(coeffs, str(tmp_path / "c.csv"))
    spans = tracer.spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    build, = by_name["propagator.build_propagator"]
    assert build.parent is None and build.arg == "full"
    solve, = by_name["homogeneous.solve_fundamental"]
    assert solve.parent == build.span_id
    writers = {spans[s.parent].name for s in by_name["runio.write_csv"]}
    assert writers == {"propagator.write_propagator_csv", "coefficients.write_coefficients_csv"}
    assert tracer.calls["runio.write_csv"] == 2

    selfs = self_times(spans)
    children = sum(s.duration for s in spans if s.parent == build.span_id)
    assert selfs[build.span_id] == pytest.approx(build.duration - children)
    metrics = layer_metrics(tracer, len(grid))
    assert metrics["propagator.build_s.full"][0] == pytest.approx(selfs[build.span_id])
    assert metrics["homogeneous.solve_calls"] == (1, "count")


def test_traced_run_accounts_for_every_write_and_solve(tmp_path):
    with Tracer("short") as tracer:
        config = short_run("coherent_T2_all", tmp_path)
    spans = tracer.spans
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.layer != span.layer
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    # self times partition the root span
    assert sum(self_times(spans)) == pytest.approx(roots[0].duration, rel=1e-9)

    metrics = layer_metrics(tracer, 101)
    csvs = sorted(p.name for p in (tmp_path / "out").iterdir() if p.suffix == ".csv")
    assert metrics["runio.files"] == (len(csvs), "count") == (14, "count")
    assert metrics["homogeneous.solve_calls"] == (2, "count")
    assert metrics["oracle.trajectories"] == (3, "count")
    assert metrics["kernels.quad_calls"] == (101, "count")
    assert config["reservoir.temperature"] > 0
    assert set(f"{layer}.self_s" for layer in LAYERS) <= set(metrics)
