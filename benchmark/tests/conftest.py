"""Shared set-up of the benchmark self-tests: shortened runs of every workload.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "benchmark"), str(ROOT / "src")]

from workloads import WORKLOADS, write_config  # noqa: E402


def short_run(name: str, base: Path, seed: int = 1) -> dict:
    """Run a workload's config cut to t_max = 1 in this process; returns the config."""
    import qbm.cli

    config = {**WORKLOADS[name].config(seed), "grid.t_max": 1.0,
              "run.output_dir": str(base / "out")}
    if "wigner.times" in config:
        config["wigner.times"] = "0,0.5,1"
    path = base / "run.cfg"
    write_config(str(path), config)
    with contextlib.redirect_stdout(io.StringIO()):
        assert qbm.cli.main(["run", str(path)]) == 0
    return config


@pytest.fixture(scope="session")
def short_outputs(tmp_path_factory):
    """{workload: (config, output directory)} of one shortened run each."""
    runs = {}
    for name in WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        runs[name] = (short_run(name, base), base / "out")
    return runs
