"""No `qbm run` loads a scipy module.

Each config is parsed and run in a fresh interpreter, which then reports
the scipy modules it has loaded.  The analytic pipeline, both reservoir
families, every state kind (a tabulated chi included), the Wigner maps and
the oracle run on numpy alone.  scipy serves only the quadrature
references the tests compare against, through ``kernels.quad``.  Nor does
a run load a process-pool module: the oracle forks one child per mode after
the first with ``os.fork`` alone, so the import cost of a run stays that of
numpy.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbm
from qbm.kernels import ReservoirSpec, tabulate_kernels

RUN_AND_LIST = """
import json, sys
import qbm.cli
from qbm.config import parse_config
from qbm.runner import run
run(parse_config(sys.argv[1]))
packages = sys.argv[2].split(",")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in packages)))
"""

OHMIC = "reservoir.family = ohmic_exp_cutoff\nreservoir.alpha = 0.1\n"

TINY = """
grid.dt = 0.01
grid.t_max = 0.2
run.output_dir = out
"""

CONFIGS = {
    "rwa_squeezed_T05": OHMIC + (
        "reservoir.temperature = 0.5\nrun.modes = rwa\n"
        "state.kind = squeezed\nstate.r = 0.5\nstate.phi = 0.3\n"
    ),
    "fock2_T0_wigner": OHMIC + (
        "reservoir.temperature = 0.0\nrun.modes = full,norenorm,rwa\n"
        "state.kind = fock\nstate.n = 2\n"
        "wigner.enabled = true\nwigner.times = 0, 0.2\nwigner.points = 16\n"
    ),
    "squeezed_oracle": OHMIC + (
        "reservoir.temperature = 0.0\nrun.modes = oracle\n"
        "state.kind = squeezed\nstate.r = 0.5\nstate.phi = 0.3\n"
    ),
    "tabulated_chi_wigner": OHMIC + (
        "run.modes = full,rwa\nstate.kind = tabulated_chi\nstate.chi_csv = chi.csv\n"
        "wigner.enabled = true\nwigner.times = 0, 0.2\nwigner.points = 16\n"
    ),
    "tabulated_reservoir": (
        "reservoir.family = tabulated\nreservoir.kernel_csv = kernel.csv\n"
        "run.modes = full,norenorm,rwa,oracle\nstate.kind = coherent\nstate.x0 = 1.0\n"
    ),
}


def write_tables(tmp_path):
    """chi.csv: the vacuum chi, decayed at its boundary; kernel.csv: ohmic kernels."""
    nodes = np.linspace(-12.0, 12.0, 25)
    vacuum = np.exp(-(nodes[:, None] ** 2 + nodes[None, :] ** 2) / 4.0)
    rows = [f"{x:.17g},{p:.17g},{vacuum[i, j]:.17g},0" for i, x in enumerate(nodes)
            for j, p in enumerate(nodes)]
    (tmp_path / "chi.csv").write_text("x,p,re_chi,im_chi\n" + "\n".join(rows) + "\n")
    grid = 0.01 * np.arange(21)
    table = tabulate_kernels(ReservoirSpec("ohmic_exp_cutoff", alpha=0.1), grid)
    rows = [f"{t:.17g},{k:.17g},{m:.17g}" for t, k, m in zip(grid, table.kappa, table.mu)]
    (tmp_path / "kernel.csv").write_text("tau,kappa,mu\n" + "\n".join(rows) + "\n")


def modules_after_run(tmp_path, env, name, packages=("scipy",)):
    """The modules of ``packages`` loaded by a fresh interpreter that runs config ``name``."""
    write_tables(tmp_path)
    path = tmp_path / "run.conf"
    path.write_text(CONFIGS[name] + TINY)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, str(path), ",".join(packages)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run_report.txt").exists()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_loads_no_scipy(tmp_path, subprocess_env, name):
    assert modules_after_run(tmp_path, subprocess_env, name) == []


def test_oracle_runs_load_no_process_pool(tmp_path, subprocess_env):
    # one oracle mode, stepped in the run's process, and three, two of them
    # in forked children where more than one CPU is usable
    pools = ("multiprocessing", "concurrent")
    for name in ("squeezed_oracle", "tabulated_reservoir"):
        (tmp_path / name).mkdir()
        assert modules_after_run(tmp_path / name, subprocess_env, name, pools) == [], name


def scipy_import_sites(node, scope):
    """The scopes (``module.function``) of every scipy import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from scipy_import_sites(child, f"{scope}.{child.name}" if named else scope)


def test_scipy_is_imported_only_inside_kernels_quad():
    sites = []
    for path in sorted(Path(qbm.__file__).parent.glob("*.py")):
        sites += scipy_import_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == ["kernels.quad"]
