"""`qbm run` loads no scipy module unless the state is ``tabulated_chi``.

Each config is parsed and run in a fresh interpreter, which then reports
the scipy modules it has loaded.  The analytic pipeline, the Wigner maps,
the Fock states and the oracle run on numpy alone; only a tabulated chi
loads scipy, for its interpolator.
"""

import json
import subprocess
import sys

import pytest

RUN_AND_LIST = """
import json, sys
from qbm.config import parse_config
from qbm.runner import run
run(parse_config(sys.argv[1]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

TINY = """
reservoir.family = ohmic_exp_cutoff
reservoir.alpha = 0.1
grid.dt = 0.01
grid.t_max = 0.2
run.output_dir = out
"""

CONFIGS = {
    "rwa_squeezed_T05": (
        "reservoir.temperature = 0.5\nrun.modes = rwa\n"
        "state.kind = squeezed\nstate.r = 0.5\nstate.phi = 0.3\n"
    ),
    "fock2_T0_wigner": (
        "reservoir.temperature = 0.0\nrun.modes = full,norenorm,rwa\n"
        "state.kind = fock\nstate.n = 2\n"
        "wigner.enabled = true\nwigner.times = 0, 0.2\nwigner.points = 16\n"
    ),
    "squeezed_oracle": (
        "reservoir.temperature = 0.0\nrun.modes = oracle\n"
        "state.kind = squeezed\nstate.r = 0.5\nstate.phi = 0.3\n"
    ),
}


def scipy_modules_after_run(tmp_path, env, name):
    path = tmp_path / "run.conf"
    path.write_text(TINY + CONFIGS[name])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run_report.txt").exists()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_loads_no_scipy(tmp_path, subprocess_env, name):
    assert scipy_modules_after_run(tmp_path, subprocess_env, name) == []
