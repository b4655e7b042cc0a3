import os

import numpy as np
import pytest

import qbm
from qbm import oracle, qcf
from qbm.coefficients import compute_coefficients
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import build_propagator

OHMIC = dict(family="ohmic_exp_cutoff", alpha=0.1, wc=5.0)

STATES = {
    "coherent2": qcf.CoherentState(x0=2.0, p0=0.0),
    "thermal1": qcf.ThermalState(nbar=1.0),
    "fock2": qcf.FockState(2),
    "squeezed05": qcf.SqueezedVacuum(r_sq=0.5, phi=0.3),
}


class Pipeline:
    """Memoized pipeline pieces shared across the suite.

    Benchmark configuration: ohmic exponential cutoff, alpha=0.1, wc=5,
    dt=0.01 to t=30, oracle dimension 30.
    """

    def __init__(self):
        self.grid = 0.01 * np.arange(3001)
        self.ops = oracle.fock_operators(30)
        self._coeffs = {}
        self._bundles = {}
        self._trajs = {}

    def spec(self, temperature=0.0, alpha=0.1):
        return ReservoirSpec(temperature=temperature, **{**OHMIC, "alpha": alpha})

    def coeffs(self, temperature=0.0):
        if temperature not in self._coeffs:
            table = tabulate_kernels(self.spec(temperature), self.grid)
            self._coeffs[temperature] = compute_coefficients(table)
        return self._coeffs[temperature]

    def bundle(self, temperature, mode):
        key = (temperature, mode)
        if key not in self._bundles:
            self._bundles[key] = build_propagator(self.coeffs(temperature), mode)
        return self._bundles[key]

    def state(self, name):
        return STATES[name]

    def oracle_traj(self, temperature, state_name, mode):
        key = (temperature, state_name, mode)
        if key not in self._trajs:
            rho0 = oracle.to_density_matrix(self.state(state_name), 30)
            # the hot-bath thermal run equilibrates near nbar ~ 1.3 and sits
            # right at the default guard; d is pinned at 30, the threshold is
            # the documented override knob
            threshold = 3e-6 if temperature > 0 else 1e-6
            self._trajs[key] = oracle.integrate(
                rho0, self.coeffs(temperature), mode, leakage_threshold=threshold
            )
        return self._trajs[key]


@pytest.fixture(scope="session")
def pipeline():
    return Pipeline()


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a child interpreter that imports this checkout's qbm."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qbm.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
