"""Damped quantum harmonic oscillator in a generic weak-coupling environment.

The package evolves the oscillator's reduced density matrix through its
quantum characteristic function chi_t(z).  The pipeline is

    reservoir kernels -> master-equation coefficients -> homogeneous 2x2
    evolution -> Gaussian diffusion matrix -> evolved chi_t -> observables

and every analytic result can be cross-checked against a brute-force
truncated-Fock-space integration of the same master equation (`qbm.oracle`).

Units: hbar = k_B = 1, frequencies in units of the oscillator frequency
omega0, time in 1/omega0.
"""

__version__ = "0.1.0"

from qbm.kernels import ReservoirSpec, KernelTable, kappa, mu, tabulate_kernels
from qbm.coefficients import CoefficientTable, compute_coefficients
from qbm.homogeneous import solve_fundamental
from qbm.propagator import PropagatorBundle, build_propagator
from qbm.qcf import (
    CoherentState,
    ThermalState,
    SqueezedVacuum,
    FockState,
    TabulatedChi,
    evolve_chi,
    observable_series,
)

__all__ = [
    "__version__",
    "ReservoirSpec",
    "KernelTable",
    "kappa",
    "mu",
    "tabulate_kernels",
    "CoefficientTable",
    "compute_coefficients",
    "solve_fundamental",
    "PropagatorBundle",
    "build_propagator",
    "CoherentState",
    "ThermalState",
    "SqueezedVacuum",
    "FockState",
    "TabulatedChi",
    "evolve_chi",
    "observable_series",
]
