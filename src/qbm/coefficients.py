"""Time-dependent master-equation coefficients.

Cumulative cosine/sine transforms of the reservoir kernels against the
oscillator frequency:

    delta_bar(t) = Int_0^t kappa(tau) cos(w0 tau) dtau   (diffusion)
    pi(t)        = Int_0^t kappa(tau) sin(w0 tau) dtau   (anomalous diffusion)
    r(t)         = 2 Int_0^t mu(tau) cos(w0 tau) dtau    (frequency shift)
    gamma(t)     = Int_0^t mu(tau) sin(w0 tau) dtau      (damping rate)
    big_gamma(t) = 2 Int_0^t gamma(t1) dt1               (damping exponent)

Composite trapezoid on the stored grid keeps every t = 0 entry exactly zero
and matches the piecewise-linear coefficient interpolation used by the time
integrators downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad

from qbm.errors import ValidationError
from qbm.kernels import TABULATED, KernelTable, ReservoirSpec, mu, spectral_density

# refuse grids coarser than ~pi/5 radians of omega0 per step
MAX_STEP_RADIANS = np.pi / 5.0


@dataclass(frozen=True)
class CoefficientTable:
    grid: np.ndarray
    delta_bar: np.ndarray
    pi: np.ndarray
    r: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray
    omega0: float = 1.0

    def __post_init__(self):
        n = len(self.grid)
        for name in ("delta_bar", "pi", "r", "gamma", "big_gamma"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"coefficient column {name} does not match grid length")


def _check_grid(grid: np.ndarray, omega0: float):
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("coefficient grid needs at least two nodes")
    if grid[0] != 0.0:
        raise ValidationError("coefficient grid must start at t = 0")
    steps = np.diff(grid)
    if np.any(steps <= 0):
        raise ValidationError("coefficient grid must be strictly increasing")
    hmax = steps.max()
    if omega0 * hmax > MAX_STEP_RADIANS:
        raise ValidationError(
            f"grid too coarse: omega0*dt = {omega0 * hmax:.3g} exceeds {MAX_STEP_RADIANS:.3g}; "
            f"use dt <= {MAX_STEP_RADIANS / omega0:.3g}"
        )


def compute_coefficients(kernels: KernelTable, omega0: float = 1.0) -> CoefficientTable:
    """Build the coefficient table from sampled kernels by cumulative trapezoid."""
    grid = kernels.grid
    _check_grid(grid, omega0)
    c = np.cos(omega0 * grid)
    s = np.sin(omega0 * grid)

    def cum(values):
        return cumulative_trapezoid(values, grid, initial=0.0)

    gamma = cum(kernels.mu * s)
    return CoefficientTable(
        grid=grid,
        delta_bar=cum(kernels.kappa * c),
        pi=cum(kernels.kappa * s),
        r=2.0 * cum(kernels.mu * c),
        gamma=gamma,
        big_gamma=2.0 * cum(gamma),
        omega0=omega0,
    )


def markovian_asymptotes(spec: ReservoirSpec, omega0: float = 1.0) -> dict:
    """Long-time limits of the coefficients (sanity checks and reporting).

    gamma_inf and delta_bar_inf are the resonance integrals
    alpha^2 (pi/2) J(omega0) [coth(omega0/2T)]; r_inf and pi_inf are the
    slowly convergent principal-value-like tau-integrals, computed to
    t = 200 with the oscillation tail averaged out (integrals at horizons
    half a period apart are averaged, one Richardson-style step).
    """
    if spec.family == TABULATED:
        raise ValidationError("markovian asymptotes are undefined for tabulated kernels")
    if spec.alpha == 0.0:
        return {"delta_bar_inf": 0.0, "pi_inf": 0.0, "r_inf": 0.0, "gamma_inf": 0.0}

    j0 = float(spectral_density(spec, omega0))
    gamma_inf = spec.alpha**2 * (np.pi / 2.0) * j0
    if spec.temperature > 0.0:
        delta_bar_inf = gamma_inf / np.tanh(omega0 / (2.0 * spec.temperature))
    else:
        delta_bar_inf = gamma_inf

    horizon = 200.0
    half_period = np.pi / omega0

    def tail_averaged(f) -> float:
        vals = []
        upper = horizon
        for _ in range(2):
            v, _err = quad(f, 0.0, upper, limit=4000, epsabs=1e-12, epsrel=1e-10)
            vals.append(v)
            upper += half_period
        return 0.5 * (vals[0] + vals[1])

    from qbm.kernels import kappa as _kappa

    r_inf = 2.0 * tail_averaged(lambda t: mu(spec, t) * np.cos(omega0 * t))
    # the sine weight kills the tau -> 0 endpoint, where Lorentz-Drude kappa
    # has no value; the quadrature nodes never touch it but guard anyway
    pi_inf = tail_averaged(lambda t: 0.0 if t == 0.0 else _kappa(spec, t) * np.sin(omega0 * t))
    return {
        "delta_bar_inf": delta_bar_inf,
        "pi_inf": pi_inf,
        "r_inf": r_inf,
        "gamma_inf": gamma_inf,
    }


COEFFICIENTS_CSV_COLUMNS = "t,delta_bar,pi,r,gamma,big_gamma"


def write_coefficients_csv(table: CoefficientTable, path) -> None:
    from qbm.runio import write_csv

    columns = np.column_stack(
        [table.grid, table.delta_bar, table.pi, table.r, table.gamma, table.big_gamma]
    )
    write_csv(path, COEFFICIENTS_CSV_COLUMNS, columns)
