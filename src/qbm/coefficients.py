"""Time-dependent master-equation coefficients.

Cumulative cosine/sine transforms of the reservoir kernels against the
oscillator frequency, which is the unit of frequency (w0 = 1):

    delta_bar(t) = Int_0^t kappa(tau) cos(tau) dtau   (diffusion)
    pi(t)        = Int_0^t kappa(tau) sin(tau) dtau   (anomalous diffusion)
    r(t)         = 2 Int_0^t mu(tau) cos(tau) dtau    (frequency shift)
    gamma(t)     = Int_0^t mu(tau) sin(tau) dtau      (damping rate)
    big_gamma(t) = 2 Int_0^t gamma(t1) dt1               (damping exponent)

Composite trapezoid on the stored grid keeps every t = 0 entry exactly zero
and matches the piecewise-linear coefficient interpolation used by the time
integrators downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbm.errors import ValidationError
from qbm.kernels import KernelTable
from qbm.runio import write_csv

# refuse grids coarser than 0.5 radians per step: R(t)'s RK4 needs w dt <= 0.5, and w(0) = 1
MAX_STEP_RADIANS = 0.5


@dataclass(frozen=True)
class CoefficientTable:
    grid: np.ndarray
    delta_bar: np.ndarray
    pi: np.ndarray
    r: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray

    def __post_init__(self):
        n = len(self.grid)
        for name in ("delta_bar", "pi", "r", "gamma", "big_gamma"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"coefficient column {name} does not match grid length")


def check_grid(grid: np.ndarray):
    """What a coefficient table needs beyond a valid ``KernelTable`` grid."""
    if grid.size < 2:
        raise ValidationError("coefficient grid needs at least two nodes")
    hmax = np.diff(grid).max()
    if hmax > MAX_STEP_RADIANS:
        raise ValidationError(
            f"grid too coarse: use grid.dt <= {MAX_STEP_RADIANS:.3g}, not {hmax:.3g}"
        )


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of ``y`` over the nodes ``x`` along axis 0, starting at 0.

    The arithmetic of scipy.integrate.cumulative_trapezoid(y, x, axis=0,
    initial=0), operation for operation, so its results are bit-identical.
    """
    y = np.asarray(y)
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate((np.zeros((1,) + steps.shape[1:], dtype=steps.dtype), steps))


def compute_coefficients(kernels: KernelTable) -> CoefficientTable:
    """Build the coefficient table from sampled kernels by cumulative trapezoid."""
    grid = kernels.grid
    check_grid(grid)
    c = np.cos(grid)
    s = np.sin(grid)

    def cum(values):
        return cumulative_trapezoid(values, grid)

    gamma = cum(kernels.mu * s)
    return CoefficientTable(
        grid=grid,
        delta_bar=cum(kernels.kappa * c),
        pi=cum(kernels.kappa * s),
        r=2.0 * cum(kernels.mu * c),
        gamma=gamma,
        big_gamma=2.0 * cum(gamma),
    )


COEFFICIENTS_CSV_COLUMNS = "t,delta_bar,pi,r,gamma,big_gamma"


def write_coefficients_csv(table: CoefficientTable, path) -> None:
    columns = np.column_stack(
        [table.grid, table.delta_bar, table.pi, table.r, table.gamma, table.big_gamma]
    )
    write_csv(path, COEFFICIENTS_CSV_COLUMNS, columns)
