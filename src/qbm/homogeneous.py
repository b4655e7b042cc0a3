"""Homogeneous dynamics: the 2x2 evolution matrix R(t).

The unitary part of the evolution moves phase-space arguments by a real
2x2 matrix R(t) built from two independent solutions of

    y'' + [1 - r(t) - gamma(t)^2 - gamma'(t)] y = 0

(frequencies in units of the oscillator frequency, w0 = 1) with c(0) = 1,
c'(0) = 0 and s(0) = 0, s'(0) = 1.  The equation has no first-derivative
term, so the Wronskian c s' - s c' stays pinned at 1 (Abel), and it is
det R(t):

    R(t) = [[c, s], [-s_r, c_r]],   c_r = s' - gamma s,
                                    s_r = gamma c - c'.

gamma(t) is stored on the grid as a trapezoid sum (``qbm.coefficients``), so
gamma'(t) is taken by second-order centered differences on that grid
(one-sided at the ends).  The integrator is classical RK4 with the effective
frequency linearly interpolated at half-steps, matching how the Fock-space
oracle consumes the same table.
"""

from __future__ import annotations

import logging

import numpy as np

from qbm.coefficients import CoefficientTable
from qbm.errors import NumericalError, StabilityError
from qbm.runio import write_csv

log = logging.getLogger(__name__)

MAX_FREQUENCY_STEP = 0.5  # refuse when effective frequency * dt exceeds this
DET_DRIFT_WARN = 1e-6


def gamma_derivative(coeffs: CoefficientTable) -> np.ndarray:
    """Centered second-order differences of gamma, one-sided at the ends."""
    return np.gradient(coeffs.gamma, coeffs.grid, edge_order=2)


def effective_frequency_sq(coeffs: CoefficientTable) -> np.ndarray:
    return 1.0 - coeffs.r - coeffs.gamma**2 - gamma_derivative(coeffs)


def solve_fundamental(coeffs: CoefficientTable) -> np.ndarray:
    """Per-node evolution matrices R(t), shape (n, 2, 2), det R = 1.

    Both Cauchy problems are integrated with RK4 on the coefficient grid.
    """
    grid = coeffs.grid
    w2 = effective_frequency_sq(coeffs)
    if np.any(w2 < 0):
        t_bad = grid[np.argmax(w2 < 0)]
        raise NumericalError(
            f"effective squared frequency turns negative at t={t_bad:g}: "
            "the coupling is outside the weak, under-damped regime this solver supports; "
            "lower reservoir.alpha, or the kernels in reservoir.kernel_csv for the "
            "tabulated family"
        )
    steps = np.diff(grid)
    if np.sqrt(w2.max()) * steps.max() > MAX_FREQUENCY_STEP:
        raise StabilityError(
            f"step {steps.max():g} too large for effective frequency "
            f"{np.sqrt(w2.max()):g}; need grid.dt <= "
            f"{MAX_FREQUENCY_STEP / np.sqrt(w2.max()):g}"
        )

    w2_mid = 0.5 * (w2[:-1] + w2[1:])
    n = len(grid)
    # columns: (c, s); rows of y/v: value and derivative
    y = np.empty((n, 2))
    v = np.empty((n, 2))
    y[0] = (1.0, 0.0)
    v[0] = (0.0, 1.0)
    for i in range(n - 1):
        h = steps[i]
        w2_0, w2_m, w2_1 = w2[i], w2_mid[i], w2[i + 1]
        y0, v0 = y[i], v[i]
        k1y, k1v = v0, -w2_0 * y0
        k2y, k2v = v0 + 0.5 * h * k1v, -w2_m * (y0 + 0.5 * h * k1y)
        k3y, k3v = v0 + 0.5 * h * k2v, -w2_m * (y0 + 0.5 * h * k2y)
        k4y, k4v = v0 + h * k3v, -w2_1 * (y0 + h * k3y)
        y[i + 1] = y0 + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        v[i + 1] = v0 + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

    c_r = v[:, 1] - coeffs.gamma * y[:, 1]
    s_r = coeffs.gamma * y[:, 0] - v[:, 0]
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = y[:, 0]
    rot[:, 0, 1] = y[:, 1]
    rot[:, 1, 0] = -s_r
    rot[:, 1, 1] = c_r
    return rot


def approx_rotation(grid) -> np.ndarray:
    """Pure phase-space rotation by t (weak-coupling form of R)."""
    grid = np.asarray(grid, dtype=float)
    c = np.cos(grid)
    s = np.sin(grid)
    rot = np.empty((len(grid), 2, 2))
    rot[:, 0, 0] = c
    rot[:, 0, 1] = s
    rot[:, 1, 0] = -s
    rot[:, 1, 1] = c
    return rot


def rotation_det(rotations: np.ndarray) -> np.ndarray:
    return rotations[:, 0, 0] * rotations[:, 1, 1] - rotations[:, 0, 1] * rotations[:, 1, 0]


def invert_rotation(rotations: np.ndarray) -> np.ndarray:
    """Exact unit-determinant inverse via the adjugate.

    If the numerical determinant drifts past the tolerance the adjugate is
    renormalized and a warning logged: drift signals grid under-resolution,
    not a property of the model.
    """
    det = rotation_det(rotations)
    drift = np.max(np.abs(det - 1.0))
    inv = np.empty_like(rotations)
    inv[:, 0, 0] = rotations[:, 1, 1]
    inv[:, 0, 1] = -rotations[:, 0, 1]
    inv[:, 1, 0] = -rotations[:, 1, 0]
    inv[:, 1, 1] = rotations[:, 0, 0]
    if drift > DET_DRIFT_WARN:
        log.warning(
            "det R drifted to %.3e from 1; renormalizing (grid likely under-resolved)", drift
        )
        inv /= det[:, None, None]
    return inv


ROTATION_CSV_COLUMNS = "t,c,s,sr,cr,det"


def write_rotation_csv(grid: np.ndarray, rot: np.ndarray, path) -> None:
    """Write the (n, 2, 2) matrices of :func:`solve_fundamental` on their grid."""
    columns = np.column_stack(
        [grid, rot[:, 0, 0], rot[:, 0, 1], -rot[:, 1, 0], rot[:, 1, 1], rotation_det(rot)]
    )
    write_csv(path, ROTATION_CSV_COLUMNS, columns)
