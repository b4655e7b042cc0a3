"""Homogeneous dynamics: the 2x2 evolution matrix R(t).

Under the unitary part -i[Hbar_0(t), .] of the master equation the first
moments u = (<X>, <P>) obey

    u' = B(t) u,   B = [[gamma, 1], [r - 1, -gamma]]

(frequencies in units of the oscillator frequency, w0 = 1), and R(t) is the
fundamental matrix of that system: R' = B R, R(0) = I.  tr B = 0, so
det R(t) = 1 (Liouville).  In the paper's notation R = [[c, s], [-s_r, c_r]].

B's eigenvalues are +-i sqrt(det B), det B = 1 - r - gamma^2: the solver
supports the weak, under-damped regime det B > 0.  The integrator is
classical RK4 with B linearly interpolated at half-steps, the interpolation
the Fock-space oracle uses for the same table.  On a linear system each RK4
step is a matrix M_i, built for the whole grid at once; R_{i+1} = M_i R_i.
"""

from __future__ import annotations

import logging

import numpy as np

from qbm.coefficients import MAX_STEP_RADIANS, CoefficientTable
from qbm.errors import NumericalError, StabilityError

log = logging.getLogger(__name__)

DET_DRIFT_WARN = 1e-6


def solve_fundamental(coeffs: CoefficientTable) -> np.ndarray:
    """Per-node evolution matrices R(t), shape (n, 2, 2), det R = 1."""
    grid = coeffs.grid
    w2 = 1.0 - coeffs.r - coeffs.gamma**2  # det B, the effective squared frequency
    if np.any(w2 < 0):
        t_bad = grid[np.argmax(w2 < 0)]
        raise NumericalError(
            f"effective squared frequency turns negative at t={t_bad:g}: "
            "the coupling is outside the weak, under-damped regime this solver supports; "
            "lower reservoir.alpha, or the kernels in reservoir.kernel_csv for the "
            "tabulated family"
        )
    steps = np.diff(grid)
    frequency, step = float(np.sqrt(w2.max())), float(steps.max())
    if frequency * step > MAX_STEP_RADIANS:
        # repr: the frequency can pass 1 in its last digits alone
        raise StabilityError(
            f"step {step!r} too large for effective frequency {frequency!r}; "
            f"need grid.dt <= {MAX_STEP_RADIANS / frequency!r}"
        )

    b = np.empty((len(grid), 2, 2))
    b[:, 0, 0] = coeffs.gamma
    b[:, 0, 1] = 1.0
    b[:, 1, 0] = coeffs.r - 1.0
    b[:, 1, 1] = -coeffs.gamma
    b_mid = 0.5 * (b[:-1] + b[1:])
    h = steps[:, None, None]
    eye = np.eye(2)
    k1 = b[:-1]
    k2 = b_mid @ (eye + 0.5 * h * k1)
    k3 = b_mid @ (eye + 0.5 * h * k2)
    k4 = b[1:] @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    rot = np.empty_like(b)
    rot[0] = eye
    for i, m in enumerate(step):
        np.matmul(m, rot[i], out=rot[i + 1])
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
            "det R drifted to %.3e from 1; renormalizing (grid likely under-resolved: lower grid.dt)",
            drift,
        )
        inv /= det[:, None, None]
    return inv

