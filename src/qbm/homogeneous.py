"""Homogeneous dynamics: the 2x2 evolution matrix R(t).

Under the unitary part -i[Hbar_0(t), .] of the master equation the first
moments u = (<X>, <P>) obey

    u' = B(t) u,   B = [[gamma, 1], [r - 1, -gamma]]

(frequencies in units of the oscillator frequency, w0 = 1), and R(t) is the
fundamental matrix of that system: R' = B R, R(0) = I.  tr B = 0, so
det R(t) = 1 (Liouville).  In the paper's notation R = [[c, s], [-s_r, c_r]].

B's eigenvalues are +-i sqrt(det B), det B = 1 - r - gamma^2: the solver
supports the weak, under-damped regime det B > 0.  B is the free rotation
Omega = [[0, 1], [-1, 0]] plus [[gamma, 0], [r, -gamma]], and the integrator
is the Fock-space oracle's: Lawson's integrating-factor RK4 (SIAM J. Numer.
Anal. 4, 372 (1967)), which applies the rotation by h/2 exactly and RK4 to
the rest.  A step of h = 2 dt goes from node i to node i + 2 and reads node
i + 1 as its midpoint; RK4's continuous extension gives R at node i + 1.  An
odd interval count ends with one step of dt whose midpoint is the last row of
``CoefficientTable.half_steps``.  On a linear system each step is a pair of
matrices, built for the whole grid at once: R_{i+1} = M_mid R_i and
R_{i+2} = M R_i.
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

    def rest(table: CoefficientTable) -> np.ndarray:
        """B minus the free rotation at each row of ``table``."""
        b = np.zeros((len(table.grid), 2, 2))
        b[:, 0, 0] = table.gamma
        b[:, 1, 0] = table.r
        b[:, 1, 1] = -table.gamma
        return b

    b = rest(coeffs)
    last = 2 * ((len(grid) - 1) // 2)  # the last node a step of 2 dt reaches
    starts, ends = slice(0, last, 2), slice(2, last + 1, 2)
    mid, end = _lawson_step(grid[ends] - grid[starts], b[starts], b[1:last:2], b[ends])
    rot = np.empty_like(b)
    rot[0] = np.eye(2)
    for i, (m_mid, m_end) in enumerate(zip(mid, end)):
        np.matmul(m_mid, rot[2 * i], out=rot[2 * i + 1])
        np.matmul(m_end, rot[2 * i], out=rot[2 * i + 2])
    if last < len(grid) - 1:  # an odd interval count: one step of dt ends the grid
        _, tail = _lawson_step(steps[-1:], b[-2:-1], rest(coeffs.half_steps())[-1:], b[-1:])
        np.matmul(tail[0], rot[-2], out=rot[-1])
    return rot


def _lawson_step(h, node, midpoint, end):
    """Lawson's RK4 matrices (to the midpoint, to the end) of the steps h from ``node`` to ``end``.

    Each argument has one entry per step; the matrices are the rest of B at
    the step's start, midpoint and end.  E = exp(Omega h/2) is exact, and
    with k1..k4 the stages on the identity the step is
    E^2 + h/6 (E^2 k1 + 2 E (k2 + k3) + k4) and its midpoint, from RK4's
    continuous extension, E + h (5/24 E k1 + 1/6 (k2 + k3) - 1/24 E^-1 k4).
    """
    hs = h[:, None, None]
    cos, sin = np.cos(0.5 * h), np.sin(0.5 * h)
    turn = np.empty_like(node)
    turn[:, 0, 0] = turn[:, 1, 1] = cos
    turn[:, 0, 1], turn[:, 1, 0] = sin, -sin
    back = turn.transpose(0, 2, 1)  # E^-1 = E^T
    k1 = node
    k2 = midpoint @ turn @ (np.eye(2) + 0.5 * hs * k1)
    k3 = midpoint @ (turn + 0.5 * hs * k2)
    k4 = end @ turn @ (turn + hs * k3)
    inner = k2 + k3
    to_mid = turn + hs * (turn @ (5.0 / 24.0 * k1) + inner / 6.0 - back @ k4 / 24.0)
    to_end = turn @ (turn @ (np.eye(2) + hs / 6.0 * k1) + hs / 3.0 * inner) + hs / 6.0 * k4
    return to_mid, to_end


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

