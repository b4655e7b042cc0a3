"""Gaussian part of the evolution: diffusion matrices and the mode bundles.

The evolved characteristic function is chi_t(z) = exp(-z^T Wbar(t) z) *
chi_0(exp(-Gamma/2) R^{-1}(t) z), so everything a consumer needs per time
node is the damping exponent Gamma, the 2x2 matrix R and the symmetric 2x2
diffusion matrix Wbar.  Three bundle modes:

full
    Exact R from the fundamental solutions;
    Wbar = e^{-Gamma} (R^{-1})^T W R^{-1} with
    W(t) = Int_0^t e^{Gamma(t1)} R^T(t1) M(t1) R(t1) dt1 and
    M = [[delta_bar, -pi/2], [-pi/2, 0]].
norenorm
    The full congruence, computed by the same code, with R replaced by the
    pure rotation R_0(t) by the angle t.  Since R_0(t1) R_0^{-1}(t) =
    R_0(t1 - t), it expands to
    Wbar = e^{-Gamma} Int_0^t e^{Gamma(t1)} [ delta_bar/2 * I
           + delta_bar/2 * C2(t-t1) - pi/2 * S2(t-t1) ] dt1
    with the traceless oscillation matrices
    C2(t) = [[cos 2t, -sin 2t], [-sin 2t, -cos 2t]],
    S2(t) = [[sin 2t,  cos 2t], [ cos 2t, -sin 2t]],
    which keep the counter-rotating oscillations at twice the oscillator
    frequency (w0 = 1).
rwa
    Counter-rotating terms averaged away: Wbar = (delta_gamma/2) I with
    delta_gamma(t) = e^{-Gamma} Int_0^t e^{Gamma(t1)} delta_bar(t1) dt1.

The scalars (delta_gamma, lambda, theta) are the I / sigma_z / sigma_x
components of Wbar; the norenorm bracket is traceless apart from the
identity term, so tr Wbar = delta_gamma there and the mean energy cannot see
the counter-rotating terms.

All cumulative integrals use the same trapezoid rule as the coefficient
table, so the norenorm trace identity holds to rounding, not just to
quadrature order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbm.coefficients import CoefficientTable, compute_coefficients, cumulative_trapezoid
from qbm.errors import ValidationError
from qbm.homogeneous import approx_rotation, invert_rotation, solve_fundamental
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.runio import write_csv

MODES = ("full", "norenorm", "rwa")


@dataclass(frozen=True)
class PropagatorBundle:
    """Everything needed to evaluate chi_t at every grid node, one mode."""

    grid: np.ndarray
    mode: str
    big_gamma: np.ndarray  # (n,)
    rotations: np.ndarray  # (n, 2, 2)
    rotations_inv: np.ndarray  # (n, 2, 2)
    w_bar: np.ndarray  # (n, 2, 2), symmetric
    delta_gamma: np.ndarray  # (n,)
    lam: np.ndarray  # (n,) sigma_z component of w_bar
    theta: np.ndarray  # (n,) sigma_x component of w_bar

    def __len__(self):
        return len(self.grid)


def m_matrices(coeffs: CoefficientTable) -> np.ndarray:
    """Diffusion quadratic-form matrices M = [[delta_bar, -pi/2], [-pi/2, 0]], one per node."""
    m = np.zeros((len(coeffs.grid), 2, 2))
    m[:, 0, 0] = coeffs.delta_bar
    m[:, 0, 1] = -0.5 * coeffs.pi
    m[:, 1, 0] = -0.5 * coeffs.pi
    return m


def _symmetrize(mats: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    # exact symmetry: mirror one triangle onto the other
    sym[..., 1, 0] = sym[..., 0, 1]
    return sym


def w_matrix(coeffs: CoefficientTable, rotations: np.ndarray) -> np.ndarray:
    """Cumulative integral of e^{Gamma} R^T M R on the shared grid."""
    if rotations.shape[0] != len(coeffs.grid):
        raise ValidationError("rotations and coefficient table must share the grid")
    m = m_matrices(coeffs)
    integrand = np.einsum("nji,njk,nkl->nil", rotations, m, rotations)
    integrand *= np.exp(coeffs.big_gamma)[:, None, None]
    return _symmetrize(cumulative_trapezoid(integrand, coeffs.grid))


def w_bar_matrix(w: np.ndarray, rotations_inv: np.ndarray, big_gamma: np.ndarray) -> np.ndarray:
    """Congruence transform e^{-Gamma} (R^{-1})^T W R^{-1}."""
    out = np.einsum("nji,njk,nkl->nil", rotations_inv, w, rotations_inv)
    out *= np.exp(-big_gamma)[:, None, None]
    return _symmetrize(out)


def delta_gamma_series(coeffs: CoefficientTable) -> np.ndarray:
    acc = cumulative_trapezoid(np.exp(coeffs.big_gamma) * coeffs.delta_bar, coeffs.grid)
    return np.exp(-coeffs.big_gamma) * acc


def lambda_theta_series(w_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, theta): the sigma_z and sigma_x components of each symmetric node."""
    return w_bar[:, 0, 0] - w_bar[:, 1, 1], 2.0 * w_bar[:, 0, 1]


def build_propagator(
    spec: ReservoirSpec,
    grid,
    mode: str = "full",
    *,
    coeffs: CoefficientTable | None = None,
) -> PropagatorBundle:
    """Assemble the per-mode bundle from a reservoir spec and time grid.

    Passing a precomputed coefficient table skips the kernel tabulation,
    which the CLI uses to share one table across modes.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if coeffs is None:
        coeffs = compute_coefficients(tabulate_kernels(spec, np.asarray(grid, dtype=float)))
    grid = coeffs.grid

    if mode == "full":
        rot = solve_fundamental(coeffs)
    else:
        rot = approx_rotation(grid)
    rot_inv = invert_rotation(rot)
    if mode == "rwa":
        # exactly isotropic: R^T R is I only to rounding
        half_dg = 0.5 * delta_gamma_series(coeffs)
        w_bar = np.zeros((len(grid), 2, 2))
        w_bar[:, 0, 0] = half_dg
        w_bar[:, 1, 1] = half_dg
    else:
        w_bar = w_bar_matrix(w_matrix(coeffs, rot), rot_inv, coeffs.big_gamma)

    dg = w_bar[:, 0, 0] + w_bar[:, 1, 1]
    lam, theta = lambda_theta_series(w_bar)
    return PropagatorBundle(
        grid=grid,
        mode=mode,
        big_gamma=coeffs.big_gamma,
        rotations=rot,
        rotations_inv=rot_inv,
        w_bar=w_bar,
        delta_gamma=dg,
        lam=lam,
        theta=theta,
    )


PROPAGATOR_CSV_COLUMNS = "t,big_gamma,R11,R12,R21,R22,W11,W12,W22,delta_gamma,lambda,theta"


def write_propagator_csv(bundle: PropagatorBundle, path) -> None:
    r = bundle.rotations
    w = bundle.w_bar
    columns = np.column_stack(
        [
            bundle.grid,
            bundle.big_gamma,
            r[:, 0, 0],
            r[:, 0, 1],
            r[:, 1, 0],
            r[:, 1, 1],
            w[:, 0, 0],
            w[:, 0, 1],
            w[:, 1, 1],
            bundle.delta_gamma,
            bundle.lam,
            bundle.theta,
        ]
    )
    write_csv(path, PROPAGATOR_CSV_COLUMNS, columns)
