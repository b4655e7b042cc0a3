import numpy as np
import pytest

from qbm.coefficients import compute_coefficients
from qbm.errors import ValidationError
from qbm.homogeneous import approx_rotation, invert_rotation, solve_fundamental
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import (
    PropagatorBundle,
    build_propagator,
    delta_gamma_series,
    m_matrices,
    w_bar_matrix,
    w_matrix,
)

OHMIC = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)


@pytest.fixture(scope="module")
def coeffs():
    grid = 0.01 * np.arange(1001)
    return compute_coefficients(tabulate_kernels(OHMIC, grid))


@pytest.fixture(scope="module")
def rotations(coeffs):
    return solve_fundamental(coeffs)


def test_m_matrices_assembly(coeffs):
    m = m_matrices(coeffs)
    assert np.array_equal(m[0], np.zeros((2, 2)))
    assert m[500, 0, 0] == coeffs.delta_bar[500]
    assert m[500, 0, 1] == m[500, 1, 0] == -0.5 * coeffs.pi[500]
    assert np.all(m[:, 1, 1] == 0.0)


def test_m_matrices_direct_values():
    from qbm.coefficients import CoefficientTable

    table = CoefficientTable(
        grid=np.array([0.0, 1.0]),
        delta_bar=np.array([0.0, 0.3]),
        pi=np.array([0.0, 0.1]),
        r=np.zeros(2),
        gamma=np.zeros(2),
        big_gamma=np.zeros(2),
    )
    assert np.allclose(m_matrices(table)[1], [[0.3, -0.05], [-0.05, 0.0]])


def test_w_zero_for_zero_coupling():
    grid = 0.01 * np.arange(301)
    free = compute_coefficients(
        tabulate_kernels(ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0), grid)
    )
    rot = solve_fundamental(free)
    w = w_matrix(free, rot)
    assert np.all(w == 0.0)
    wb = w_bar_matrix(w, invert_rotation(rot), free.big_gamma)
    assert np.all(wb == 0.0)


def test_w_matrix_starts_at_zero_and_is_symmetric(coeffs, rotations):
    w = w_matrix(coeffs, rotations)
    assert np.all(w[0] == 0.0)
    assert np.array_equal(w[:, 0, 1], w[:, 1, 0])


def test_w_bar_eigenvalues_nonnegative_on_ohmic_run(coeffs, rotations):
    # observed property of the transient, monitored rather than assumed
    wb = w_bar_matrix(w_matrix(coeffs, rotations), invert_rotation(rotations), coeffs.big_gamma)
    eigs = np.linalg.eigvalsh(wb)
    assert eigs.min() > -1e-10


def test_w_matrix_step_halving_convergence():
    vals = {}
    for dt in (0.04, 0.02, 0.01):
        grid = dt * np.arange(int(round(10.0 / dt)) + 1)
        c = compute_coefficients(tabulate_kernels(OHMIC, grid))
        rot = solve_fundamental(c)
        vals[dt] = w_matrix(c, rot)[-1]
    num = np.max(np.abs(vals[0.04] - vals[0.02]))
    den = np.max(np.abs(vals[0.02] - vals[0.01]))
    assert num / den == pytest.approx(4.0, rel=0.3)


@pytest.mark.parametrize("temperature", [0.0, 2.0])
def test_no_renorm_matches_direct_convolution(temperature):
    # brute-force the convolution integral at a few nodes with the same
    # trapezoid rule; the congruence under the pure rotation must agree
    # to rounding
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=temperature)
    grid = 0.01 * np.arange(3001)
    coeffs = compute_coefficients(tabulate_kernels(spec, grid))
    w_fast = build_propagator(spec, grid, "norenorm", coeffs=coeffs).w_bar
    eg = np.exp(coeffs.big_gamma)
    for idx in (1, 250, 700, 1000, 3000):
        t = grid[idx]
        tau = t - grid[: idx + 1]
        c2, s2 = np.cos(2 * tau), np.sin(2 * tau)
        bracket = np.zeros((idx + 1, 2, 2))
        bracket[:, 0, 0] = 0.5 * coeffs.delta_bar[: idx + 1] * (1 + c2) - 0.5 * coeffs.pi[: idx + 1] * s2
        bracket[:, 1, 1] = 0.5 * coeffs.delta_bar[: idx + 1] * (1 - c2) + 0.5 * coeffs.pi[: idx + 1] * s2
        off = -0.5 * coeffs.delta_bar[: idx + 1] * s2 - 0.5 * coeffs.pi[: idx + 1] * c2
        bracket[:, 0, 1] = off
        bracket[:, 1, 0] = off
        integrand = eg[: idx + 1, None, None] * bracket
        direct = np.exp(-coeffs.big_gamma[idx]) * np.trapezoid(integrand, grid[: idx + 1], axis=0)
        assert np.max(np.abs(direct - w_fast[idx])) < 1e-14


def test_no_renorm_trace_equals_delta_gamma(coeffs):
    wb = build_propagator(OHMIC, coeffs.grid, "norenorm", coeffs=coeffs).w_bar
    dg = delta_gamma_series(coeffs)
    trace = wb[:, 0, 0] + wb[:, 1, 1]
    assert np.max(np.abs(trace - dg)) <= 2e-3 * max(1.0, np.max(np.abs(dg)))
    # with the shared trapezoid rule the identity is exact to rounding
    assert np.max(np.abs(trace - dg)) < 1e-15


def test_rwa_bundle_is_isotropic(coeffs):
    bundle = build_propagator(OHMIC, coeffs.grid, "rwa", coeffs=coeffs)
    assert np.array_equal(bundle.w_bar[:, 0, 0], bundle.w_bar[:, 1, 1])
    assert np.all(bundle.w_bar[:, 0, 1] == 0.0)
    assert np.all(bundle.lam == 0.0)
    assert np.all(bundle.theta == 0.0)
    assert np.array_equal(bundle.w_bar[:, 0, 0], 0.5 * bundle.delta_gamma)


def test_delta_gamma_trivia(coeffs):
    dg = delta_gamma_series(coeffs)
    assert dg[0] == 0.0
    free = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    grid = 0.01 * np.arange(101)
    free_coeffs = compute_coefficients(tabulate_kernels(free, grid))
    assert np.all(delta_gamma_series(free_coeffs) == 0.0)


def test_lambda_theta_components():
    nodes = np.array(
        [[[0.5, 0.0], [0.0, 0.5]], [[0.7, 0.0], [0.0, -0.7]], [[0.0, 0.3], [0.3, 0.0]]]
    )
    eye = np.broadcast_to(np.eye(2), nodes.shape)
    bundle = PropagatorBundle(np.arange(3.0), np.zeros(3), eye, eye, nodes)
    assert np.array_equal(bundle.delta_gamma, [1.0, 0.0, 0.0])
    assert np.array_equal(bundle.lam, [0.0, 1.4, 0.0])
    assert np.array_equal(bundle.theta, [0.0, 0.0, 0.6])


def test_congruence_invariant_under_orthogonal_redefinition(coeffs, rotations):
    # replacing R -> R O (fixed orthogonal O) and transforming W accordingly
    # leaves Wbar untouched
    w = w_matrix(coeffs, rotations)
    wb = w_bar_matrix(w, invert_rotation(rotations), coeffs.big_gamma)
    angle = 0.7
    for reflect in (1.0, -1.0):
        o = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        o = o @ np.diag([1.0, reflect])
        rot_o = np.einsum("nij,jk->nik", rotations, o)
        w_o = np.einsum("ji,njk,kl->nil", o, w, o)
        wb_o = w_bar_matrix(w_o, invert_rotation(rot_o), coeffs.big_gamma)
        assert np.max(np.abs(wb_o - wb)) < 1e-11


def test_bundle_initial_node_trivial(coeffs):
    for mode in ("full", "norenorm", "rwa"):
        bundle = build_propagator(OHMIC, coeffs.grid, mode, coeffs=coeffs)
        assert np.array_equal(bundle.rotations[0], np.eye(2))
        assert np.all(bundle.w_bar[0] == 0.0)
        assert bundle.big_gamma[0] == 0.0
        assert np.array_equal(bundle.w_bar[:, 0, 1], bundle.w_bar[:, 1, 0])


def test_unknown_mode_rejected(coeffs):
    with pytest.raises(ValidationError):
        build_propagator(OHMIC, coeffs.grid, "markov", coeffs=coeffs)
