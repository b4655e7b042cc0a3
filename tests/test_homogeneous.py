import numpy as np
import pytest

from qbm.coefficients import CoefficientTable, compute_coefficients
from qbm.errors import NumericalError, StabilityError
from qbm.homogeneous import approx_rotation, invert_rotation, rotation_det, solve_fundamental
from qbm.kernels import ReservoirSpec, tabulate_kernels

OHMIC = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)


def make_coeffs(alpha, dt=0.01, t_max=50.0):
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=alpha, wc=5.0)
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    return compute_coefficients(tabulate_kernels(spec, grid))


def constant_table(dt, t_max, r=0.0, gamma=0.0):
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    zeros = np.zeros_like(grid)
    return CoefficientTable(
        grid=grid,
        delta_bar=zeros,
        pi=zeros,
        r=np.full_like(grid, r),
        gamma=np.full_like(grid, gamma),
        big_gamma=2.0 * gamma * grid,
    )


def test_free_limit_reproduces_trig_solutions():
    coeffs = make_coeffs(0.0)
    rot = solve_fundamental(coeffs)
    assert np.max(np.abs(rot[:, 0, 0] - np.cos(coeffs.grid))) < 1e-8
    assert np.max(np.abs(rot[:, 0, 1] - np.sin(coeffs.grid))) < 1e-8


def test_initial_conditions_exact():
    # (c, s) = (1, 0) and (c', s') = (0, 1) at t = 0, where gamma = 0
    rot = solve_fundamental(make_coeffs(0.1, t_max=1.0))
    assert np.array_equal(rot[0], np.eye(2))


def test_wronskian_pinned_at_omega0():
    # R's lower row is (c' - gamma c, s' - gamma s); recover the derivatives
    # and check Abel's formula on the Wronskian c s' - s c' itself
    coeffs = make_coeffs(0.1)
    rot = solve_fundamental(coeffs)
    c, s = rot[:, 0, 0], rot[:, 0, 1]
    c_dot = rot[:, 1, 0] + coeffs.gamma * c
    s_dot = rot[:, 1, 1] + coeffs.gamma * s
    assert np.max(np.abs(c * s_dot - s * c_dot - 1.0)) < 1e-8


def test_step_halving_shows_fourth_order_convergence_free_case():
    # constant effective frequency: no coefficient-interpolation error, the
    # ratio isolates the integrator's own order
    errs = {}
    for dt in (0.08, 0.04, 0.02):
        coeffs = make_coeffs(0.0, dt=dt, t_max=10.0)
        rot = solve_fundamental(coeffs)
        errs[dt] = np.max(np.abs(rot[:, 0, 0] - np.cos(coeffs.grid)))
    assert errs[0.08] / errs[0.04] == pytest.approx(16.0, rel=0.2)
    assert errs[0.04] / errs[0.02] == pytest.approx(16.0, rel=0.2)


def test_step_halving_converges_on_coupled_run():
    # with trapezoid-built tables the half-step interpolation of the
    # coefficients limits consistency to second order; refinement must still
    # contract at least that fast
    sols = {}
    for dt in (0.04, 0.02, 0.01):
        coeffs = make_coeffs(0.1, dt=dt, t_max=10.0)
        sols[dt] = solve_fundamental(coeffs)[-1, 0, 0]
    ratio = (sols[0.04] - sols[0.02]) / (sols[0.02] - sols[0.01])
    assert ratio > 3.4
    assert abs(sols[0.02] - sols[0.01]) < 5e-4


def test_rotation_identity_at_t0_and_free_limit():
    coeffs = make_coeffs(0.0, t_max=10.0)
    rot = solve_fundamental(coeffs)
    assert np.array_equal(rot[0], np.eye(2))
    expected = approx_rotation(coeffs.grid)
    assert np.max(np.abs(rot - expected)) < 1e-8


def test_rotation_determinant_is_one():
    rot = solve_fundamental(make_coeffs(0.1))
    assert np.max(np.abs(rotation_det(rot) - 1.0)) < 1e-8


def test_rotation_inverse_is_adjugate():
    coeffs = make_coeffs(0.1, t_max=5.0)
    rot = solve_fundamental(coeffs)
    inv = invert_rotation(rot)
    prod = np.einsum("nij,njk->nik", rot, inv)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-8


def test_determinant_drift_is_renormalized_and_names_the_step(caplog):
    rot = approx_rotation(np.array([0.0, 0.5])) * np.sqrt(1.01)
    inv = invert_rotation(rot)
    assert np.max(np.abs(np.einsum("nij,njk->nik", rot, inv) - np.eye(2))) < 1e-15
    assert "det R drifted to 1.000e-02 from 1" in caplog.text and "lower grid.dt" in caplog.text


def test_approx_rotation_values():
    grid = np.array([0.0, np.pi / 2])
    rot = approx_rotation(grid)
    assert np.allclose(rot[0], np.eye(2))
    assert np.allclose(rot[1], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_approx_rotation_error_scales_as_alpha_squared():
    def deviation(alpha):
        coeffs = make_coeffs(alpha, t_max=5.0)
        exact = solve_fundamental(coeffs)
        return np.max(np.abs(exact - approx_rotation(coeffs.grid)))

    ratio = deviation(0.1) / deviation(0.05)
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_rotation_is_continuous():
    coeffs = make_coeffs(0.1, t_max=10.0)
    rot = solve_fundamental(coeffs)
    w_max = np.sqrt(np.max(1.0 - coeffs.r - coeffs.gamma**2))
    norm_max = np.max(np.abs(rot))
    step = np.max(np.abs(np.diff(rot, axis=0)))
    assert step <= w_max * 0.01 * (1.0 + norm_max)


def test_large_step_refused():
    with pytest.raises(StabilityError, match=r"need grid\.dt <= "):
        solve_fundamental(constant_table(dt=0.6, t_max=6.0))


@pytest.mark.parametrize("r, gamma", [(2.0, 0.0), (0.0, 1.2)], ids=["r", "gamma"])
def test_negative_effective_frequency_aborts(r, gamma):
    # det B = 1 - r - gamma^2 turns negative through either term
    with pytest.raises(NumericalError, match=r"weak.*lower reservoir\.alpha"):
        solve_fundamental(constant_table(dt=0.01, t_max=1.0, r=r, gamma=gamma))
