import numpy as np
import pytest

from qbm.coefficients import (
    CoefficientTable,
    compute_coefficients,
    cumulative_trapezoid,
    markovian_asymptotes,
)
from qbm.errors import ValidationError
from qbm.kernels import KernelTable, ReservoirSpec, tabulate_kernels

OHMIC = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)


def make_coeffs(spec, dt=0.01, t_max=50.0):
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    return compute_coefficients(tabulate_kernels(spec, grid))


@pytest.mark.parametrize("nodes", [17, 3001, 6001])
def test_cumulative_trapezoid_is_bit_identical_to_scipy(nodes):
    from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

    rng = np.random.default_rng(nodes)
    grid = 0.005 * np.arange(nodes)
    uneven = np.concatenate(([0.0], np.cumsum(rng.uniform(0.001, 0.01, nodes - 1))))
    for x in (grid, uneven):
        for y in (np.cos(x) * np.exp(-0.1 * x), rng.normal(size=(nodes, 2, 2))):
            ours = cumulative_trapezoid(y, x)
            assert ours.shape == y.shape
            assert np.array_equal(ours, scipy_cumulative_trapezoid(y, x, axis=0, initial=0.0))


def test_zero_kernels_give_zero_table():
    grid = np.linspace(0.0, 5.0, 501)
    table = KernelTable(grid=grid, kappa=np.zeros_like(grid), mu=np.zeros_like(grid))
    coeffs = compute_coefficients(table)
    for name in ("delta_bar", "pi", "r", "gamma", "big_gamma"):
        assert np.all(getattr(coeffs, name) == 0.0)


def test_all_columns_start_at_zero():
    coeffs = make_coeffs(OHMIC, t_max=2.0)
    for name in ("delta_bar", "pi", "r", "gamma", "big_gamma"):
        assert getattr(coeffs, name)[0] == 0.0


def test_gamma_long_time_limit_matches_resonance_value():
    # gamma(inf) = alpha^2 (pi/2) J(omega0) for the ohmic exponential cutoff
    coeffs = make_coeffs(OHMIC, t_max=50.0)
    expected = 0.01 * (np.pi / 2.0) * np.exp(-0.2)
    assert coeffs.gamma[-1] == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(0.012862, abs=2e-6)


def test_big_gamma_is_twice_cumulative_gamma():
    coeffs = make_coeffs(OHMIC, t_max=10.0)
    mid = 0.5 * (coeffs.gamma[:-1] + coeffs.gamma[1:])
    derivative = np.diff(coeffs.big_gamma) / np.diff(coeffs.grid)
    assert np.max(np.abs(derivative - 2.0 * mid)) < 1e-12


def test_quadratic_coupling_scaling_is_exact():
    weak = make_coeffs(OHMIC, t_max=5.0)
    strong = make_coeffs(ReservoirSpec("ohmic_exp_cutoff", alpha=0.2, wc=5.0), t_max=5.0)
    for name in ("delta_bar", "pi", "r", "gamma", "big_gamma"):
        a, b = getattr(weak, name)[1:], getattr(strong, name)[1:]
        assert np.max(np.abs(b - 4.0 * a)) <= 1e-12 * np.max(np.abs(b))


def test_refinement_converges_at_second_order():
    vals = {}
    for dt in (0.04, 0.02, 0.01):
        coeffs = make_coeffs(OHMIC, dt=dt, t_max=10.0)
        vals[dt] = coeffs.gamma[-1]
    ratio = (vals[0.04] - vals[0.02]) / (vals[0.02] - vals[0.01])
    assert ratio == pytest.approx(4.0, rel=0.25)


def test_coarse_grid_refused_with_resolution_hint():
    grid = np.linspace(0.0, 10.0, 11)  # dt = 1 > 0.5
    table = tabulate_kernels(OHMIC, grid)
    with pytest.raises(ValidationError, match=r"use grid\.dt <= 0\.5, not 1$"):
        compute_coefficients(table)


def test_column_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        CoefficientTable(
            grid=np.array([0.0, 0.1]),
            delta_bar=np.zeros(2),
            pi=np.zeros(2),
            r=np.zeros(3),
            gamma=np.zeros(2),
            big_gamma=np.zeros(2),
        )


def test_asymptotes_zero_coupling():
    free = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    out = markovian_asymptotes(free)
    assert all(v == 0.0 for v in out.values())


def test_asymptotes_resonance_values():
    out = markovian_asymptotes(OHMIC)
    assert out["gamma_inf"] == pytest.approx(0.01 * (np.pi / 2) * np.exp(-0.2), rel=1e-12)
    # coth -> 1 at T = 0
    assert out["delta_bar_inf"] == out["gamma_inf"]
    hot = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=2.0)
    out_hot = markovian_asymptotes(hot)
    assert out_hot["delta_bar_inf"] == pytest.approx(
        out_hot["gamma_inf"] / np.tanh(0.25), rel=1e-12
    )


def test_asymptotes_match_transient_tail():
    coeffs = make_coeffs(OHMIC, t_max=50.0)
    out = markovian_asymptotes(OHMIC)
    assert coeffs.gamma[-1] == pytest.approx(out["gamma_inf"], abs=1e-6)
    assert coeffs.r[-1] == pytest.approx(out["r_inf"], abs=1e-4)
    assert coeffs.pi[-1] == pytest.approx(out["pi_inf"], abs=1e-4)


def test_gamma_nondecreasing_integral_when_gamma_positive():
    coeffs = make_coeffs(OHMIC, t_max=20.0)
    if np.all(coeffs.gamma >= 0):
        assert np.all(np.diff(coeffs.big_gamma) >= 0)
