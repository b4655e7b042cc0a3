import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm.coefficients import compute_coefficients
from qbm.errors import ValidationError
from qbm.kernels import (
    KernelTable,
    ReservoirSpec,
    kappa,
    load_kernel_csv,
    mu,
    tabulate_kernels,
    trigamma,
)
from references import QuadratureError, _checked_quad, kappa_quadrature, mu_quadrature

OHMIC = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)


def mp_kappa(spec, tau):
    """High-precision independent oracle for the kappa transform."""
    mp.mp.dps = 30
    wc, T = spec.wc, spec.temperature

    def integrand(w):
        j = w * mp.exp(-w / wc)
        if T > 0:
            j *= mp.coth(w / (2 * T))
        return j * mp.cos(w * tau)

    points = [0, 1 / wc, 10 * wc]
    if tau > 0:
        points += list(np.arange(np.pi / (2 * tau), 40 * wc, np.pi / (2 * tau)))
    points = sorted(set(float(p) for p in points)) + [mp.inf]
    return spec.alpha**2 * float(mp.quad(integrand, points))


def test_zero_coupling_kernels_vanish():
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    for tau in (0.0, 0.3, 1.0, 7.5):
        assert kappa(spec, tau) == 0.0
        assert mu(spec, tau) == 0.0


def test_kappa_closed_form_anchor_values():
    # alpha^2 * wc^2 at tau=0; zero crossing at tau = 1/wc
    assert kappa(OHMIC, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert kappa(OHMIC, 0.2) == pytest.approx(0.0, abs=1e-15)


def test_mu_closed_form_anchor_values():
    assert mu(OHMIC, 0.0) == 0.0
    assert mu(OHMIC, 0.2) == pytest.approx(0.125, abs=1e-15)
    assert mu(ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0), 1.0) == 0.0


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.2, 0.5, 1.0, 3.7, 11.0, 20.0])
def test_closed_forms_agree_with_quadrature(tau):
    # relative 1e-8 away from the zero crossing, small absolute floor at it
    diff = abs(kappa(OHMIC, tau) - kappa_quadrature(OHMIC, tau))
    assert diff <= max(1e-8 * abs(kappa(OHMIC, tau)), 1e-12)
    assert abs(mu(OHMIC, tau) - mu_quadrature(OHMIC, tau)) <= 1e-9


def test_tabulation_closed_vs_quadrature_on_grid():
    grid = np.linspace(0.0, 20.0, 50)
    closed = np.array([kappa(OHMIC, t) for t in grid])
    quad_path = np.array([kappa_quadrature(OHMIC, t) for t in grid])
    assert np.max(np.abs(closed - quad_path)) < 1e-9


@pytest.mark.parametrize("tau", [0.0, 0.07, 0.9, 2.5, 14.0])
def test_thermal_kappa_against_mp_oracle(tau):
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=2.0)
    assert kappa(spec, tau) == pytest.approx(mp_kappa(spec, tau), abs=5e-10)


@pytest.mark.parametrize(
    "u",
    [
        # small |u|, where the recurrence's u^-2 dominates
        0.01 + 0.02j, 0.3, 0.5 - 0.5j, 1e-3 + 1e-3j,
        # Re u -> 0 with large |Im u|
        1e-3 + 50j, 1e-6 - 200j, 1e-3 + 1e4j,
        # large |u|
        40 + 3j, 1e3 - 7e3j, 1e6 + 1j,
        # the kernel's arguments 1 + T z at T = 0.01, 2 and 14
        1.002 - 0.3j, 1.4 - 60j, 3.8 - 420j,
    ],
)
def test_trigamma_against_mpmath(u):
    mp.mp.dps = 40
    ref = complex(mp.psi(1, mp.mpc(u.real, u.imag)))
    assert abs(trigamma(u) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("temperature", [0.01, 0.5, 2.0, 14.0])
def test_thermal_closed_form_against_quadrature(temperature):
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=temperature)
    grid = np.concatenate([np.linspace(0.0, 1.0, 21), np.linspace(1.25, 30.0, 40)])
    quad_path = np.array([kappa_quadrature(spec, t) for t in grid])
    assert np.max(np.abs(kappa(spec, grid) - quad_path)) <= 1e-12


@pytest.mark.parametrize("temperature", [0.0, 2.0])
def test_tabulation_equals_scalar_evaluation_bit_for_bit(temperature):
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=temperature)
    grid = 0.01 * np.arange(3001)
    table = tabulate_kernels(spec, grid)
    assert np.array_equal(table.kappa, [kappa(spec, t) for t in grid])
    assert np.array_equal(table.mu, [mu(spec, t) for t in grid])


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_array_lags_rejected_like_scalar_lags(bad):
    hot = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=2.0)
    for spec in (OHMIC, hot):
        for f in (kappa, mu):
            with pytest.raises(ValidationError, match="tau must be finite and >= 0"):
                f(spec, bad)
            with pytest.raises(ValidationError, match="tau must be finite and >= 0"):
                f(spec, np.array([0.0, 1.0, bad, 2.0]))


def test_negative_lag_rejected():
    with pytest.raises(ValidationError):
        kappa(OHMIC, -0.1)
    with pytest.raises(ValidationError):
        mu(OHMIC, -2.0)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(1e-3, 2.0),
    # below ~1e-300 mu ~ 2 alpha^2 wc^3 tau underflows to a subnormal
    # and spoils the exact ratio, even for a normal tau
    tau=st.one_of(st.just(0.0), st.floats(1e-300, 20.0)),
    wc=st.floats(0.5, 10.0),
    temperature=st.floats(0.0, 14.0),
)
def test_kernels_scale_exactly_as_alpha_squared(alpha, tau, wc, temperature):
    s1 = ReservoirSpec("ohmic_exp_cutoff", alpha=alpha, wc=wc, temperature=temperature)
    s2 = ReservoirSpec("ohmic_exp_cutoff", alpha=2.0 * alpha, wc=wc, temperature=temperature)
    for f in (kappa, mu):
        v1, v2 = f(s1, tau), f(s2, tau)
        if v1 != 0.0:
            assert v2 / v1 == pytest.approx(4.0, rel=1e-12)
        else:
            assert v2 == 0.0


def test_kernels_far_past_the_cutoff_follow_their_large_lag_limits():
    # at wc tau > 1e77 a rational form's denominator (1 + (wc tau)^2)^2 would
    # overflow; z^-2 keeps the limits -alpha^2/tau^2 and 2 alpha^2/(wc tau^3)
    alpha, wc = 1e-50, 1e90
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=alpha, wc=wc)
    tau = np.linspace(0.0, 1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = tabulate_kernels(spec, tau)
    assert table.kappa[0] == pytest.approx(1e80, rel=1e-12)
    assert table.kappa[1:] == pytest.approx(-(alpha**2) / tau[1:] ** 2, rel=1e-12, abs=0.0)
    assert table.mu[1:] == pytest.approx(2.0 * alpha**2 / (wc * tau[1:] ** 3), rel=1e-12, abs=0.0)


def test_zero_temperature_kernels_equal_their_rational_forms():
    # the rational forms that z^-2 replaced, with x = wc tau
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.3, wc=7.0)
    tau = np.linspace(0.0, 30.0, 3001)
    x2 = (spec.wc * tau) ** 2
    table = tabulate_kernels(spec, tau)
    rational_kappa = spec.alpha**2 * spec.wc**2 * (1.0 - x2) / (1.0 + x2) ** 2
    rational_mu = 2.0 * spec.alpha**2 * spec.wc**3 * tau / (1.0 + x2) ** 2
    for closed, rational in ((table.kappa, rational_kappa), (table.mu, rational_mu)):
        assert np.max(np.abs(closed - rational)) <= 1e-14 * np.max(np.abs(rational))


def test_a_finite_bath_past_the_range_of_wc_cubed_is_accepted():
    # wc^3 = 1e330 overflows a double, yet kappa(0) = alpha^2 wc^2 = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ReservoirSpec("ohmic_exp_cutoff", alpha=1e-100, wc=1e110)
        table = tabulate_kernels(spec, np.linspace(0.0, 1.0, 11))
    assert table.kappa[0] == pytest.approx(1e20, rel=1e-15)
    assert np.all(np.isfinite(table.mu))


def test_tabulate_zero_coupling_gives_zero_table():
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    table = tabulate_kernels(spec, np.linspace(0.0, 3.0, 10))
    assert np.all(table.kappa == 0.0) and np.all(table.mu == 0.0)


def test_tabulated_roundtrip_is_exact_at_nodes():
    grid = np.linspace(0.0, 4.0, 41)
    base = tabulate_kernels(OHMIC, grid)
    again = tabulate_kernels(base, grid)
    assert np.array_equal(again.kappa, base.kappa)
    assert np.array_equal(again.mu, base.mu)


def test_tabulated_rejects_out_of_range():
    grid = np.linspace(0.0, 4.0, 41)
    table = tabulate_kernels(OHMIC, grid)
    message = r"ends at tau = 4, short of .* t = 5; extend the table or lower grid\.t_max$"
    with pytest.raises(ValidationError, match=message):
        tabulate_kernels(table, [0.0, 5.0])


def test_kernel_table_validation():
    with pytest.raises(ValidationError):
        KernelTable(grid=[0.0, 1.0], kappa=[1.0], mu=[0.0, 0.0])
    with pytest.raises(ValidationError):
        KernelTable(grid=[0.5, 1.0], kappa=[1.0, 1.0], mu=[0.0, 0.0])
    with pytest.raises(ValidationError):
        KernelTable(grid=[0.0, 1.0], kappa=[1.0, 1.0], mu=[0.5, 0.0])
    with pytest.raises(ValidationError):
        KernelTable(grid=[0.0, 1.0, 1.0], kappa=[1.0] * 3, mu=[0.0] * 3)


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param([[0.0, 0.1], [0.2, 0.3]], id="not-1d"),
        pytest.param([], id="empty"),
        pytest.param([0.0], id="one-node"),
        pytest.param([0.1, 0.2], id="not-from-0"),
        pytest.param([0.0, 0.2, 0.1], id="decreasing"),
        pytest.param([0.0, 0.1, 0.1], id="repeated"),
        pytest.param([0.0, -0.1], id="negative"),
        pytest.param([0.0, np.nan], id="nan"),
    ],
)
def test_malformed_grid_raises_validation_error(grid):
    # KernelTable validates the grid once; compute_coefficients adds only
    # the two-node minimum and the step bound
    with pytest.raises(ValidationError):
        compute_coefficients(tabulate_kernels(OHMIC, grid))


def test_kernel_csv_roundtrip(tmp_path):
    path = tmp_path / "kern.csv"
    path.write_text("tau,kappa,mu\n0.0,0.25,0.0\n0.5,0.1,0.02\n1.0,0.01,0.001\n")
    table = load_kernel_csv(path)
    assert table.kappa[1] == 0.1
    # linear interpolation between nodes
    assert tabulate_kernels(table, [0.0, 0.25]).kappa[1] == pytest.approx(0.175)
    bad = tmp_path / "bad.csv"
    bad.write_text("time,k,m\n0,1,0\n")
    with pytest.raises(ValidationError):
        load_kernel_csv(bad)


def test_quadrature_error_carries_estimate():
    with pytest.raises(QuadratureError) as err:
        _checked_quad(lambda w: np.cos(w**2) / (1.0 + 1e-6 * w), 0.0, None, "test")
    assert err.value.estimate > 0.0
