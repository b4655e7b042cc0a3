"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Benchmark reservoir throughout: ohmic exponential cutoff, alpha = 0.1,
wc = 5, temperatures 0 and 2, oscillator units omega0 = 1, grid dt = 0.01
to t = 30, oracle dimension 30 (fixtures in conftest).
"""

import dataclasses
import functools
import time

import numpy as np
import pytest

from qbm import oracle, qcf
from qbm.coefficients import CoefficientTable, compute_coefficients
from qbm.homogeneous import rotation_det, solve_fundamental
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import build_propagator
from qbm.runner import ellipse_points

TEMPERATURES = (0.0, 2.0)
STATE_NAMES = ("coherent2", "thermal1")
MODES = ("full", "norenorm", "rwa")

FIRST_MOMENT_TOL = 1e-5
SECOND_MOMENT_TOL = 1e-4


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {title}: FAIL")
                raise
            print(f"[criterion {number}] {title}: PASS")

        return wrapper

    return deco


@criterion(1, "oracle equivalence of analytic moments")
def test_criterion_1_oracle_equivalence(pipeline):
    for temperature in TEMPERATURES:
        for state_name in STATE_NAMES:
            state = pipeline.state(state_name)
            for mode in MODES:
                started = time.monotonic()
                bundle = pipeline.bundle(temperature, mode)
                series = qcf.observable_series(bundle, state)
                traj = pipeline.oracle_traj(temperature, state_name, mode)
                first = max(
                    np.max(np.abs(series.mean_x - traj.mean_x)),
                    np.max(np.abs(series.mean_p - traj.mean_p)),
                )
                second = max(
                    np.max(np.abs(series.xx - traj.xx)),
                    np.max(np.abs(series.pp - traj.pp)),
                    np.max(np.abs(series.xp_sym - traj.xp_sym)),
                )
                label = f"T={temperature} {state_name} {mode}"
                assert first <= FIRST_MOMENT_TOL, (label, first)
                assert second <= SECOND_MOMENT_TOL, (label, second)
                assert time.monotonic() - started < 120.0, label


def test_fock_state_oracle_equivalence(pipeline):
    # a non-Gaussian state goes through the same affine moment map; the oracle
    # integrates the master equation from |2><2| independently
    for temperature in TEMPERATURES:
        for mode in MODES:
            bundle = pipeline.bundle(temperature, mode)
            series = qcf.observable_series(bundle, pipeline.state("fock2"))
            traj = pipeline.oracle_traj(temperature, "fock2", mode)
            first = max(
                np.max(np.abs(series.mean_x - traj.mean_x)),
                np.max(np.abs(series.mean_p - traj.mean_p)),
            )
            second = max(
                np.max(np.abs(series.xx - traj.xx)),
                np.max(np.abs(series.pp - traj.pp)),
                np.max(np.abs(series.xp_sym - traj.xp_sym)),
            )
            label = f"T={temperature} fock2 {mode}"
            assert first <= FIRST_MOMENT_TOL, (label, first)
            assert second <= SECOND_MOMENT_TOL, (label, second)


@criterion(2, "mean-energy law and its insensitivity to counter-rotating terms")
def test_criterion_2_energy_law(pipeline):
    for temperature in TEMPERATURES:
        for state_name in STATE_NAMES:
            state = pipeline.state(state_name)
            rwa = pipeline.bundle(temperature, "rwa")
            norenorm = pipeline.bundle(temperature, "norenorm")
            moment_rwa = qcf.observable_series(rwa, state).energy
            e0 = moment_rwa[0]
            # (x0^2 + 1)/2 and nbar + 1/2
            assert e0 == pytest.approx({"coherent2": 2.5, "thermal1": 1.5}[state_name], abs=1e-12)
            closed_rwa = qcf.closed_form_energy(rwa.big_gamma, e0, rwa.delta_gamma)
            closed_nr = qcf.closed_form_energy(norenorm.big_gamma, e0, norenorm.delta_gamma)
            assert np.max(np.abs(closed_rwa - moment_rwa)) < 1e-8
            assert np.max(np.abs(closed_nr - closed_rwa)) < 1e-8
            for mode, closed in (("rwa", closed_rwa), ("norenorm", closed_nr)):
                traj = pipeline.oracle_traj(temperature, state_name, mode)
                assert np.max(np.abs(closed - traj.energy)) < 1e-4, (
                    temperature,
                    state_name,
                    mode,
                )


@criterion(3, "second-moment gaps between the exact and rotating-wave solutions")
def test_criterion_3_rwa_gaps(pipeline):
    for temperature in TEMPERATURES:
        norenorm = pipeline.bundle(temperature, "norenorm")
        rwa = pipeline.bundle(temperature, "rwa")
        for state_name in STATE_NAMES:
            state = pipeline.state(state_name)
            s_nr = qcf.observable_series(norenorm, state)
            s_rwa = qcf.observable_series(rwa, state)
            # the counter-rotating gaps (d<X^2>, d<P^2>, d<XP+PX>) = (-lam, lam, -2 theta)
            gaps = np.column_stack([-norenorm.lam, norenorm.lam, -2.0 * norenorm.theta])
            assert np.max(np.abs((s_nr.xx - s_rwa.xx) - gaps[:, 0])) < 1e-8
            assert np.max(np.abs((s_nr.pp - s_rwa.pp) - gaps[:, 1])) < 1e-8
            assert np.max(np.abs((s_nr.xp_sym - s_rwa.xp_sym) - gaps[:, 2])) < 1e-8
            t_nr = pipeline.oracle_traj(temperature, state_name, "norenorm")
            t_rwa = pipeline.oracle_traj(temperature, state_name, "rwa")
            assert np.max(np.abs((t_nr.xx - t_rwa.xx) - gaps[:, 0])) < 1e-3
            assert np.max(np.abs((t_nr.pp - t_rwa.pp) - gaps[:, 1])) < 1e-3
            assert np.max(np.abs((t_nr.xp_sym - t_rwa.xp_sym) - gaps[:, 2])) < 1e-3


@criterion(4, "superoperator algebra suite with truncation-driven Weyl residual")
def test_criterion_4_algebra(pipeline):
    report = oracle.algebra_suite(30)
    assert report.all_pass
    for check in report.checks:
        if check.name != "weyl_eigen":
            assert check.residual < 1e-8, check
    weyl = [oracle.algebra_suite(d)["weyl_eigen"].residual for d in (20, 30, 40)]
    assert weyl[0] > weyl[1] > weyl[2], weyl


@criterion(5, "first moments follow the homogeneous evolution matrix")
def test_criterion_5_rotation_law(pipeline):
    # both routes step the same linear system u' = B(t) u by RK4 and read
    # the table between nodes at CoefficientTable.half_steps(), so they
    # agree to rounding on the run grid
    dt = 0.01
    grid = dt * np.arange(int(round(30.0 / dt)) + 1)
    coeffs = compute_coefficients(tabulate_kernels(pipeline.spec(0.0), grid))
    rot = solve_fundamental(coeffs)
    means0 = np.array([1.0, 0.5])
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=1.0, p0=0.5), 30)
    traj = oracle.integrate(rho0, coeffs, "unitary")
    predicted = np.einsum("nij,j->ni", rot, means0)
    dev = max(
        np.max(np.abs(traj.mean_x - predicted[:, 0])),
        np.max(np.abs(traj.mean_p - predicted[:, 1])),
    )
    assert dev < 1e-12, dev


def test_both_rk4_loops_read_the_half_steps_of_the_table(pipeline):
    # a table whose half-step rows are shifted off the nodes' average moves
    # both routes alike: neither averages the nodes itself
    class Shifted(CoefficientTable):
        def half_steps(self):
            half = super().half_steps()
            return dataclasses.replace(half, r=half.r + 1e-3, gamma=half.gamma + 1e-3)

    grid = 0.01 * np.arange(501)
    coeffs = compute_coefficients(tabulate_kernels(pipeline.spec(0.0), grid))
    shifted = Shifted(**vars(coeffs))
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=1.0, p0=0.5), 30)
    runs = []
    for table in (coeffs, shifted):
        analytic = np.einsum("nij,j->ni", solve_fundamental(table), [1.0, 0.5])
        traj = oracle.integrate(rho0, table, "unitary")
        runs.append((analytic, np.stack([traj.mean_x, traj.mean_p], axis=1)))
        assert np.max(np.abs(analytic - runs[-1][1])) < 1e-12
    for plain, moved in zip(*runs):
        assert np.max(np.abs(moved - plain)) > 1e-8


@criterion(6, "structural invariants of every representation")
def test_criterion_6_structural_invariants(pipeline):
    rng = np.random.default_rng(23)
    state_fock = qcf.FockState(2)
    for mode in MODES:
        bundle = pipeline.bundle(0.0, mode)
        # chi normalization exact, symmetry at random points
        for state in (pipeline.state("coherent2"), state_fock):
            for t in (0, 1500, 3000):
                assert qcf.evolve_chi(bundle, state, t, 0.0, 0.0) == 1.0 + 0.0j
            for _ in range(100):
                z = rng.normal(scale=1.3, size=2)
                t = int(rng.integers(0, len(bundle)))
                a = qcf.evolve_chi(bundle, state, t, *z)
                b = qcf.evolve_chi(bundle, state, t, *-z)
                assert abs(a - np.conj(b)) <= 1e-12
        # diffusion matrix symmetric by construction, bit for bit
        assert np.array_equal(bundle.w_bar[:, 0, 1], bundle.w_bar[:, 1, 0])
        assert np.max(np.abs(rotation_det(bundle.rotations) - 1.0)) < 1e-8
    traj = pipeline.oracle_traj(0.0, "coherent2", "full")
    assert traj.trace_error < 1e-8
    assert traj.herm_drift < 1e-10


@criterion(7, "constant-energy contour: area factor and tilt")
def test_criterion_7_ellipse():
    theta, pts, _circle = ellipse_points(0.1, 0.1)
    n = len(theta)
    # shoelace area of the polygon; points are an affine image of the
    # regular n-gon, so the polygon/ellipse area ratio is exactly the
    # n-gon/circle one and divides out analytically
    x, p = pts
    shoelace = 0.5 * abs(np.dot(x, np.roll(p, -1)) - np.dot(p, np.roll(x, -1)))
    area = shoelace * np.pi / (0.5 * n * np.sin(2.0 * np.pi / n))
    det_q = (1.0 - 0.1) - 0.1**2
    assert abs(area * np.sqrt(det_q) - np.pi) < 1e-10
    # tilt: principal axes of the point cloud stay off the coordinate axes
    # exactly when the cross coupling is present
    m_tilted = pts @ pts.T
    assert abs(m_tilted[0, 1]) > 1e-3
    _theta, pts_aligned, _ = ellipse_points(0.1, 0.0)
    m_aligned = pts_aligned @ pts_aligned.T
    assert abs(m_aligned[0, 1]) < 1e-10


@criterion(8, "free limit reproduces exact rotation through every path")
def test_criterion_8_free_limit():
    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    dt = 0.005
    grid = dt * np.arange(int(round(30.0 / dt)) + 1)
    coeffs = compute_coefficients(tabulate_kernels(spec, grid))
    state = qcf.CoherentState(x0=2.0)
    c, s = np.cos(grid), np.sin(grid)
    exact = {
        "mean_x": 2.0 * c,
        "mean_p": -2.0 * s,
        "xx": 0.5 + 4.0 * c**2,
        "pp": 0.5 + 4.0 * s**2,
        "xp_sym": -4.0 * np.sin(2.0 * grid),
    }
    for mode in MODES:
        bundle = build_propagator(coeffs, mode)
        series = qcf.observable_series(bundle, state)
        for name, ref in exact.items():
            assert np.max(np.abs(getattr(series, name) - ref)) < 1e-7, (mode, name)
    # all generators coincide at zero coupling; one integration covers them
    rho0 = oracle.to_density_matrix(state, 30)
    traj = oracle.integrate(rho0, coeffs, "full")
    for name, ref in exact.items():
        assert np.max(np.abs(getattr(traj, name) - ref)) < 1e-7, ("oracle", name)
