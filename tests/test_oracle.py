import os
from dataclasses import fields

import numpy as np
import pytest

from qbm import oracle, qcf
from qbm.coefficients import CoefficientTable, compute_coefficients
from qbm.errors import LeakageError, NumericalError, TruncationError, ValidationError
from qbm.kernels import ReservoirSpec, tabulate_kernels


def zero_coeffs(dt=0.01, t_max=5.0):
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    z = np.zeros_like(grid)
    return CoefficientTable(grid=grid, delta_bar=z, pi=z, r=z, gamma=z, big_gamma=z)


def head(coeffs, n):
    """The table on the first n nodes of its grid."""
    return CoefficientTable(**{f.name: getattr(coeffs, f.name)[:n] for f in fields(coeffs)})


# --- operators -------------------------------------------------------------


def test_fock_operators_hermitian_and_canonical():
    ops = oracle.fock_operators(30)
    assert np.max(np.abs(ops.x - ops.x.conj().T)) <= 1e-14
    assert np.max(np.abs(ops.p - ops.p.conj().T)) <= 1e-14
    comm = ops.x @ ops.p - ops.p @ ops.x
    block = comm[:29, :29]
    assert np.max(np.abs(block - 1j * np.eye(29))) <= 1e-12


# --- algebra suite ---------------------------------------------------------


def test_algebra_suite_passes_at_30():
    rep = oracle.algebra_suite(30)
    assert rep.all_pass
    for check in rep.checks:
        if check.name != "weyl_eigen":
            assert check.residual < 1e-8


def test_algebra_suite_weyl_residual_shrinks_with_dimension():
    residuals = [oracle.algebra_suite(d)["weyl_eigen"].residual for d in (20, 30, 40)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_algebra_suite_rejects_small_dimension():
    with pytest.raises(ValidationError):
        oracle.algebra_suite(12)


def test_algebra_report_file(tmp_path):
    rep = oracle.algebra_suite(20)
    path = tmp_path / "report.txt"
    oracle.write_algebra_report(rep, path)
    text = path.read_text()
    assert "weyl_eigen" in text and "pass" in text


# --- generator -------------------------------------------------------------


def test_generator_zero_coefficients_is_unitary_generator():
    ops = oracle.fock_operators(12)
    gen = oracle.generator({"delta_bar": 0.0, "pi": 0.0, "r": 0.0, "gamma": 0.0}, 12, "full")
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = 0.5 * (rho + rho.conj().T)
    expected = -1j * (ops.h0 @ rho - rho @ ops.h0)
    assert np.allclose(gen(rho), expected, atol=1e-13)


def test_generator_rwa_assembly():
    # every column of L: its action on each matrix unit E_mn
    ops = oracle.fock_operators(12)
    gen = oracle.generator({"delta_bar": 0.4, "pi": 0.0, "r": 0.0, "gamma": 0.0}, 12, "rwa")

    def comm(a, b):
        return a @ b - b @ a

    for unit in np.eye(12 * 12, dtype=complex).reshape(-1, 12, 12):
        x_part, p_part = comm(ops.x, comm(ops.x, unit)), comm(ops.p, comm(ops.p, unit))
        explicit = -1j * comm(ops.h0, unit) - 0.2 * (x_part + p_part)
        assert np.max(np.abs(gen(unit) - explicit)) < 1e-13


def test_generator_trace_preserving_on_interior_states():
    rng = np.random.default_rng(1)
    rho = np.zeros((16, 16), dtype=complex)
    block = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho[:10, :10] = 0.5 * (block + block.conj().T)
    row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.2, "gamma": 0.05}
    for mode in ("full", "norenorm", "rwa", "unitary"):
        assert abs(np.trace(oracle.generator(row, 16, mode)(rho))) < 1e-10


def test_generator_matches_matrix_free_rhs():
    ops = oracle.fock_operators(12)
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = 0.5 * (rho + rho.conj().T) / 12.0
    row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.2, "gamma": 0.05}
    for mode in oracle.MODES:
        expected = reference_rhs(rho, *(row[k] for k in COEFFS), ops, mode)
        assert np.max(np.abs(oracle.generator(row, 12, mode)(rho) - expected)) < 1e-13, mode


def test_integration_steps_on_the_generator():
    # one RK4 step of the loop is the same arithmetic on the same matrices as
    # a step built here from ``generator``, bit for bit, for every mode of a batch
    grid = np.array([0.0, 0.01])
    rows = {"delta_bar": (0.3, 0.31), "pi": (0.1, 0.12), "r": (0.2, 0.19), "gamma": (0.05, 0.06)}
    coeffs = CoefficientTable(
        grid=grid, big_gamma=np.zeros(2), **{k: np.array(v) for k, v in rows.items()}
    )
    rho0 = oracle.to_density_matrix(qcf.CoherentState(1.0, 0.5), 12)
    batch = oracle.integrate_modes(rho0, coeffs, oracle.MODES)
    node, nxt = ({k: v[i] for k, v in rows.items()} for i in (0, 1))
    mid = {k: 0.5 * (node[k] + nxt[k]) for k in rows}
    h = grid[1] - grid[0]
    for mode in oracle.MODES:
        g_node, g_mid, g_nxt = (oracle.generator(row, 12, mode) for row in (node, mid, nxt))
        k = acc = g_node(rho0)
        for weight, step, gen in ((2.0, 0.5 * h, g_mid), (2.0, 0.5 * h, g_mid), (1.0, h, g_nxt)):
            k = gen(rho0 + step * k)
            acc += weight * k
        rho = rho0 + (h / 6.0) * acc
        rho = 0.5 * (rho + rho.conj().T)
        assert np.array_equal(batch[mode].rho_final, rho), mode


def test_generator_unknown_mode():
    with pytest.raises(ValidationError):
        oracle.generator({}, 10, "lindblad")


# --- integration -----------------------------------------------------------


def test_free_evolution_rotates_coherent_state():
    coeffs = zero_coeffs(t_max=5.0)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=1.0), 30)
    traj = oracle.integrate_modes(rho0, coeffs, ["full"])["full"]
    assert np.max(np.abs(traj.mean_x - np.cos(coeffs.grid))) < 1e-7
    assert np.max(np.abs(traj.mean_p + np.sin(coeffs.grid))) < 1e-7


def test_trace_preserved_over_long_run(pipeline):
    traj = pipeline.oracle_traj(0.0, "coherent2", "full")
    assert traj.trace_error < 1e-8
    assert traj.herm_drift < 1e-10


def test_modes_differ_under_coupling(pipeline):
    full = pipeline.oracle_traj(0.0, "coherent2", "full")
    rwa = pipeline.oracle_traj(0.0, "coherent2", "rwa")
    assert np.max(np.abs(full.xx - rwa.xx)) > 1e-4


def heated_coeffs():
    """Diffusion strong enough to heat the d = 12 vacuum out of its basis within t = 0.2."""
    coeffs = zero_coeffs(t_max=0.2)
    return CoefficientTable(
        grid=coeffs.grid,
        delta_bar=np.full_like(coeffs.grid, 5.0),
        pi=coeffs.pi,
        r=coeffs.r,
        gamma=coeffs.gamma,
        big_gamma=coeffs.big_gamma,
    )


def test_leakage_abort_suggests_bigger_dimension():
    coeffs = zero_coeffs(t_max=0.2)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=4.2), 12)
    with pytest.raises(LeakageError, match="dimension|increase"):
        oracle.integrate_modes(rho0, coeffs, ["full"])
    # in a batch, strong diffusion heats the vacuum out of the basis in rwa
    # while the unitary mode leaves it in place: the abort names rwa
    heated = heated_coeffs()
    vacuum = oracle.to_density_matrix(qcf.CoherentState(), 12)
    with pytest.raises(LeakageError, match=r"mode 'rwa'.*t=.*beyond 12"):
        oracle.integrate_modes(vacuum, heated, ("unitary", "rwa"))
    assert oracle.integrate_modes(vacuum, heated, ["unitary"])["unitary"].max_leakage < 1e-20
    # a NaN leakage trips the initial check instead of slipping past ``>``
    with pytest.raises(LeakageError, match="initial state"):
        oracle.integrate_modes(np.full((12, 12), np.nan), coeffs, ["full"])


def leakage_error(rho0, coeffs, modes) -> LeakageError:
    with pytest.raises(LeakageError) as caught:
        oracle.integrate_modes(rho0, coeffs, modes)
    return caught.value


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_raises_the_first_listed_failure(monkeypatch, cpus):
    # full leaks at t = 0.04 and rwa at t = 0.06; whichever is listed first
    # is raised, stepped in this process or not, however early the other leaks
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    heated = heated_coeffs()
    vacuum = oracle.to_density_matrix(qcf.CoherentState(), 12)
    full, rwa = (leakage_error(vacuum, heated, [mode]) for mode in ("full", "rwa"))
    assert "t=0.04" in str(full) and "t=0.06" in str(rwa)
    for modes, first in ((("rwa", "full"), rwa), (("full", "rwa"), full)):
        batch = leakage_error(vacuum, heated, modes)
        assert type(batch) is LeakageError and str(batch) == str(first), modes
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_trajectory_is_an_observable_series(monkeypatch):
    # the forked rwa trajectory comes back pickled, with the energy its
    # child computed
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    rho0 = oracle.to_density_matrix(qcf.SqueezedVacuum(0.5), 20)
    for traj in oracle.integrate_modes(rho0, zero_coeffs(t_max=0.2), ("full", "rwa")).values():
        assert isinstance(traj, qcf.ObservableSeries)
        assert np.array_equal(traj.energy, 0.5 * (traj.xx + traj.pp))


def test_trajectory_below_the_variance_floor_raises():
    one = np.array([1.0])
    with pytest.raises(NumericalError, match="variance floor"):
        oracle.OracleTrajectory(
            np.array([0.0]),
            mean_x=one,
            mean_p=0.0 * one,
            xx=0.5 * one,
            pp=0.5 * one,
            xp_sym=0.0 * one,
            trace_error=0.0,
            herm_drift=0.0,
            max_leakage=0.0,
            rho_final=np.eye(1),
            sectors=("even",),
        )


COEFFS = ("delta_bar", "pi", "r", "gamma")
MOMENT_NAMES = ("mean_x", "mean_p", "xx", "pp", "xp_sym")


def reference_rhs(rho, dbar, piv, r, gam, ops, mode):
    """The master equation in commutator form, each superoperator spelled out."""
    if mode in ("full", "unitary"):
        h = ops.h0 - 0.5 * r * ops.x2 + 0.5 * gam * ops.xppx
    else:
        h = ops.h0
    out = -1j * (h @ rho - rho @ h)
    if mode == "unitary":
        return out
    x, p = ops.x, ops.p
    cx = x @ rho - rho @ x
    cp = p @ rho - rho @ p
    if mode == "rwa":
        out -= 0.5 * dbar * ((x @ cx - cx @ x) + (p @ cp - cp @ p))
    else:
        out -= dbar * (x @ cx - cx @ x) - piv * (x @ cp - cp @ x)
    n_rho = -0.5j * ((p @ cx + cx @ p) - (x @ cp + cp @ x))
    out += gam * (n_rho + 2.0 * rho)
    return out


def reference_integrate(rho, coeffs, mode, ops, n):
    """One mode, one matrix at a time: RK4 with linearly interpolated half-steps."""
    t = coeffs.grid
    node = np.array([getattr(coeffs, k)[:n] for k in COEFFS])
    mid = 0.5 * (node[:, :-1] + node[:, 1:])
    traced = (ops.x, ops.p, ops.x2, ops.p2, ops.xppx)
    moments = np.empty((len(traced), n))
    moments[:, 0] = [np.trace(a @ rho).real for a in traced]
    for i in range(n - 1):
        h = t[i + 1] - t[i]
        k1 = reference_rhs(rho, *node[:, i], ops, mode)
        k2 = reference_rhs(rho + 0.5 * h * k1, *mid[:, i], ops, mode)
        k3 = reference_rhs(rho + 0.5 * h * k2, *mid[:, i], ops, mode)
        k4 = reference_rhs(rho + h * k3, *node[:, i + 1], ops, mode)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        moments[:, i + 1] = [np.trace(a @ rho).real for a in traced]
    return moments, rho


# coherent x0 = 2 occupies both parity sectors of m + n; the Fock and the
# squeezed vacuum occupy the even one only, so the loop steps half the entries
@pytest.mark.parametrize(
    "state_name, sectors",
    [("coherent2", ("even", "odd")), ("fock2", ("even",)), ("squeezed05", ("even",))],
    ids=["coherent2", "fock2", "squeezed05"],
)
def test_batched_modes_match_reference_and_single_runs(pipeline, state_name, sectors):
    n = 301
    coeffs = pipeline.coeffs(2.0)
    rho0 = oracle.to_density_matrix(pipeline.state(state_name), 30)
    batch = oracle.integrate_modes(rho0, head(coeffs, n), oracle.MODES)
    assert tuple(batch) == oracle.MODES
    odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
    for mode, traj in batch.items():
        assert traj.sectors == sectors, mode
        moments, rho_final = reference_integrate(rho0, coeffs, mode, pipeline.ops, n)
        for name, ref in zip(MOMENT_NAMES, moments):
            assert np.max(np.abs(getattr(traj, name) - ref)) <= 1e-12, (mode, name)
        assert np.max(np.abs(traj.rho_final - rho_final)) <= 1e-12, mode
        if sectors == ("even",):
            assert np.all(traj.rho_final[odd] == 0.0), mode
            assert np.all(traj.mean_x == 0.0) and np.all(traj.mean_p == 0.0), mode
        single = oracle.integrate_modes(rho0, head(coeffs, n), [mode])[mode]
        for guard in ("trace_error", "herm_drift", "max_leakage"):
            assert getattr(traj, guard) == getattr(single, guard), (mode, guard)
        for name in MOMENT_NAMES + ("energy", "rho_final"):
            assert np.array_equal(getattr(traj, name), getattr(single, name)), (mode, name)
        assert traj.herm_drift <= 1e-10


@pytest.mark.parametrize("state_name", ["coherent2", "fock2"])
def test_forked_groups_match_one_loop(pipeline, monkeypatch, state_name):
    # with two usable CPUs the first mode is stepped here and each other one
    # in a forked child; the trajectories are bit for bit those of the loops
    # run in turn
    coeffs = head(pipeline.coeffs(2.0), 301)
    rho0 = oracle.to_density_matrix(pipeline.state(state_name), 30)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        runs[cpus] = oracle.integrate_modes(rho0, coeffs, oracle.MODES)
        with pytest.raises(ChildProcessError):  # every child has been reaped
            os.waitpid(-1, os.WNOHANG)
    assert tuple(runs[2]) == oracle.MODES
    for mode in oracle.MODES:
        one, forked = runs[1][mode], runs[2][mode]
        for name in MOMENT_NAMES + ("energy", "rho_final"):
            assert np.array_equal(getattr(one, name), getattr(forked, name)), (mode, name)
        for name in ("trace_error", "herm_drift", "max_leakage", "sectors"):
            assert getattr(one, name) == getattr(forked, name), (mode, name)
    # a single mode is stepped in this process: nothing is forked
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a one-mode run forked"))
    assert oracle.integrate_modes(rho0, coeffs, ["rwa"])["rwa"].sectors == runs[2]["rwa"].sectors


@pytest.mark.parametrize(
    "cpus, modes, forks",
    [(2, ("full", "norenorm", "rwa"), 2), (1, ("full", "norenorm", "rwa"), 0), (2, ("rwa",), 0)],
    ids=["three_modes_two_cpus", "three_modes_one_cpu", "one_mode_two_cpus"],
)
def test_one_child_per_mode_after_the_first(monkeypatch, cpus, modes, forks):
    # the caller steps the first mode and a forked child each other one,
    # unless a single CPU is usable
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    calls, fork = [], os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(1.0), 12)
    assert tuple(oracle.integrate_modes(rho0, zero_coeffs(t_max=0.1), modes)) == modes
    assert len(calls) == forks
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)


def test_forked_mode_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    vacuum = oracle.to_density_matrix(qcf.CoherentState(), 12)
    # a guard failure in the child is raised here, with its message
    heated = heated_coeffs()
    error = leakage_error(vacuum, heated, ("unitary", "rwa"))
    assert str(error) == str(leakage_error(vacuum, heated, ["rwa"]))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    parent, integrate = os.getpid(), oracle._integrate_mode

    def failing(mode, *args):
        if os.getpid() != parent:
            raise ValidationError("no such mode")
        return integrate(mode, *args)

    def dying(mode, *args):
        if os.getpid() != parent:
            os._exit(1)
        return integrate(mode, *args)

    # any other error of the child is raised here as it is
    monkeypatch.setattr(oracle, "_integrate_mode", failing)
    with pytest.raises(ValidationError, match="no such mode"):
        oracle.integrate_modes(vacuum, zero_coeffs(t_max=0.1), ("full", "rwa"))
    # a child that ends without a reply names its mode and exit status
    monkeypatch.setattr(oracle, "_integrate_mode", dying)
    with pytest.raises(
        NumericalError, match="the oracle worker for mode 'rwa' ended with exit status 1"
    ):
        oracle.integrate_modes(vacuum, zero_coeffs(t_max=0.1), ("full", "rwa"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_integrate_modes_rejects_repeated_or_unknown_modes():
    coeffs = zero_coeffs(t_max=0.1)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(), 10)
    for modes in ((), ("full", "full"), ("full", "lindblad")):
        with pytest.raises(ValidationError):
            oracle.integrate_modes(rho0, coeffs, modes)


def test_initial_state_builders_normalized():
    for state in (
        qcf.CoherentState(1.2, -0.8),
        qcf.ThermalState(1.5),
        qcf.FockState(4),
        qcf.SqueezedVacuum(0.5, 0.7),
    ):
        rho = oracle.to_density_matrix(state, 40)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


@pytest.mark.parametrize("d", [30, 40, 60])
def test_squeezed_vacuum_matches_matrix_exponential(d):
    from scipy.linalg import expm

    a = oracle.fock_operators(d).a
    ad = a.conj().T
    vacuum = np.eye(d, 1, dtype=complex).ravel()
    for r in (0.1, 0.5, 1.0):
        for phi in (0.0, 0.3, 2.0):
            psi = expm(-1j * phi * (ad @ a)) @ expm(0.5 * r * (a @ a - ad @ ad)) @ vacuum
            reference = np.outer(psi, psi.conj())
            reference /= np.trace(reference).real
            rho = oracle.to_density_matrix(qcf.SqueezedVacuum(r, phi), d)
            assert np.max(np.abs(rho - reference)) <= 1e-14, (r, phi)
            # S(r) is quadratic in a and a^dag: the odd levels are exact zeros
            assert np.all(rho[1::2] == 0.0) and np.all(rho[:, 1::2] == 0.0), (r, phi)


def test_initial_moments_match_qcf_convention():
    # locks every sign in the moment map against the Fock-space construction
    # t = 0 moments as the integration records them, on a one-node grid
    coeffs = zero_coeffs(t_max=0.01)
    free = build_free_bundle()
    for state in (
        qcf.CoherentState(1.3, -0.6),
        qcf.ThermalState(0.7),
        qcf.SqueezedVacuum(0.6, 0.5),
        qcf.FockState(2),
    ):
        rho = oracle.to_density_matrix(state, 40)
        traj = oracle.integrate_modes(rho, head(coeffs, 1), ["full"])["full"]
        m = qcf.observable_series(free, state)
        for name in MOMENT_NAMES:
            expected = pytest.approx(getattr(m, name)[0], abs=1e-7)
            assert getattr(traj, name)[0] == expected, (state, name)


def build_free_bundle():
    from qbm.propagator import build_propagator

    grid = 0.01 * np.arange(11)
    return build_propagator(ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0), grid, "full")


def test_tabulated_chi_has_no_fock_representation():
    nodes = np.linspace(-3.0, 3.0, 31)
    vals = np.exp(-(nodes[:, None] ** 2 + nodes[None, :] ** 2) / 4.0).astype(complex)
    tab = qcf.TabulatedChi(nodes, nodes, vals)
    with pytest.raises(ValidationError):
        oracle.to_density_matrix(tab, 20)


# --- chi from rho ----------------------------------------------------------


def test_chi_from_rho_normalization_and_vacuum():
    rho = oracle.to_density_matrix(qcf.CoherentState(), 40)
    assert oracle.chi_from_rho(rho, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert oracle.chi_from_rho(rho, (1.0, 1.0)) == pytest.approx(
        np.exp(-0.5), abs=1e-8
    )


def test_chi_from_rho_hermiticity():
    rho = oracle.to_density_matrix(qcf.CoherentState(0.9, 0.4), 40)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(scale=1.0, size=2)
        a = oracle.chi_from_rho(rho, z)
        b = oracle.chi_from_rho(rho, -z)
        assert abs(a - np.conj(b)) < 1e-12


def test_chi_from_rho_truncation_guard():
    rho = oracle.to_density_matrix(qcf.CoherentState(), 10)
    with pytest.raises(TruncationError):
        oracle.chi_from_rho(rho, (4.0, 4.0))


def test_chi_from_rho_matches_analytic_fock():
    rho = oracle.to_density_matrix(qcf.FockState(1), 40)
    val = oracle.chi_from_rho(rho, (1.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-10)


# --- cross-validation of the evolved chi -----------------------------------


def test_evolved_chi_matches_oracle_pointwise(pipeline):
    # the evolved characteristic function, not just its moments
    from qbm.propagator import build_propagator

    spec = pipeline.spec(0.0)
    grid = 0.01 * np.arange(201)
    coeffs = compute_coefficients(tabulate_kernels(spec, grid))
    bundle = build_propagator(spec, grid, "full", coeffs=coeffs)
    state = qcf.CoherentState(1.0, 0.5)
    rho0 = oracle.to_density_matrix(state, 30)
    traj = oracle.integrate_modes(rho0, coeffs, ["full"])["full"]
    for z in ((0.5, 0.0), (0.8, -0.6), (1.0, 0.8)):
        ana = qcf.evolve_chi(bundle, state, 200, *z)
        orc = oracle.chi_from_rho(traj.rho_final, z)
        # same consistency budget as the keystone moment comparison
        assert abs(ana - orc) < 5e-6
