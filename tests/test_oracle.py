import functools
import os
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from qbm import oracle, qcf, workers
from qbm.coefficients import CoefficientTable, compute_coefficients
from qbm.errors import (
    LeakageError,
    NumericalError,
    StabilityError,
    ValidationError,
)
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.runner import write_algebra_report
from references import TruncationError, chi_from_rho


def zero_coeffs(dt=0.01, t_max=5.0):
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    z = np.zeros_like(grid)
    return CoefficientTable(grid=grid, delta_bar=z, pi=z, r=z, gamma=z, big_gamma=z)


def integrate_all(rho0, coeffs, modes, **kwargs) -> dict:
    """Each mode's trajectory, the ``oracle.integrate`` calls spread as ``qbm run`` spreads them."""
    calls = [(mode, functools.partial(oracle.integrate, rho0, coeffs, mode, **kwargs)) for mode in modes]
    return dict(zip(modes, workers.spread(calls, NumericalError)))


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


def test_fock_operators_bound_the_dimension():
    # the bound is checked before any d x d array is made
    for d in (oracle.MIN_DIMENSION - 1, oracle.MAX_DIMENSION + 1):
        with pytest.raises(ValidationError, match=rf"8 <= d <= 256, not {d}$"):
            oracle.fock_operators(d)


def test_algebra_report_file(tmp_path):
    rep = oracle.algebra_suite(20)
    path = tmp_path / "report.txt"
    write_algebra_report(rep, path)
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
    # every column of L: its action on each matrix unit E_mn, the explicit
    # form taken on two more levels and cropped (the projected equation)
    ops = padded_operators(12)
    gen = oracle.generator({"delta_bar": 0.4, "pi": 0.0, "r": 0.0, "gamma": 0.0}, 12, "rwa")

    def comm(a, b):
        return a @ b - b @ a

    for unit in np.eye(12 * 12, dtype=complex).reshape(-1, 12, 12):
        unit = padded(unit)
        x_part, p_part = comm(ops.x, comm(ops.x, unit)), comm(ops.p, comm(ops.p, unit))
        explicit = (-1j * comm(ops.h0, unit) - 0.2 * (x_part + p_part))[:12, :12]
        assert np.max(np.abs(gen(unit[:12, :12]) - explicit)) < 1e-13


def test_generator_trace_preserving_on_interior_states():
    rng = np.random.default_rng(1)
    rho = np.zeros((16, 16), dtype=complex)
    block = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho[:10, :10] = 0.5 * (block + block.conj().T)
    row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.2, "gamma": 0.05}
    for mode in ("full", "norenorm", "rwa", "unitary"):
        assert abs(np.trace(oracle.generator(row, 16, mode)(rho))) < 1e-10


def test_generator_matches_matrix_free_rhs():
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = 0.5 * (rho + rho.conj().T) / 12.0
    row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.2, "gamma": 0.05}
    for mode in oracle.MODES:
        expected = reference_rhs(rho, *(row[k] for k in COEFFS), mode)
        assert np.max(np.abs(oracle.generator(row, 12, mode)(rho) - expected)) < 1e-13, mode


def test_integration_steps_on_the_generator():
    # one Lawson step of the loop is the same arithmetic on the same matrices
    # as a step built here from ``generator`` without the rotation, bit for
    # bit, for every mode: of dt over the half-step row on two nodes, of 2 dt
    # over node 1 on three.  The loop steps one half of rho: each stage reads
    # the other half as the conjugate of the stepped one, and so does each
    # stage here.  Each product keeps the loop's order of factors: with fused
    # multiply-adds, a complex product may round differently when they swap
    for nodes in (2, 3):
        check_lawson_step_on_the_generator(nodes)


def check_lawson_step_on_the_generator(nodes):
    """The loop's one step on ``nodes`` grid nodes against the step built from ``generator``."""
    grid = 0.01 * np.arange(nodes)
    rows = {
        "delta_bar": (0.3, 0.31, 0.33),
        "pi": (0.1, 0.12, 0.11),
        "r": (0.2, 0.19, 0.22),
        "gamma": (0.05, 0.06, 0.04),
    }
    coeffs = CoefficientTable(
        grid=grid, big_gamma=np.zeros(nodes), **{k: np.array(v[:nodes]) for k, v in rows.items()}
    )
    rho0 = oracle.to_density_matrix(qcf.CoherentState(1.0, 0.5), 12)
    batch = {mode: oracle.integrate(rho0, coeffs, mode) for mode in oracle.MODES}
    node, nxt = ({k: v[i] for k, v in rows.items()} for i in (0, nodes - 1))
    mid = {k: 0.5 * (node[k] + nxt[k]) for k in rows} if nodes == 2 else {k: v[1] for k, v in rows.items()}
    h = grid[-1] - grid[0]
    _, m, n = oracle._Stencil(oracle.fock_operators(12), "full", range(12)).once
    turns = np.subtract.outer(np.arange(12.0), np.arange(12.0))  # m - n
    turn = np.exp(turns * (-0.5j * h))
    back = turn.conj()

    def stepped_half(mat):
        out = np.zeros_like(mat)
        out[n, m] = mat[m, n].conj()
        out[m, n] = mat[m, n]
        return out

    for mode in oracle.MODES:
        g_node, g_mid, g_nxt = (oracle.generator(row, 12, mode, rotation=False) for row in (node, mid, nxt))
        k1 = g_node(rho0)
        k2 = g_mid(stepped_half((0.5 * h * k1 + rho0) * turn))
        rotated = turn * rho0
        k3 = g_mid(stepped_half(0.5 * h * k2 + rotated))
        k4 = g_nxt(stepped_half((h * k3 + rotated) * turn))
        inner = k2 + k3
        rho = ((rho0 + h / 6.0 * k1) * turn + h / 3.0 * inner) * turn + h / 6.0 * k4
        assert np.array_equal(batch[mode].rho_final, stepped_half(rho)), mode
        if nodes == 3:
            middle = rotated + turn * k1 * (5.0 * h / 24.0) + h / 6.0 * inner - back * k4 * (h / 24.0)
            moments = oracle.integrate(stepped_half(middle), head(coeffs, 1), mode)
            for name in MOMENT_NAMES:
                assert getattr(batch[mode], name)[1] == getattr(moments, name)[0], (mode, name)


def test_generator_commutes_with_the_adjoint():
    # L(rho^dag) = L(rho)^dag: the loop steps one Hermitian half of rho and
    # takes the other as its conjugate, which rests on this identity
    rng = np.random.default_rng(3)
    rho = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
    row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.2, "gamma": 0.05}
    for mode in oracle.MODES:
        gen = oracle.generator(row, 14, mode)
        assert np.max(np.abs(gen(rho.conj().T) - gen(rho).conj().T)) <= 1e-13, mode


def nine_offset_rhs(rho, row, mode):
    """L(rho) as the nine-offset ``stencil_table`` at every entry, zero blocks included, in offset order."""
    d = len(rho)
    m, n = np.indices((d, d)).reshape(2, -1)
    table = oracle.stencil_table(oracle.fock_operators(d), mode, m, n).reshape(-1, 9, d, d)
    live = np.flatnonzero(np.any(table != 0, axis=(1, 2, 3)))
    weights = table[live].view(float).reshape(len(live), -1)
    stencil = np.dot(row[live], weights).view(complex).reshape(9, d, d)
    padded = np.pad(rho, 2)
    out = None
    for offset in range(9):  # o = 3 (u + 1) + (v + 1) moves rho_mn by (u + v, u - v)
        u, v = offset // 3 - 1, offset % 3 - 1
        a, b = u + v, u - v
        term = stencil[offset] * padded[2 + a : 2 + a + d, 2 + b : 2 + b + d]
        out = term if out is None else out + term
    return out


def test_stencil_is_built_only_at_the_entries_it_steps():
    # at d = 128 the full mode keeps 7.3 MiB; building the stencil of all d^2
    # entries and trimming it traced 3.3 times that, the stepped entries 1.7
    ops = oracle.fock_operators(128)
    tracemalloc.start()
    try:
        stencil = oracle._Stencil(ops, "full", range(128))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stencil.size == 128 * 129 // 2
    assert peak <= 2 * retained


def test_each_mode_steps_only_its_offsets():
    # rwa moves rho_mn by (0, 0) and (+-1, +-1) only, the v = 0 column of
    # the stencil; full and norenorm move it by all nine offsets
    ops = oracle.fock_operators(12)
    row = np.array([1.0, 0.25, 0.125, 0.5, 0.0625])
    for mode, cells in (("full", (3, 3)), ("norenorm", (3, 3)), ("rwa", (3, 1))):
        stencil = oracle._Stencil(ops, mode, range(12))
        assert stencil.neighbours(stencil.buffer()).shape == (*cells, stencil.size), mode
        assert stencil.at(row).shape == (cells[0] * cells[1], stencil.size), mode
        assert stencil.weights.shape == (len(stencil.live), 2 * cells[0] * cells[1] * stencil.size)


@pytest.mark.parametrize("d", [8, 9, 20, 21, 30, 31])
def test_every_fold_steps_each_entry_of_its_half_and_reads_inside_its_buffer(d):
    # for one parity sector (every other diagonal) and for both (every
    # diagonal), each stepped slot holds an entry of the Hermitian half on
    # those diagonals, each entry once, an odd count's middle diagonal too;
    # each weighted neighbour read is the entry the offset names, and the
    # strided view starts and ends inside the buffer
    ops = oracle.fock_operators(d)
    for diagonals in (range(d), range(0, d, 2), range(1, d, 2)):
        expected = {(n + k, n) for k in diagonals for n in range(d - k)}
        for mode in oracle.MODES:
            stencil = oracle._Stencil(ops, mode, diagonals)
            m, n = np.full(stencil.length, -d), np.full(stencil.length, -d)
            m[stencil.held], n[stencil.held] = stencil.entries
            slots = np.arange(stencil.length)[stencil.stepped]
            assert np.all(m[slots] >= 0), (diagonals, mode)
            pairs, counts = np.unique(
                np.stack([np.maximum(m, n), np.minimum(m, n)])[:, slots], axis=1, return_counts=True
            )
            assert set(zip(*pairs.tolist())) == expected, (diagonals, mode)
            assert np.all(counts == 1), (diagonals, mode)
            assert not np.isin(stencil.ghosts, slots).any(), (diagonals, mode)
            assert np.isin(stencil.mirrors, slots).all(), (diagonals, mode)
            assert np.array_equal(m[stencil.mirrors], n[stencil.ghosts]), (diagonals, mode)
            assert np.array_equal(n[stencil.mirrors], m[stencil.ghosts]), (diagonals, mode)

            buffer = stencil.buffer()
            view = stencil.neighbours(buffer)
            low = view.ctypes.data - buffer.ctypes.data
            high = low + sum((e - 1) * s for e, s in zip(view.shape, view.strides)) + view.itemsize
            assert 0 <= low and high <= buffer.nbytes, (diagonals, mode)
            reads = stencil.neighbours(np.arange(stencil.length))
            weighted = np.any(stencil.weights.view(complex).reshape(-1, *view.shape) != 0, axis=0)
            iu, iv, slot = np.nonzero(weighted)
            read, here = reads[iu, iv, slot], slots[slot]
            # every mode's (u, v) box is all of {-1, 0, 1}, or its middle alone
            u, v = (i - (extent // 2) for i, extent in zip((iu, iv), stencil.cells))
            assert np.array_equal(m[read], m[here] + u + v), (diagonals, mode)
            assert np.array_equal(n[read], n[here] + u - v), (diagonals, mode)


def test_generator_is_the_nine_offset_stencil_bit_for_bit():
    # dropping the offsets a mode never uses drops only terms that are
    # exactly zero.  The row is dyadic and every entry of rho is real or
    # imaginary, +- a power of two, so each product is exact and the
    # comparison does not depend on how the platform fuses multiply-adds.
    # The generator reads the stepped half of L(rho) off rho and the other
    # half off rho^dag, both on the stencil of the loop
    rng = np.random.default_rng(4)
    d = 12
    unit = rng.choice([1.0, -1.0, 1j, -1j], size=(d, d))
    rho = unit * 2.0 ** rng.integers(-3, 4, size=(d, d))
    coeffs = {"delta_bar": 0.25, "pi": 0.125, "r": 0.5, "gamma": 0.0625}
    row = np.array([1.0] + [coeffs[k] for k in oracle.WEIGHTS[1:]])
    _, m, n = oracle._Stencil(oracle.fock_operators(d), "full", range(d)).once
    for mode in oracle.MODES:
        got = oracle.generator(coeffs, d, mode)(rho)
        stepped, mirrored = nine_offset_rhs(rho, row, mode), nine_offset_rhs(rho.conj().T, row, mode)
        assert got[m, n].tobytes() == stepped[m, n].tobytes(), mode
        off = m != n
        assert got[n[off], m[off]].tobytes() == mirrored[m[off], n[off]].conj().tobytes(), mode


def benchmark_coeffs(dt, t_max):
    """The benchmark bath at T = 0 (alpha = 0.1, wc = 5) on steps of dt to t_max."""
    grid = dt * np.arange(int(round(t_max / dt)) + 1)
    return compute_coefficients(tabulate_kernels(ReservoirSpec("ohmic_exp_cutoff", alpha=0.1), grid))


@pytest.mark.parametrize("d", [10, 30])
def test_generator_has_no_growing_mode_at_late_coefficients(d):
    # products of d-level truncations gave the top level an eigenvalue of +2 gamma
    # (2.57e-2 here) in every mode; the projected equation has none
    coeffs = benchmark_coeffs(0.01, 50.0)
    row = {k: getattr(coeffs, k)[-1] for k in COEFFS}
    units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
    # L keeps the parity of m + n, so its spectrum is that of the two sectors
    parity = np.add.outer(np.arange(d), np.arange(d)).ravel() % 2
    sectors = [np.flatnonzero(parity == s) for s in (0, 1)]
    for mode in ("full", "norenorm", "rwa"):
        gen = oracle.generator(row, d, mode)
        matrix = np.stack([gen(unit).ravel() for unit in units], axis=1)
        for sector in sectors:
            block = matrix[np.ix_(sector, sector)]
            assert np.linalg.eigvals(block).real.max() <= 1e-12, mode


def test_generator_unknown_mode():
    with pytest.raises(ValidationError):
        oracle.generator({}, 10, "lindblad")


# --- integration -----------------------------------------------------------


def test_free_evolution_rotates_coherent_state():
    coeffs = zero_coeffs(t_max=5.0)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=1.0), 30)
    traj = oracle.integrate(rho0, coeffs, "full")
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


def test_vacuum_stays_in_a_small_basis_over_a_long_run():
    # the growing top-level mode of truncated products stopped this run on the
    # leakage guard at t = 1480.1; the loop steps 2 dt = 0.2 with the rotation exact
    rho0 = oracle.to_density_matrix(qcf.CoherentState(), 20)
    traj = oracle.integrate(rho0, benchmark_coeffs(0.1, 1500.0), "full")
    assert traj.grid[-1] == 1500.0
    assert traj.max_leakage <= 1e-20


def heated_coeffs(delta_bar=5.0):
    """Diffusion strong enough to heat the d = 12 vacuum out of its basis within t = 0.2."""
    coeffs = zero_coeffs(t_max=0.2)
    return CoefficientTable(
        grid=coeffs.grid,
        delta_bar=np.full_like(coeffs.grid, delta_bar),
        pi=coeffs.pi,
        r=coeffs.r,
        gamma=coeffs.gamma,
        big_gamma=coeffs.big_gamma,
    )


def test_leakage_abort_suggests_bigger_dimension():
    coeffs = zero_coeffs(t_max=0.2)
    rho0 = oracle.to_density_matrix(qcf.CoherentState(x0=4.2), 12)
    with pytest.raises(LeakageError, match=r"increase oracle\.dimension beyond 12$"):
        oracle.integrate(rho0, coeffs, "full")
    # strong diffusion heats the vacuum out of the basis in rwa while the
    # unitary mode leaves it in place: the abort names rwa
    heated = heated_coeffs()
    vacuum = oracle.to_density_matrix(qcf.CoherentState(), 12)
    with pytest.raises(LeakageError, match=r"mode 'rwa'.*t=.*beyond 12"):
        oracle.integrate(vacuum, heated, "rwa")
    assert oracle.integrate(vacuum, heated, "unitary").max_leakage < 1e-20
    # a NaN leakage trips the initial check instead of slipping past ``>``
    with pytest.raises(LeakageError, match="initial state"):
        oracle.integrate(np.full((12, 12), np.nan), coeffs, "full")


def test_initial_leakage_check_names_the_dimension():
    leaky = oracle.to_density_matrix(qcf.CoherentState(x0=4.5), 10)
    message = r"initial state already leaks .* d=10 basis.*; increase oracle\.dimension beyond 10$"
    with pytest.raises(LeakageError, match=message):
        oracle.check_initial_leakage(leaky)
    with pytest.raises(LeakageError, match=message):
        oracle.integrate(leaky, zero_coeffs(t_max=0.1), "full")
    with pytest.raises(LeakageError, match="initial state"):
        oracle.check_initial_leakage(np.full((10, 10), np.nan))
    oracle.check_initial_leakage(oracle.to_density_matrix(qcf.CoherentState(), 10))
    oracle.check_initial_leakage(leaky, leakage_threshold=1.0)


def test_blow_up_within_the_step_limit_asks_for_a_smaller_step():
    # the rotation is exact at any step, but delta_bar = 1e3 makes rho grow
    # without bound at h = 0.02 and d = 12.  From x0 = 1 the top levels
    # read -22.5 at the first node, t = 0.01, the midpoint of the first
    # step: more than the whole trace.  From the vacuum they read 3.8e24 by
    # t = 0.05, and the guard reads the magnitude.  Neither is truncation,
    # so a larger d is no remedy
    blown = heated_coeffs(delta_bar=1e3)
    for x0, when in ((1.0, "t=0.01;"), (0.0, "t=0.05;")):
        rho0 = oracle.to_density_matrix(qcf.CoherentState(x0), 12)
        message = str(leakage_error(rho0, blown, ["full"]))
        assert when in message, message
        assert "coefficients reach 1e+03" in message and "lower grid.dt" in message
        assert "oracle.dimension" not in message


def test_remedy_tells_the_three_causes_of_an_abort():
    # the rotation is exact, so no step is past a limit on it: truncation,
    # an equation that lost positivity, or coefficients too large for the step
    rows = lambda coefficient: np.array([[1.0, coefficient, 0.0, 0.0, 0.0]])
    assert oracle._remedy(12, 0.01, "rwa") == "increase oracle.dimension beyond 12"
    # a blow-up at coefficient * (d - 1) * h = 0.55: the step cannot have done it
    assert oracle._remedy(12, 0.01, "rwa", rows(5.0)) == (
        "the step h=0.01 lies inside RK4's limit at d=12 and coefficients up to 5, "
        "so the rwa equation itself lost positivity; reservoir.alpha, reservoir.wc, "
        "reservoir.temperature and grid.t_max move that, or leave rwa out of run.modes"
    )
    # at 1.1 it can
    blown = oracle._remedy(12, 0.01, "rwa", rows(10.0))
    assert "coefficients reach 10, too large for the step h=0.01; lower grid.dt" in blown


def leakage_error(rho0, coeffs, modes) -> LeakageError:
    with pytest.raises(LeakageError) as caught:
        integrate_all(rho0, coeffs, modes)
    return caught.value


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_raises_the_first_listed_failure(monkeypatch, cpus):
    # full leaks at t = 0.05 and rwa at t = 0.06; whichever is listed first
    # is raised, stepped in this process or not, however early the other leaks
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    heated = heated_coeffs()
    vacuum = oracle.to_density_matrix(qcf.CoherentState(), 12)
    full, rwa = (leakage_error(vacuum, heated, [mode]) for mode in ("full", "rwa"))
    assert "t=0.05" in str(full) and "t=0.06" in str(rwa)
    for modes, first in ((("rwa", "full"), rwa), (("full", "rwa"), full)):
        batch = leakage_error(vacuum, heated, modes)
        assert type(batch) is LeakageError and str(batch) == str(first), modes
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_trajectory_is_an_observable_series(monkeypatch):
    # the forked full trajectory comes back pickled, with the energy its
    # child computed
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    rho0 = oracle.to_density_matrix(qcf.SqueezedVacuum(0.5), 20)
    for traj in integrate_all(rho0, zero_coeffs(t_max=0.2), ("full", "rwa")).values():
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


# the references take every product on PAD more levels than the basis, with
# rho zero-padded, and crop the result: the master equation projected onto
# the basis, exact on each entry whose neighbours lie in it
PAD = 2


@functools.lru_cache
def padded_operators(d):
    """X and P on d + PAD levels, and their products formed there."""
    a = np.diag(np.sqrt(np.arange(1, d + PAD, dtype=float)), 1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    x2, p2 = x @ x, p @ p
    return SimpleNamespace(x=x, p=p, x2=x2, p2=p2, xppx=x @ p + p @ x, h0=0.5 * (x2 + p2))


def padded(rho):
    """``rho`` zero-padded by PAD levels."""
    return np.pad(rho, ((0, PAD), (0, PAD)))


def reference_rhs(rho, dbar, piv, r, gam, mode, rotation=True):
    """The master equation in commutator form, each superoperator spelled out, projected.

    Without ``rotation`` the free term -i[(X^2 + P^2)/2, rho] is left out.
    """
    d = len(rho)
    ops = padded_operators(d)
    rho = padded(rho)
    h = ops.h0 if rotation else np.zeros_like(ops.h0)
    if mode in ("full", "unitary"):
        h = h - 0.5 * r * ops.x2 + 0.5 * gam * ops.xppx
    out = -1j * (h @ rho - rho @ h)
    if mode == "unitary":
        return out[:d, :d]
    x, p = ops.x, ops.p
    cx = x @ rho - rho @ x
    cp = p @ rho - rho @ p
    if mode == "rwa":
        out -= 0.5 * dbar * ((x @ cx - cx @ x) + (p @ cp - cp @ p))
    else:
        out -= dbar * (x @ cx - cx @ x) - piv * (x @ cp - cp @ x)
    n_rho = -0.5j * ((p @ cx + cx @ p) - (x @ cp + cp @ x))
    out += gam * (n_rho + 2.0 * rho)
    return out[:d, :d]


def reference_integrate(rho, coeffs, mode, n):
    """One mode, one matrix at a time: Lawson's RK4 of 2 dt on the table's nodes, n - 1 even.

    The free rotation is the elementwise phase exp(-i(m - n) h/2); RK4's
    continuous extension gives rho at each step's midpoint node.
    """
    t = coeffs.grid
    node = np.array([getattr(coeffs, k)[:n] for k in COEFFS])
    d, ops = len(rho), padded_operators(len(rho))
    turns = np.subtract.outer(np.arange(d), np.arange(d))  # m - n

    def rest(rho, i):
        return reference_rhs(rho, *node[:, i], mode, rotation=False)

    # the moments of the padded rho: each operator formed on d + PAD levels, cropped
    traced = [op[:d, :d] for op in (ops.x, ops.p, ops.x2, ops.p2, ops.xppx)]
    moments = np.empty((len(traced), n))
    moments[:, 0] = [np.trace(a @ rho).real for a in traced]
    for i in range(0, n - 1, 2):
        h = t[i + 2] - t[i]
        e = np.exp(-0.5j * h * turns)
        k1 = rest(rho, i)
        k2 = rest(e * (rho + 0.5 * h * k1), i + 1)
        k3 = rest(e * rho + 0.5 * h * k2, i + 1)
        k4 = rest(e * (e * rho + h * k3), i + 2)
        middle = e * rho + h * (5.0 / 24.0 * e * k1 + (k2 + k3) / 6.0 - k4 / (24.0 * e))
        rho = e * e * rho + (h / 6.0) * (e * e * k1 + 2.0 * e * (k2 + k3) + k4)
        moments[:, i + 1] = [np.trace(a @ middle).real for a in traced]
        moments[:, i + 2] = [np.trace(a @ rho).real for a in traced]
    return moments, rho


# coherent x0 = 2 occupies both parity sectors of m + n; the Fock and the
# squeezed vacuum occupy the even one only, so the loop steps half the entries.
# The loop folds the diagonals k >= 0 it steps in pairs, an odd count's middle
# one with itself: both sectors have 30 diagonals at d = 30, 20 at d = 20 and
# 21 at d = 21, the even one alone 15, 10 and 11
@pytest.mark.parametrize(
    "state_name, sectors, d",
    [
        ("coherent2", ("even", "odd"), 30),
        ("fock2", ("even",), 30),
        ("squeezed05", ("even",), 30),
        ("coherent2", ("even", "odd"), 20),
        ("squeezed05", ("even",), 20),
        ("coherent2", ("even", "odd"), 21),
        ("squeezed05", ("even",), 21),
    ],
    ids=["coherent2", "fock2", "squeezed05", "coherent2_d20", "squeezed05_d20", "coherent2_d21", "squeezed05_d21"],
)
def test_batched_modes_match_reference_and_single_runs(pipeline, state_name, sectors, d):
    n = 301
    coeffs = pipeline.coeffs(2.0)
    rho0 = oracle.to_density_matrix(pipeline.state(state_name), d)
    # the squeezed vacuum puts 1e-6 into the top levels of d = 20 by t = 0.96;
    # the smaller bases check the fold, not the truncation
    threshold = 1e-6 if d == 30 else 1e-4
    batch = integrate_all(rho0, head(coeffs, n), oracle.MODES, leakage_threshold=threshold)
    odd = np.add.outer(np.arange(d), np.arange(d)) % 2 == 1
    for mode, traj in batch.items():
        assert traj.sectors == sectors, mode
        moments, rho_final = reference_integrate(rho0, coeffs, mode, n)
        for name, ref in zip(MOMENT_NAMES, moments):
            assert np.max(np.abs(getattr(traj, name) - ref)) <= 1e-12, (mode, name)
        assert np.max(np.abs(traj.rho_final - rho_final)) <= 1e-12, mode
        if sectors == ("even",):
            assert np.all(traj.rho_final[odd] == 0.0), mode
            assert np.all(traj.mean_x == 0.0) and np.all(traj.mean_p == 0.0), mode
        single = oracle.integrate(rho0, head(coeffs, n), mode, leakage_threshold=threshold)
        for guard in ("trace_error", "herm_drift", "max_leakage"):
            assert getattr(traj, guard) == getattr(single, guard), (mode, guard)
        for name in MOMENT_NAMES + ("energy", "rho_final"):
            assert np.array_equal(getattr(traj, name), getattr(single, name)), (mode, name)
        assert traj.herm_drift <= 1e-10
        assert traj.herm_drift == np.abs(traj.rho_final - traj.rho_final.conj().T).max()


@pytest.mark.parametrize("state_name", ["coherent2", "fock2"])
def test_forked_groups_match_one_loop(pipeline, monkeypatch, state_name):
    # with two usable CPUs the last mode is stepped here and each other one
    # in a forked child; the trajectories are bit for bit those of the loops
    # run in turn
    coeffs = head(pipeline.coeffs(2.0), 301)
    rho0 = oracle.to_density_matrix(pipeline.state(state_name), 30)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        runs[cpus] = integrate_all(rho0, coeffs, oracle.MODES)
        with pytest.raises(ChildProcessError):  # every child has been reaped
            os.waitpid(-1, os.WNOHANG)
    for mode in oracle.MODES:
        one, forked = runs[1][mode], runs[2][mode]
        for name in MOMENT_NAMES + ("energy", "rho_final"):
            assert np.array_equal(getattr(one, name), getattr(forked, name)), (mode, name)
        for name in ("trace_error", "herm_drift", "max_leakage", "sectors"):
            assert getattr(one, name) == getattr(forked, name), (mode, name)
    # a single mode is stepped in this process: nothing is forked
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a one-mode run forked"))
    assert integrate_all(rho0, coeffs, ["rwa"])["rwa"].sectors == runs[2]["rwa"].sectors


def test_integrate_rejects_a_rho0_that_is_not_hermitian():
    # the loop steps one Hermitian half of rho, so it must not be handed
    # another; the error gives the measured drift
    rho0 = oracle.to_density_matrix(qcf.CoherentState(1.0, 0.5), 12)
    skewed = rho0.copy()
    skewed[3, 1] += 2e-9
    with pytest.raises(ValidationError, match=r"not Hermitian: max\|rho0 - rho0\^dag\| = 2\.00e-09"):
        oracle.integrate(skewed, zero_coeffs(t_max=0.1), "full")
    within = rho0.copy()
    within[3, 1] += 5e-13
    oracle.integrate(within, zero_coeffs(t_max=0.1), "full")
    # every state the config builds is Hermitian to rounding
    for state in (qcf.CoherentState(1.2, -0.8), qcf.ThermalState(0.5), qcf.FockState(4), qcf.SqueezedVacuum(0.5, 0.7)):
        rho = oracle.to_density_matrix(state, 30)
        assert np.abs(rho - rho.conj().T).max() <= 1e-16, state
        oracle.integrate(rho, zero_coeffs(t_max=0.02), "rwa")


def test_integrate_rejects_an_unknown_mode():
    rho0 = oracle.to_density_matrix(qcf.CoherentState(), 10)
    with pytest.raises(ValidationError, match="unknown oracle mode 'lindblad'"):
        oracle.integrate(rho0, zero_coeffs(t_max=0.1), "lindblad")


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
        traj = oracle.integrate(rho, head(coeffs, 1), "full")
        m = qcf.observable_series(free, state)
        for name in MOMENT_NAMES:
            expected = pytest.approx(getattr(m, name)[0], abs=1e-7)
            assert getattr(traj, name)[0] == expected, (state, name)


def build_free_bundle():
    from qbm.propagator import build_propagator

    grid = 0.01 * np.arange(11)
    free = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
    return build_propagator(compute_coefficients(tabulate_kernels(free, grid)), "full")


def test_tabulated_chi_has_no_fock_representation():
    nodes = np.linspace(-3.0, 3.0, 31)
    vals = np.exp(-(nodes[:, None] ** 2 + nodes[None, :] ** 2) / 4.0).astype(complex)
    tab = qcf.TabulatedChi(nodes, nodes, vals)
    with pytest.raises(ValidationError, match="remove oracle from run.modes$"):
        oracle.to_density_matrix(tab, 20)


def test_fock_level_must_leave_the_interior_margin_free():
    assert oracle.to_density_matrix(qcf.FockState(24), 30)[24, 24] == 1.0
    with pytest.raises(ValidationError, match=r"level 25 .* oracle\.dimension >= 31$"):
        oracle.to_density_matrix(qcf.FockState(25), 30)


# --- chi from rho ----------------------------------------------------------


def test_chi_from_rho_normalization_and_vacuum():
    rho = oracle.to_density_matrix(qcf.CoherentState(), 40)
    assert chi_from_rho(rho, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert chi_from_rho(rho, (1.0, 1.0)) == pytest.approx(
        np.exp(-0.5), abs=1e-8
    )


def test_chi_from_rho_hermiticity():
    rho = oracle.to_density_matrix(qcf.CoherentState(0.9, 0.4), 40)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(scale=1.0, size=2)
        a = chi_from_rho(rho, z)
        b = chi_from_rho(rho, -z)
        assert abs(a - np.conj(b)) < 1e-12


def test_chi_from_rho_truncation_guard():
    rho = oracle.to_density_matrix(qcf.CoherentState(), 10)
    with pytest.raises(TruncationError):
        chi_from_rho(rho, (4.0, 4.0))


def test_chi_from_rho_matches_analytic_fock():
    rho = oracle.to_density_matrix(qcf.FockState(1), 40)
    val = chi_from_rho(rho, (1.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-10)


# --- cross-validation of the evolved chi -----------------------------------


def test_evolved_chi_matches_oracle_pointwise(pipeline):
    # the evolved characteristic function, not just its moments
    from qbm.propagator import build_propagator

    spec = pipeline.spec(0.0)
    grid = 0.01 * np.arange(201)
    coeffs = compute_coefficients(tabulate_kernels(spec, grid))
    bundle = build_propagator(coeffs, "full")
    state = qcf.CoherentState(1.0, 0.5)
    rho0 = oracle.to_density_matrix(state, 30)
    traj = oracle.integrate(rho0, coeffs, "full")
    for z in ((0.5, 0.0), (0.8, -0.6), (1.0, 0.8)):
        ana = qcf.evolve_chi(bundle, state, 200, *z)
        orc = chi_from_rho(traj.rho_final, z)
        # same consistency budget as the keystone moment comparison
        assert abs(ana - orc) < 5e-6
