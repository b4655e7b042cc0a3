import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import qcf
from qbm.coefficients import compute_coefficients
from qbm.errors import DomainTooSmallError, NumericalError, ValidationError
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import build_propagator
from references import wigner_full_grid

OHMIC = ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)
FREE = ReservoirSpec("ohmic_exp_cutoff", alpha=0.0, wc=5.0)
MOMENT_NAMES = ("mean_x", "mean_p", "xx", "pp", "xp_sym")


def fd_moments(bundle, state, t):
    """{name: moment} at node t from 4th-order central differences of chi_t (the reference)."""
    m = qcf._moments_fd(lambda x, p: qcf.evolve_chi(bundle, state, t, x, p), 1e-4)
    return dict(zip(MOMENT_NAMES, qcf._moment_columns(m.b, m.c)))


@pytest.fixture(scope="module")
def grids():
    return 0.01 * np.arange(1001)


@pytest.fixture(scope="module")
def bundles(grids):
    coeffs = compute_coefficients(tabulate_kernels(OHMIC, grids))
    return {mode: build_propagator(coeffs, mode) for mode in ("full", "norenorm", "rwa")}


@pytest.fixture(scope="module")
def free_bundle(grids):
    return build_propagator(compute_coefficients(tabulate_kernels(FREE, grids)), "full")


# --- chi0 values ---------------------------------------------------------


def test_chi0_normalization_is_exact():
    states = [
        qcf.CoherentState(1.3, -0.4),
        qcf.ThermalState(2.0),
        qcf.SqueezedVacuum(0.7, 0.3),
        qcf.FockState(3),
    ]
    for state in states:
        assert state.chi0(0.0, 0.0) == 1.0 + 0.0j


def test_vacuum_chi_value():
    assert qcf.CoherentState().chi0(1.0, 1.0) == pytest.approx(
        np.exp(-0.5), abs=1e-15
    )


def test_fock1_laguerre_zero():
    # chi of |1> vanishes where L_1(|z|^2 / 2) does, i.e. |z|^2 = 2
    assert qcf.FockState(1).chi0(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_laguerre_is_bit_identical_to_scipy():
    from scipy.special import eval_laguerre

    axis = np.linspace(-8.0, 8.0, 481)
    mesh = (axis[:, None] ** 2 + axis[None, :] ** 2) / 2.0
    draws = np.random.default_rng(7).uniform(0.0, 200.0, 20000)
    for n in range(13):
        for u in (mesh, draws):
            assert np.array_equal(qcf.laguerre(n, u), eval_laguerre(n, u)), n


def test_coherent_phase_convention():
    val = qcf.CoherentState(x0=2.0).chi0(0.0, 0.5)
    assert val == pytest.approx(np.exp(-0.25 / 4.0) * np.exp(1j * 1.0), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-3, 3),
    p=st.floats(-3, 3),
    nbar=st.floats(0, 3),
)
def test_thermal_chi_is_gaussian(x, p, nbar):
    val = qcf.ThermalState(nbar).chi0(x, p)
    assert val == pytest.approx(np.exp(-(2 * nbar + 1) * (x * x + p * p) / 4), abs=1e-12)


def test_hermiticity_symmetry_at_random_points(bundles):
    rng = np.random.default_rng(11)
    for state in (qcf.CoherentState(1.2, 0.7), qcf.FockState(2), qcf.SqueezedVacuum(0.5, 0.4)):
        for _ in range(100):
            z = rng.normal(scale=1.5, size=2)
            t = int(rng.integers(0, 1000))
            a = qcf.evolve_chi(bundles["full"], state, t, *z)
            b = qcf.evolve_chi(bundles["full"], state, t, *-z)
            assert abs(a - np.conj(b)) <= 1e-12


# --- evolution -----------------------------------------------------------


def test_evolution_normalization_exact(bundles):
    for mode, bundle in bundles.items():
        for t in (0, 137, 999):
            assert qcf.evolve_chi(bundle, qcf.CoherentState(2.0), t, 0.0, 0.0) == 1.0 + 0.0j


def test_evolve_chi_rejects_non_finite_arguments(bundles):
    state = qcf.CoherentState(2.0)
    with pytest.raises(ValidationError, match="finite"):
        qcf.evolve_chi(bundles["full"], state, 10, np.nan, 0.0)
    with pytest.raises(ValidationError, match="finite"):
        qcf.evolve_chi(bundles["full"], state, 10, np.zeros((3, 1)), np.array([[0.0, np.inf]]))


def test_t0_returns_initial_chi(bundles):
    state = qcf.CoherentState(0.8, -1.1)
    for z in ((0.3, 0.4), (-1.0, 2.0)):
        assert qcf.evolve_chi(bundles["full"], state, 0, *z) == pytest.approx(
            state.chi0(*z), abs=1e-14
        )


def test_free_evolution_is_pure_rotation(free_bundle):
    state = qcf.CoherentState(1.0, 0.0)
    t = 400
    angle = free_bundle.grid[t]
    z = np.array([0.7, -0.2])
    rot = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    expected = state.chi0(*(np.linalg.inv(rot) @ z))
    assert qcf.evolve_chi(free_bundle, state, t, *z) == pytest.approx(expected, abs=1e-8)


def test_gaussian_closure(bundles):
    # evolving the Gaussian parameters and re-evaluating chi must equal the
    # direct evolution pointwise
    rng = np.random.default_rng(5)
    state = qcf.SqueezedVacuum(0.6, 0.9)
    for t in (0, 250, 777):
        b_t, c_t = qcf.evolve_moments(bundles["full"], state.initial_moments, slice(t, t + 1))
        for _ in range(20):
            z = rng.normal(scale=1.2, size=2)
            quad = z @ c_t[0] @ z
            recon = np.exp(1j * (b_t[0] @ z) - 0.5 * quad)
            direct = qcf.evolve_chi(bundles["full"], state, t, *z)
            assert abs(recon - direct) < 1e-12


def test_memory_loss_argument_contraction(bundles):
    # rotation modes: the initial-state factor's argument norm is exactly
    # e^{-Gamma/2} |z|
    bundle = bundles["rwa"]
    z = np.array([1.1, -0.3])
    for t in (100, 500, 1000):
        scale = np.exp(-0.5 * bundle.big_gamma[t])
        arg = scale * (bundle.rotations_inv[t] @ z)
        assert np.linalg.norm(arg) == pytest.approx(scale * np.linalg.norm(z), rel=1e-12)


# --- moments -------------------------------------------------------------


def test_coherent_moment_anchors(bundles):
    m = qcf.observable_series(bundles["full"], qcf.CoherentState(x0=2.0))
    assert m.mean_x[0] == pytest.approx(2.0, abs=1e-14)
    assert m.mean_p[0] == pytest.approx(0.0, abs=1e-14)
    assert m.xx[0] == pytest.approx(4.5, abs=1e-14)
    assert m.pp[0] == pytest.approx(0.5, abs=1e-14)
    assert m.xp_sym[0] == pytest.approx(0.0, abs=1e-14)


def test_thermal_moment_anchors(bundles):
    m = qcf.observable_series(bundles["full"], qcf.ThermalState(1.0))
    assert m.xx[0] == pytest.approx(1.5, abs=1e-14)
    assert m.pp[0] == pytest.approx(1.5, abs=1e-14)


def test_free_coherent_rotates(free_bundle):
    series = qcf.observable_series(free_bundle, qcf.CoherentState(x0=2.0))
    expected = 2.0 * np.cos(free_bundle.grid)
    assert np.max(np.abs(series.mean_x - expected)) < 1e-7


def test_fd_moments_match_gaussian_path(bundles):
    state = qcf.CoherentState(1.5, -0.5)
    closed = qcf.observable_series(bundles["full"], state)
    for t in (0, 300, 900):
        fd = fd_moments(bundles["full"], state, t)
        for name in MOMENT_NAMES:
            assert fd[name] == pytest.approx(getattr(closed, name)[t], abs=5e-8)


@pytest.mark.parametrize("temperature", (0.0, 2.0))
@pytest.mark.parametrize("n", (1, 3))
def test_fock_moment_map_matches_finite_differences(pipeline, n, temperature):
    # the affine map is exact for non-Gaussian states too: it must agree with
    # differentiating chi_t itself, to the stencil's truncation error
    state = qcf.FockState(n)
    for mode in ("full", "norenorm", "rwa"):
        bundle = pipeline.bundle(temperature, mode)
        series = qcf.observable_series(bundle, state)
        for t in range(0, len(bundle), 50):
            fd = fd_moments(bundle, state, t)
            for name in MOMENT_NAMES:
                expected = pytest.approx(getattr(series, name)[t], abs=1e-7)
                assert fd[name] == expected, (mode, t, name)


def test_fock_moments_match_number_expectation(bundles):
    m = qcf.observable_series(bundles["full"], qcf.FockState(2))
    assert m.mean_x[0] == pytest.approx(0.0, abs=1e-9)
    assert m.xx[0] == pytest.approx(2.5, abs=1e-7)  # n + 1/2
    assert m.pp[0] == pytest.approx(2.5, abs=1e-7)


def test_variance_floor_guard():
    with pytest.raises(NumericalError, match=r"<X\^2> = 3\.9 < <X>\^2 = 4\.0 at t=0,"):
        qcf.ObservableSeries(
            grid=np.array([0.0]),
            mean_x=np.array([2.0]),
            mean_p=np.array([0.0]),
            xx=np.array([3.9]),
            pp=np.array([0.5]),
            xp_sym=np.array([0.0]),
        )
    # the first t that fails is named, whichever observable fails there
    with pytest.raises(NumericalError, match=r"<P\^2> = 0\.5 < <P>\^2 = 1\.0 at t=0\.5,"):
        qcf.ObservableSeries(
            grid=np.array([0.0, 0.5, 1.0]),
            mean_x=np.array([0.0, 0.0, 2.0]),
            mean_p=np.array([0.0, 1.0, 0.0]),
            xx=np.array([0.5, 0.5, 0.5]),
            pp=np.array([0.5, 0.5, 0.5]),
            xp_sym=np.zeros(3),
        )


def test_imaginary_residue_guard():
    # a chi with broken symmetry must be rejected by the derivative map
    broken = lambda x, p: np.exp(1j * (x + p) ** 2)
    with pytest.raises(NumericalError, match="convention"):
        qcf._moments_fd(broken, 1e-4)
    # through a table: an even imaginary part next to the origin stays inside
    # the 1e-9 node-symmetry tolerance but leaves a residue in <P^2>
    nodes = np.linspace(-2.0, 2.0, 81)
    vals = qcf.CoherentState().chi0(nodes[:, None], nodes[None, :])
    vals[39, 40] += 4e-10j
    vals[41, 40] += 4e-10j
    with pytest.raises(NumericalError, match="convention"):
        qcf.TabulatedChi(nodes, nodes, vals)


# --- energy --------------------------------------------------------------


def closed_energy(bundle, state):
    """The closed-form energy law with the bundle's own delta_gamma = tr Wbar."""
    e0 = qcf.observable_series(bundle, state).energy[0]
    return qcf.closed_form_energy(bundle.big_gamma, e0, bundle.delta_gamma)


def test_initial_energy_values(bundles):
    for state, e0 in (
        (qcf.CoherentState(x0=2.0), 2.5),
        (qcf.ThermalState(1.0), 1.5),
        (qcf.FockState(3), 3.5),
    ):
        assert closed_energy(bundles["rwa"], state)[0] == pytest.approx(e0, abs=1e-12)


def test_closed_form_equals_moment_energy_in_rwa(bundles):
    state = qcf.CoherentState(x0=2.0)
    series = qcf.observable_series(bundles["rwa"], state)
    closed = closed_energy(bundles["rwa"], state)
    assert np.max(np.abs(series.energy - closed)) < 1e-8


def test_norenorm_energy_equals_rwa_energy(bundles):
    state = qcf.ThermalState(1.0)
    e_nr = closed_energy(bundles["norenorm"], state)
    e_rwa = closed_energy(bundles["rwa"], state)
    assert np.max(np.abs(e_nr - e_rwa)) < 1e-8


# --- moment gaps ---------------------------------------------------------


def test_gaps_zero_for_zero_coupling(grids):
    bundle = build_propagator(compute_coefficients(tabulate_kernels(FREE, grids)), "norenorm")
    assert np.all(bundle.lam == 0.0) and np.all(bundle.theta == 0.0)


def test_gaps_track_moment_differences(bundles):
    # the counter-rotating terms shift the second moments of a norenorm
    # bundle from the rwa ones by (-lambda, +lambda, -2 theta)
    state = qcf.ThermalState(1.0)
    s_nr = qcf.observable_series(bundles["norenorm"], state)
    s_rwa = qcf.observable_series(bundles["rwa"], state)
    lam, theta = bundles["norenorm"].lam, bundles["norenorm"].theta
    for t in (150, 600, 1000):
        assert s_nr.xx[t] - s_rwa.xx[t] == pytest.approx(-lam[t], abs=1e-8)
        assert s_nr.pp[t] - s_rwa.pp[t] == pytest.approx(lam[t], abs=1e-8)
        assert s_nr.xp_sym[t] - s_rwa.xp_sym[t] == pytest.approx(-2.0 * theta[t], abs=1e-8)


def test_full_vs_norenorm_difference_scales_as_alpha_squared():
    def deviation(alpha):
        spec = ReservoirSpec("ohmic_exp_cutoff", alpha=alpha, wc=5.0)
        grid = 0.01 * np.arange(501)
        coeffs = compute_coefficients(tabulate_kernels(spec, grid))
        full = build_propagator(coeffs, "full")
        norenorm = build_propagator(coeffs, "norenorm")
        state = qcf.CoherentState(x0=2.0)
        s_f = qcf.observable_series(full, state)
        s_n = qcf.observable_series(norenorm, state)
        return np.max(np.abs(s_f.mean_x - s_n.mean_x))

    assert deviation(0.1) / deviation(0.05) == pytest.approx(4.0, rel=0.15)


def test_chi_stays_bounded_by_one():
    rng = np.random.default_rng(17)
    for state in (
        qcf.CoherentState(1.0, -2.0),
        qcf.ThermalState(0.5),
        qcf.SqueezedVacuum(1.0, 1.1),
        qcf.FockState(4),
    ):
        z = rng.normal(scale=2.0, size=(200, 2))
        vals = np.abs(state.chi0(z[:, 0], z[:, 1]))
        assert np.max(vals) <= 1.0 + 1e-12


# --- tabulated chi -------------------------------------------------------


def make_tabulated_coherent(x0=0.5, extent=12.0, n=241):
    nodes = np.linspace(-extent, extent, n)
    ref = qcf.CoherentState(x0=x0)
    vals = ref.chi0(nodes[:, None], nodes[None, :])
    return qcf.TabulatedChi(nodes, nodes, vals), ref


def test_tabulated_chi_matches_at_nodes():
    tab, ref = make_tabulated_coherent()
    for z in ((0.0, 0.0), (0.1, -0.2), (1.0, 1.0)):
        assert tab.chi0(*z) == pytest.approx(ref.chi0(*z), abs=5e-3)
    assert tab.chi0(0.0, 0.0) == 1.0 + 0.0j


def test_tabulated_chi_out_of_range():
    tab, _ = make_tabulated_coherent(extent=4.0, n=81)
    assert not tab.zero_outside
    with pytest.raises(ValidationError):
        tab.chi0(5.0, 0.0)
    # |chi| <= e^-36 on the boundary of [-12, 12]^2, below the Wigner decay
    # tolerance: the table stands for chi = 0 outside it
    tab, _ = make_tabulated_coherent()
    assert tab.zero_outside
    assert tab.chi0(13.0, 0.0) == 0.0 and tab.chi0(-5.0, 20.0) == 0.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            tab.chi0(bad, 0.0)


def test_wigner_refuses_a_chi_table_narrower_than_its_z_grid(free_bundle):
    # the first z-grid reaches |z| = 8 sqrt 2 in its corners
    axis = np.linspace(-2.0, 2.0, 11)
    tab, _ = make_tabulated_coherent(extent=4.0, n=81)
    message = r"reaches only \|x\|, \|p\| <= 4, .* or set wigner\.enabled = false$"
    with pytest.raises(ValidationError, match=message):
        qcf.check_wigner_reach(tab)
    with pytest.raises(ValidationError, match=message):
        qcf.wigner(free_bundle, tab, 0, axis, axis)
    qcf.check_wigner_reach(make_tabulated_coherent(extent=12.0)[0])  # decayed: chi = 0 outside
    # a strongly squeezed chi has not decayed at 11.4, just past 8 sqrt 2
    nodes = np.linspace(-11.4, 11.4, 115)
    chi = qcf.SqueezedVacuum(2.0).chi0(nodes[:, None], nodes[None, :])
    wide = qcf.TabulatedChi(nodes, nodes, chi)
    assert not wide.zero_outside
    qcf.check_wigner_reach(wide)


def test_tabulated_chi_validation():
    nodes = np.linspace(-2.0, 2.0, 21)
    good = np.exp(-(nodes[:, None] ** 2 + nodes[None, :] ** 2) / 4.0).astype(complex)
    qcf.TabulatedChi(nodes, nodes, good)
    with pytest.raises(ValidationError, match="symmetric|origin"):
        qcf.TabulatedChi(nodes + 0.1, nodes, good)
    bad = good.copy()
    bad[3, 4] += 0.1j  # breaks conj symmetry
    with pytest.raises(ValidationError, match="conj"):
        qcf.TabulatedChi(nodes, nodes, bad)
    scaled = 0.9 * good  # chi(0) != 1
    with pytest.raises(ValidationError, match="chi\\(0"):
        qcf.TabulatedChi(nodes, nodes, scaled)
    with pytest.raises(ValidationError, match="at least 5 nodes"):
        qcf.TabulatedChi(nodes[9:12], nodes, good[9:12])


def test_tabulated_chi_axis_must_reach_the_moment_stencil():
    # the central p cell (0.5) is narrower than the x cell (1), so fd_step = 1
    # and the stencil probes p = +-2, past the p nodes' end at +-1
    xn, pn = np.linspace(-4.0, 4.0, 9), np.linspace(-1.0, 1.0, 5)
    vals = np.exp(-(xn[:, None] ** 2 + pn[None, :] ** 2) / 4.0).astype(complex)
    with pytest.raises(ValidationError, match=r"p nodes end at \+-1.*fd_step = 1.*out to \+-2"):
        qcf.TabulatedChi(xn, pn, vals)
    # a decayed table reads 0 beyond its grid, so the same nodes load
    decayed = vals.copy()
    decayed[[0, -1], :] = decayed[:, [0, -1]] = 0.0
    tab = qcf.TabulatedChi(xn, pn, decayed)
    assert tab.zero_outside and tab.chi0(0.0, 2.0) == 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_tabulated_chi_rejects_non_finite_values(bad):
    # a symmetric pair of non-finite values has a NaN symmetry residue,
    # which no tolerance comparison catches
    nodes = np.linspace(-2.0, 2.0, 21)
    vals = np.exp(-(nodes[:, None] ** 2 + nodes[None, :] ** 2) / 4.0).astype(complex)
    vals[3, 4] = vals[-4, -5] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        qcf.TabulatedChi(nodes, nodes, vals)


def random_symmetric_chi_table(rng, decayed):
    """A Hermitian table on random non-uniform symmetric nodes, with signed zeros."""
    half = rng.uniform(0.5, 1.0, 6).cumsum(), rng.uniform(0.5, 1.0, 8).cumsum()
    xn, pn = (np.concatenate([-h[::-1], [0.0], h]) for h in half)
    vals = rng.normal(size=(13, 17)) + 1j * rng.normal(size=(13, 17))
    vals = 0.5 * (vals + np.conj(vals[::-1, ::-1]))
    vals[6, 8] = 1.0
    # cells whose corners are all negative zeros, mirrored as chi(-z) = conj chi(z)
    vals[1:4, 2:5] = complex(-0.0, -0.0)
    vals[-4:-1, -5:-2] = complex(-0.0, 0.0)
    if decayed:
        vals[[0, -1], :] = vals[:, [0, -1]] = 0.0
    return xn, pn, vals


@pytest.mark.parametrize("decayed", [False, True])
def test_tabulated_chi_is_bit_identical_to_scipy(decayed):
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(5 + decayed)
    for _ in range(40):
        xn, pn, vals = random_symmetric_chi_table(rng, decayed)
        tab = qcf.TabulatedChi(xn, pn, vals)
        assert tab.zero_outside == decayed
        node_x, node_p = np.meshgrid(xn, pn, indexing="ij")
        top_x, top_p = np.full(pn.size, xn[-1]), np.full(xn.size, pn[-1])
        x = np.concatenate([rng.uniform(xn[0], xn[-1], 2000), node_x.ravel(), top_x, xn])
        p = np.concatenate([rng.uniform(pn[0], pn[-1], 2000), node_p.ravel(), pn, top_p])
        x = np.concatenate([x, [-0.0, 0.0, -0.0]])
        p = np.concatenate([p, [-0.0, -0.0, 0.0]])
        if decayed:  # and the zero fill outside
            x = np.concatenate([x, rng.uniform(-2.0, 2.0, 500) * xn[-1]])
            p = np.concatenate([p, rng.uniform(-2.0, 2.0, 500) * pn[-1]])
        re, im = (
            RegularGridInterpolator(
                (xn, pn), part, method="linear", bounds_error=not decayed, fill_value=0.0
            )
            for part in (vals.real, vals.imag)
        )
        pts = np.column_stack([x, p])
        ref = re(pts) + 1j * im(pts)
        # compared as bit patterns, so that -0.0 differs from 0.0
        assert np.array_equal(tab.chi0(x, p).view(np.uint64), ref.view(np.uint64))
        for k in range(0, len(x), 101):
            ours = np.array([tab.chi0(x[k], p[k])])
            assert np.array_equal(ours.view(np.uint64), ref[k : k + 1].view(np.uint64))


def test_tabulated_chi_moments_near_reference(bundles):
    # the table's initial moments are read once at t = 0, where the derivative
    # probes sit on table nodes; curvature read through a bilinear interpolant
    # is table-resolution-limited, and the moment map carries that error on
    tab, ref = make_tabulated_coherent(x0=0.5, extent=12.0, n=481)
    m_tab = qcf.observable_series(bundles["rwa"], tab)
    m_ref = qcf.observable_series(bundles["rwa"], ref)
    for t in (0, 500, 1000):
        assert m_tab.mean_x[t] == pytest.approx(m_ref.mean_x[t], abs=1e-3)
        assert m_tab.xx[t] == pytest.approx(m_ref.xx[t], abs=1e-2)
        assert m_tab.pp[t] == pytest.approx(m_ref.pp[t], abs=1e-2)
    assert m_tab.energy[0] == pytest.approx(m_ref.energy[0], abs=1e-2)


# --- wigner --------------------------------------------------------------


def test_wigner_vacuum_peak_and_normalization(free_bundle):
    axis = np.linspace(-6.0, 6.0, 121)
    w = qcf.wigner(free_bundle, qcf.CoherentState(), 0, axis, axis)
    assert w.max() == pytest.approx(1.0 / np.pi, rel=1e-10)
    step = axis[1] - axis[0]
    assert w.sum() * step * step == pytest.approx(1.0, abs=1e-4)


def test_wigner_thermal_positive_with_expected_peak(free_bundle):
    axis = np.linspace(-8.0, 8.0, 101)
    w = qcf.wigner(free_bundle, qcf.ThermalState(1.0), 0, axis, axis)
    assert w.min() > -1e-15
    assert w.max() == pytest.approx(1.0 / (3.0 * np.pi), rel=1e-10)


def test_wigner_fock1_negative_at_origin(free_bundle):
    axis = np.linspace(-1.0, 1.0, 21)
    w = qcf.wigner(free_bundle, qcf.FockState(1), 0, axis, axis)
    assert w[10, 10] == pytest.approx(-1.0 / np.pi, rel=1e-8)


def test_wigner_domain_guard(free_bundle):
    # position variance e^{-4}/2: chi_0 is still ~1e-8 at |z| = 64 along p
    with pytest.raises(DomainTooSmallError, match="state.r|wigner.times"):
        qcf.wigner(free_bundle, qcf.SqueezedVacuum(2.0), 0, np.linspace(-2, 2, 11),
                   np.linspace(-2, 2, 11))


def test_wigner_refuses_an_aliased_map_before_it_evaluates_chi(free_bundle, monkeypatch):
    # W of Fock 20000 is 8 * sqrt(20000.5) ~ 1131 wide, past the period 2 pi / h
    # of every z-grid; none of them need be evaluated to know it
    def evaluated(*args, **kwargs):
        raise AssertionError("chi_t was evaluated")

    monkeypatch.setattr(qcf, "evolve_chi", evaluated)
    axis = np.linspace(-6.0, 6.0, 8)
    with pytest.raises(DomainTooSmallError, match="would alias: lower wigner.extent"):
        qcf.wigner(free_bundle, qcf.FockState(20000), 0, axis, axis)


@pytest.mark.parametrize(
    "r, phi", [(0.5, 0.0), (1.0, 0.7), (1.2, 0.0), (1.2, 0.7), (1.5, 0.0), (2.0, 0.7), (5.0, 0.0)]
)
def test_squeezed_wigner_is_exact_or_raises(free_bundle, r, phi):
    # a strongly squeezed chi_t decays only on a wide z-grid, whose coarse
    # spacing would alias the copies of W that the sampled transform repeats
    axis = np.linspace(-6.0, 6.0, 64)
    state = qcf.SqueezedVacuum(r, phi)
    try:
        w = qcf.wigner(free_bundle, state, 0, axis, axis)
    except DomainTooSmallError as error:
        assert (r, phi) not in ((0.5, 0.0), (1.0, 0.7), (1.2, 0.7)), error
        assert "state.r" in str(error)
        return
    assert (r, phi) not in ((1.5, 0.0), (5.0, 0.0)), "an aliased map passed"
    cov_inv = np.linalg.inv(state.covariance())
    q, p = np.meshgrid(axis, axis, indexing="ij")
    form = cov_inv[0, 0] * q**2 + 2.0 * cov_inv[0, 1] * q * p + cov_inv[1, 1] * p**2
    exact = np.exp(-0.5 * form) / (2.0 * np.pi * np.sqrt(np.linalg.det(state.covariance())))
    assert np.max(np.abs(w - exact)) <= 1e-9


def test_wigner_rejects_a_non_finite_field(free_bundle):
    class Holed:
        """The vacuum chi with NaN inside the unit disc, away from the boundary check."""

        initial_moments = qcf.CoherentState().initial_moments

        def chi0(self, x, p):
            return np.where(x**2 + p**2 < 1.0, np.nan, qcf.CoherentState().chi0(x, p))

    with pytest.raises(NumericalError, match="imaginary residue nan"):
        qcf.wigner(free_bundle, Holed(), 0, np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))


# --- the Wigner transform against the full-grid reference -----------------

# (state, t_index, half-widths tried); the squeezed chi_t decays only at |z| = 32
WIGNER_CASES = {
    "fock2_t0": (lambda: qcf.FockState(2), 0, 2),
    "fock2_t10": (lambda: qcf.FockState(2), 1000, 2),
    "coherent_x0_2": (lambda: qcf.CoherentState(x0=2.0), 0, 2),
    "squeezed_r05": (lambda: qcf.SqueezedVacuum(0.5), 0, 3),
    "tabulated_zero_outside": (lambda: make_tabulated_coherent()[0], 0, 2),
}


@pytest.fixture
def chi_shapes(monkeypatch):
    """The broadcast shape of every ``qcf.evolve_chi`` call from here on, in order."""
    shapes, evolve_chi = [], qcf.evolve_chi

    def recorded(bundle, state, t_index, x, p):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(p)))
        return evolve_chi(bundle, state, t_index, x, p)

    monkeypatch.setattr(qcf, "evolve_chi", recorded)
    return shapes


@pytest.mark.parametrize("case", WIGNER_CASES)
def test_wigner_is_the_full_grid_transform_bit_for_bit(bundles, case, chi_shapes):
    # chi_t is evaluated at the edge of each half-width tried, then a block of
    # z-rows at a time at the one that passes, yet the map is the reference's
    make_state, t_index, tried = WIGNER_CASES[case]
    state, axis = make_state(), np.linspace(-6.0, 6.0, 64)
    expected = wigner_full_grid(bundles["full"], state, t_index, axis, axis)
    chi_shapes.clear()
    assert np.array_equal(qcf.wigner(bundles["full"], state, t_index, axis, axis), expected)
    side, rows = qcf._Z_POINTS, qcf._Z_BLOCK_ROWS
    assert chi_shapes == [(2, side), (side, 2)] * tried + [(rows, side)] * (side // rows)


def test_wigner_evaluates_only_the_edges_of_a_half_width_that_fails(free_bundle, chi_shapes):
    class Flat:
        """The vacuum's moments with a chi that never decays."""

        initial_moments = qcf.CoherentState().initial_moments

        def chi0(self, x, p):
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(p)), dtype=complex)

    axis = np.linspace(-2.0, 2.0, 11)
    with pytest.raises(DomainTooSmallError, match=r"has not decayed below 1e-12 at \|z\| = 64"):
        qcf.wigner(free_bundle, Flat(), 0, axis, axis)
    edges = [(2, qcf._Z_POINTS), (qcf._Z_POINTS, 2)]
    assert chi_shapes == edges * len(qcf._Z_EXTENTS)


def test_wigner_of_a_chi_table_that_ends_undecayed_raises_outside_its_grid(free_bundle):
    # the squeezed table has not decayed at its edge, 11.4, so the z-grid of
    # half-width 16 reads past it, on the reference's route and on wigner's
    nodes = np.linspace(-11.4, 11.4, 115)
    chi = qcf.SqueezedVacuum(2.0).chi0(nodes[:, None], nodes[None, :])
    wide, axis = qcf.TabulatedChi(nodes, nodes, chi), np.linspace(-2.0, 2.0, 11)
    for route in (wigner_full_grid, qcf.wigner):
        with pytest.raises(ValidationError, match="evaluated outside its grid"):
            route(free_bundle, wide, 0, axis, axis)


def test_a_wigner_map_allocates_far_less_than_its_z_grid(bundles):
    # one 64-point map of Fock 2 traced 6.0 MiB with chi_t held on whole 256^2
    # z-grids, 1.6 MiB a block of z-rows at a time
    axis = np.linspace(-6.0, 6.0, 64)
    tracemalloc.start()
    try:
        qcf.wigner(bundles["full"], qcf.FockState(2), 0, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20
