"""Quantum characteristic functions: initial states, evolution, observables.

Conventions, fixed once and locked by the Fock-space oracle tests:

    chi(z) = tr{ exp(i (p Xhat - x Phat)) rho },   z = (x, p),
    Xhat = (a + a^dag)/sqrt(2),  Phat = (a - a^dag)/(i sqrt(2)).

Near the origin every state has chi(z) = 1 + i b.z - z.(C + b b^T).z/2 + ...
with b real and C the real symmetric 2x2 quadratic form (a Gaussian state is
exactly chi(z) = exp(i b.z - z.C.z/2)).  The derivative map

    <X^n> = (-i)^n d^n chi / dp^n |_0,    <P^n> = (+i)^n d^n chi / dx^n |_0

then gives <X> = b_p, <P> = -b_x, <X^2> = C_pp + b_p^2, <P^2> = C_xx + b_x^2
and <XP+PX> = -2 C_xp - 2 b_x b_p; equivalently C = J V J^T where V is the
physical covariance matrix of (X, P) and J = [[0, -1], [1, 0]].

Evolution multiplies by a Gaussian and contracts the argument:

    chi_t(z) = exp(-z.Wbar(t).z) * chi_0(e^{-Gamma/2} R^{-1}(t) z)

The derivatives of chi_t at 0 depend only on those of chi_0 at 0, so the
first and second moments of every state, Gaussian or not, follow one affine
map of its initial (b_0, C_0):

    b(t) = e^{-Gamma/2} (R^{-1})^T b_0,
    C(t) = 2 Wbar + e^{-Gamma} (R^{-1})^T C_0 R^{-1}.

Each state supplies (b_0, C_0) exactly, except a tabulated chi, which reads
them once from 4th-order central differences of its table at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qbm.errors import DomainTooSmallError, NumericalError, ValidationError
from qbm.propagator import PropagatorBundle

_SYMPLECTIC_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_IMAG_TOL = 1e-9
# the Wigner transform's z-grid: nodes per side and the half-widths tried in turn
_Z_POINTS = 256
_Z_EXTENTS = (8.0, 16.0, 32.0, 64.0)
# rows of the z-grid that chi_t is evaluated on at a time
_Z_BLOCK_ROWS = 32
# |chi| below which the Wigner transform counts chi as decayed
CHI_DECAY_TOL = 1e-12
_NARROW_REMEDY = (
    "the state is too narrow in phase space, as under strong squeezing; lower state.r, "
    "or move wigner.times later, where damping and diffusion have widened it"
)
_ALIAS_REMEDY = (
    "lower wigner.extent, the output grid's half-width, or map a state that reaches less far "
    "(a lower state.n, state.x0, state.p0 or state.r), or move wigner.times later"
)


@dataclass(frozen=True)
class ChiMoments:
    """First and second moments in chi form: linear phase b and quadratic form C."""

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(2)
        c = np.asarray(self.c, dtype=float).reshape(2, 2)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValidationError("chi moments must be finite")
        if abs(c[0, 1] - c[1, 0]) > 1e-12:
            raise ValidationError("chi quadratic form must be symmetric")


def covariance_to_chi_form(v: np.ndarray) -> np.ndarray:
    """Map a physical (X, P) covariance matrix to the chi quadratic form."""
    return _SYMPLECTIC_J @ np.asarray(v, dtype=float) @ _SYMPLECTIC_J.T


class _State:
    """A state whose ``initial_moments`` are built by its ``_moments()``, and checked, once."""

    def __post_init__(self):
        # an overflow gives inf or nan, which ChiMoments rejects, or an
        # OverflowError from an int too large for a float
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                object.__setattr__(self, "initial_moments", ChiMoments(*self._moments()))
        except OverflowError as exc:
            raise ValidationError(f"chi moments must be finite: {exc}") from exc


class _GaussianChi(_State):
    """chi_0(z) = exp(i b.z - z.C.z/2), read from the state's ``initial_moments``."""

    def chi0(self, x, p):
        m = self.initial_moments
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        quad = m.c[0, 0] * x**2 + 2.0 * m.c[0, 1] * x * p + m.c[1, 1] * p**2
        return np.exp(-0.5 * quad + 1j * (m.b[1] * p + m.b[0] * x))


@dataclass(frozen=True)
class CoherentState(_GaussianChi):
    x0: float = 0.0
    p0: float = 0.0

    def _moments(self):
        return np.array([-self.p0, self.x0]), 0.5 * np.eye(2)


@dataclass(frozen=True)
class ThermalState(_GaussianChi):
    nbar: float

    def _moments(self):
        if self.nbar < 0:
            raise ValidationError("thermal occupation nbar must be >= 0")
        return np.zeros(2), 0.5 * (2.0 * self.nbar + 1.0) * np.eye(2)


@dataclass(frozen=True)
class SqueezedVacuum(_GaussianChi):
    """Squeezed vacuum: position variance e^{-2r}/2 at phi = 0.

    phi rotates the squeezing axis along the free-evolution flow, i.e. the
    state equals exp(-i phi n) S(r) |0> in the Fock construction.
    """

    r_sq: float
    phi: float = 0.0

    def covariance(self) -> np.ndarray:
        rot = np.array(
            [[np.cos(self.phi), np.sin(self.phi)], [-np.sin(self.phi), np.cos(self.phi)]]
        )
        core = 0.5 * np.diag([np.exp(-2.0 * self.r_sq), np.exp(2.0 * self.r_sq)])
        return rot @ core @ rot.T

    def _moments(self):
        return np.zeros(2), covariance_to_chi_form(self.covariance())


@dataclass(frozen=True)
class FockState(_State):
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise ValidationError("Fock level n must be a non-negative integer")
        object.__setattr__(self, "n", int(self.n))
        super().__post_init__()

    def _moments(self):
        return np.zeros(2), (self.n + 0.5) * np.eye(2)

    def chi0(self, x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        z2 = x**2 + p**2
        return np.exp(-z2 / 4.0) * laguerre(self.n, z2 / 2.0) + 0j


def laguerre(n: int, u):
    """Laguerre polynomial L_n(u), elementwise.

    The forward recurrence in the order of scipy.special.eval_laguerre,
    whose values it reproduces bit for bit; the textbook three-term
    recurrence rounds differently, by up to ~1e-10 relative.
    """
    u = np.asarray(u, dtype=float)
    if n == 0:
        return np.ones_like(u)
    d = -u
    p = d + 1.0
    for k in range(1, n):
        d = -u / (k + 1) * p + (k / (k + 1)) * d
        p = d + p
    return p


class TabulatedChi:
    """chi sampled on a symmetric rectangular (x, p) grid, bilinear inside.

    The node set must be symmetric about the origin so chi(0) = 1 and the
    Hermiticity symmetry chi(z) = conj chi(-z) can be validated on the
    samples themselves.  A table whose boundary values lie below
    ``CHI_DECAY_TOL`` stands for chi = 0 outside it; evaluating any other
    table outside its grid raises.  The initial moments are read once, at
    construction, from central differences of the table at the origin.
    """

    def __init__(self, x_nodes, p_nodes, values):
        x_nodes = np.asarray(x_nodes, dtype=float)
        p_nodes = np.asarray(p_nodes, dtype=float)
        values = np.ascontiguousarray(values, dtype=complex)
        if values.shape != (len(x_nodes), len(p_nodes)):
            raise ValidationError("chi table shape must be (len(x_nodes), len(p_nodes))")
        for name, nodes in (("x", x_nodes), ("p", p_nodes)):
            if len(nodes) < 5:
                raise ValidationError(
                    f"{name} needs at least 5 nodes: the moment stencil reaches two cells out"
                )
            if np.any(np.diff(nodes) <= 0):
                raise ValidationError(f"{name} nodes must be strictly increasing")
            if np.max(np.abs(nodes + nodes[::-1])) > 1e-12:
                raise ValidationError(f"{name} nodes must be symmetric about 0")
            if len(nodes) % 2 == 0:
                raise ValidationError(f"{name} nodes must include the origin (odd count)")
        if not np.all(np.isfinite(values)):
            raise ValidationError("tabulated chi contains non-finite values")
        sym = values - np.conj(values[::-1, ::-1])
        if np.max(np.abs(sym)) > 1e-9:
            raise ValidationError("tabulated chi violates chi(z) = conj chi(-z) at the nodes")
        i0, j0 = len(x_nodes) // 2, len(p_nodes) // 2
        if abs(values[i0, j0] - 1.0) > 1e-9:
            raise ValidationError("tabulated chi must satisfy chi(0, 0) = 1")
        self.x_nodes = x_nodes
        self.p_nodes = p_nodes
        self.values = values
        # derivative probes must straddle whole cells: inside one cell the
        # bilinear interpolant has no curvature at all
        self.fd_step = float(max(x_nodes[i0 + 1] - x_nodes[i0], p_nodes[j0 + 1] - p_nodes[j0]))
        edges = np.concatenate([values[0], values[-1], values[:, 0], values[:, -1]])
        self.zero_outside = bool(np.max(np.abs(edges)) < CHI_DECAY_TOL)
        reach = 2.0 * self.fd_step  # the outermost probe of ``_moments_fd``
        for name, nodes in (("x", x_nodes), ("p", p_nodes)):
            if not self.zero_outside and (-reach < nodes[0] or reach > nodes[-1]):
                raise ValidationError(
                    f"{name} nodes end at +-{nodes[-1]:g}, inside the moment stencil's "
                    f"probes at +-2*fd_step: fd_step = {self.fd_step:g} (the wider central "
                    f"cell), so a table that does not decay at its edge needs {name} nodes "
                    f"out to +-{reach:g}"
                )
        # real and imaginary parts side by side, interpolated together
        self._parts = values.view(float).reshape(values.shape + (2,))
        self.initial_moments = _moments_fd(self.chi0, self.fd_step)

    def chi0(self, x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValidationError("z must be finite")
        shape = np.broadcast_shapes(x.shape, p.shape)
        x = np.broadcast_to(x, shape).ravel()
        p = np.broadcast_to(p, shape).ravel()
        xn, pn = self.x_nodes, self.p_nodes
        outside = (x < xn[0]) | (x > xn[-1]) | (p < pn[0]) | (p > pn[-1])
        if not self.zero_outside and np.any(outside):
            raise ValidationError(
                f"tabulated chi evaluated outside its grid [{xn[0]:g}, {xn[-1]:g}] x "
                f"[{pn[0]:g}, {pn[-1]:g}]"
            )
        (i, u), (j, v) = _cell(xn, x), _cell(pn, p)
        u, v, f = u[:, None], v[:, None], self._parts
        # the corner terms of scipy's bilinear RegularGridInterpolator, summed
        # from 0.0 in its order, so that the values agree with it bit for bit
        parts = 0.0 + f[i, j] * (1 - u) * (1 - v)
        parts = parts + f[i, j + 1] * (1 - u) * v
        parts = parts + f[i + 1, j] * u * (1 - v)
        parts = parts + f[i + 1, j + 1] * u * v
        parts[outside] = 0.0
        vals = parts[:, 0] + 1j * parts[:, 1]
        return vals.reshape(shape) if shape else complex(vals[0])


def _cell(nodes: np.ndarray, z: np.ndarray):
    """The cell l with nodes[l] <= z < nodes[l + 1], and z's fraction of it.

    The top node falls in the last cell; points outside are clipped to an end cell.
    """
    l = np.clip(np.searchsorted(nodes, z, side="right") - 1, 0, len(nodes) - 2)
    return l, (z - nodes[l]) / (nodes[l + 1] - nodes[l])


def _node_index(bundle: PropagatorBundle, t_index: int) -> int:
    n = len(bundle)
    if not -n <= t_index < n:
        raise ValidationError(f"t_index {t_index} outside grid of length {n}")
    return t_index % n


def evolve_chi(bundle: PropagatorBundle, state, t_index: int, x, p):
    """chi_t at one grid node, over broadcastable x and p (scalars or meshes)."""
    t = _node_index(bundle, t_index)
    big_gamma, rinv, w = bundle.big_gamma[t], bundle.rotations_inv[t], bundle.w_bar[t]
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        raise ValidationError("z must be finite")
    gauss = np.exp(-(w[0, 0] * x**2 + 2.0 * w[0, 1] * x * p + w[1, 1] * p**2))
    scale = np.exp(-0.5 * big_gamma)
    xr = scale * (rinv[0, 0] * x + rinv[0, 1] * p)
    pr = scale * (rinv[1, 0] * x + rinv[1, 1] * p)
    return gauss * state.chi0(xr, pr)


def evolve_moments(bundle: PropagatorBundle, m0: ChiMoments, nodes: slice = slice(None)):
    """The affine moment map: b(t) of shape (n, 2) and C(t) of shape (n, 2, 2).

    Exact for every initial state, because the derivatives of chi_t at the
    origin depend only on those of chi_0 there; ``nodes`` selects grid nodes.
    """
    scale = np.exp(-0.5 * bundle.big_gamma[nodes])
    rinv = bundle.rotations_inv[nodes]
    b_t = scale[:, None] * np.einsum("nji,j->ni", rinv, m0.b)
    c_t = 2.0 * bundle.w_bar[nodes] + (scale**2)[:, None, None] * np.einsum(
        "nji,jk,nkl->nil", rinv, m0.c, rinv
    )
    return b_t, c_t


# the columns of every moment trajectory, analytic or oracle, in CSV order
OBSERVABLES = ("mean_x", "mean_p", "xx", "pp", "xp_sym", "energy")


@dataclass(frozen=True)
class ObservableSeries:
    """First and second moments over the grid, with energy = (<X^2> + <P^2>)/2.

    The one trajectory record of both routes: the analytic moment map and
    the Fock-space oracle.  Every column must be finite and respect the
    variance floor <A^2> >= <A>^2, else ``NumericalError``.
    """

    grid: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    xx: np.ndarray
    pp: np.ndarray
    xp_sym: np.ndarray
    energy: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            object.__setattr__(self, "energy", 0.5 * (self.xx + self.pp))
        # inf < inf is False, so a non-finite column would slip past the floor
        for name in OBSERVABLES:
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise NumericalError(
                    f"moment column {name} is not finite at t={self.grid[bad[0]]:g}: the "
                    "moments overflow double precision"
                )
        below = np.stack([self.xx < self.mean_x**2 - 1e-10, self.pp < self.mean_p**2 - 1e-10], axis=1)
        if below.any():
            i, j = divmod(int(np.argmax(below)), 2)  # the first t, <X^2> before <P^2>
            a, second, mean = (("X", self.xx, self.mean_x), ("P", self.pp, self.mean_p))[j]
            raise NumericalError(
                f"variance floor violated: <{a}^2> = {float(second[i])!r} < <{a}>^2 = "
                f"{float(mean[i]) ** 2!r} at t={self.grid[i]:g}, so the moments are not those "
                "of a density matrix; reservoir.alpha, reservoir.wc, reservoir.temperature and "
                "grid.t_max move that"
            )


def _moment_columns(b, c):
    """(<X>, <P>, <X^2>, <P^2>, <XP+PX>) from chi-form b (..., 2) and C (..., 2, 2).

    An overflow gives inf, which ``ObservableSeries`` reports by column name.
    """
    with np.errstate(over="ignore"):
        return (
            b[..., 1],
            -b[..., 0],
            c[..., 1, 1] + b[..., 1] ** 2,
            c[..., 0, 0] + b[..., 0] ** 2,
            -2.0 * c[..., 0, 1] - 2.0 * b[..., 0] * b[..., 1],
        )


_STENCIL_OFFSETS = np.array([2.0, 1.0, -1.0, -2.0])
_STENCIL_WEIGHTS = np.array([-1.0, 8.0, -8.0, 1.0])


def _moments_fd(chi, h: float) -> ChiMoments:
    """b and C of chi(x, p) from 4th-order central differences at the origin."""

    def check_real(value: complex, what: str) -> float:
        if abs(value.imag) > _IMAG_TOL:
            raise NumericalError(
                f"imaginary residue {value.imag:.2e} in {what}: phase-space "
                "convention mismatch between state and derivative map"
            )
        return value.real

    px = [chi(o * h, 0.0) for o in _STENCIL_OFFSETS]
    pp_ = [chi(0.0, o * h) for o in _STENCIL_OFFSETS]
    chi0 = chi(0.0, 0.0)

    d_x = np.dot(_STENCIL_WEIGHTS, px) / (12.0 * h)
    d_p = np.dot(_STENCIL_WEIGHTS, pp_) / (12.0 * h)
    d_xx = (-px[0] + 16 * px[1] - 30 * chi0 + 16 * px[2] - px[3]) / (12.0 * h**2)
    d_pp = (-pp_[0] + 16 * pp_[1] - 30 * chi0 + 16 * pp_[2] - pp_[3]) / (12.0 * h**2)
    d_xp = sum(
        wx * wp * chi(ox * h, op * h)
        for ox, wx in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS)
        for op, wp in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS)
    ) / (12.0 * h) ** 2

    b_x = check_real(-1j * d_x, "<P>")
    b_p = check_real(-1j * d_p, "<X>")
    c_xp = check_real(-d_xp, "<XP+PX>") - b_x * b_p
    return ChiMoments(
        b=np.array([b_x, b_p]),
        c=np.array(
            [
                [check_real(-d_xx, "<P^2>") - b_x**2, c_xp],
                [c_xp, check_real(-d_pp, "<X^2>") - b_p**2],
            ]
        ),
    )


def observable_series(bundle: PropagatorBundle, state) -> ObservableSeries:
    """Moment trajectories over the whole grid, from the affine moment map."""
    b_t, c_t = evolve_moments(bundle, state.initial_moments)
    return ObservableSeries(bundle.grid, *_moment_columns(b_t, c_t))


def closed_form_energy(big_gamma, e0: float, delta_gamma) -> np.ndarray:
    """<H0>_t = e^{-Gamma} E0 + delta_gamma over the grid, H0 = (X^2 + P^2)/2, E0 = <H0>_0.

    Exact in the rwa and norenorm modes with delta_gamma = tr Wbar, because
    the counter-rotating part of Wbar is traceless; the full mode has no
    such form.  With Gamma and the rotating-wave delta_gamma of the
    coefficient table it is the ``energy_rwa`` column of every observables
    file, analytic or oracle, from that route's own E0; the ``energy``
    column beside it is always the moment energy of ``ObservableSeries``.
    """
    return np.exp(-big_gamma) * e0 + delta_gamma


def check_wigner_reach(state) -> None:
    """Raise ``ValidationError`` if ``state`` is a chi table too narrow for ``wigner``."""
    # a table that has not decayed at its edge cannot stand for chi beyond it,
    # and the evolution can rotate the corners of the first z-grid onto an axis
    radius = _Z_EXTENTS[0] * np.sqrt(2.0)
    if isinstance(state, TabulatedChi) and not state.zero_outside:
        half_width = min(state.x_nodes[-1], state.p_nodes[-1])
        if half_width < radius:
            raise ValidationError(
                f"the chi table reaches only |x|, |p| <= {half_width:g}, short of the |z| = "
                f"{radius:.4g} that wigner reads; widen it that far or set wigner.enabled = false"
            )


def wigner(bundle: PropagatorBundle, state, t_index: int, q_grid, p_grid):
    """Wigner function on the given phase-space grid.

    Symplectic Fourier transform of chi_t,
    W(u) = (2 pi)^{-2} Int chi_t(z) exp(-i u.J.z) d^2 z, discretized by a
    separable trapezoid on a square z-grid of ``_Z_POINTS`` nodes per side.
    The half-width steps through ``_Z_EXTENTS`` until |chi_t| < ``CHI_DECAY_TOL``
    on the boundary, the only points evaluated at a half-width that fails; a
    chi_t still above that at the widest grid raises.  The map is summed
    over ``_Z_BLOCK_ROWS`` rows of chi_t at a time.  The
    sampled transform repeats W with period 2 pi / h in q and in p, h the
    node spacing, so it raises, before chi_t is evaluated on a grid, unless
    each output point lies 8 standard deviations of W (from C_t) inside that
    grid's period, counted from W's mean: otherwise a copy of W would alias
    into the map.
    """
    check_wigner_reach(state)
    q_grid = np.asarray(q_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if q_grid.ndim != 1 or p_grid.ndim != 1:
        raise ValidationError("phase-space grids must be 1-d")

    t = _node_index(bundle, t_index)
    b_t, c_t = evolve_moments(bundle, state.initial_moments, slice(t, t + 1))
    reach = max(np.max(np.abs(q_grid - b_t[0, 1])), np.max(np.abs(p_grid + b_t[0, 0])))
    reach += 8.0 * np.sqrt(np.linalg.eigvalsh(c_t[0])[-1])
    for ext in _Z_EXTENTS:
        z = np.linspace(-ext, ext, _Z_POINTS)
        h = z[1] - z[0]
        period = 2.0 * np.pi / h
        # every wider grid repeats W sooner still, so the first short period is final
        if not period >= reach:
            raise DomainTooSmallError(
                f"the Wigner integration grid that chi_t at t_index {t_index} needs repeats W "
                f"every {period:.3g} in q and in p, less than the {reach:.3g} that the output "
                f"grid and the state's width need, so the map would alias: {_ALIAS_REMEDY}"
            )
        # the decay test reads the grid's edge alone: the rows x = z[0], z[-1]
        # and the columns p = z[0], z[-1]
        ends = z[[0, -1]]
        rows = evolve_chi(bundle, state, t_index, ends[:, None], z[None, :])
        columns = evolve_chi(bundle, state, t_index, z[:, None], ends[None, :])
        if np.maximum(np.max(np.abs(rows)), np.max(np.abs(columns))) < CHI_DECAY_TOL:
            break
    else:
        raise DomainTooSmallError(
            f"chi_t at t_index {t_index} has not decayed below {CHI_DECAY_TOL:g} at "
            f"|z| = {_Z_EXTENTS[-1]:g}, the widest Wigner integration grid: {_NARROW_REMEDY}"
        )

    field = _transform(bundle, state, t_index, z, q_grid, p_grid)  # (p, q)
    max_imag = max(field.imag.max(), -field.imag.min())
    if not max_imag <= 1e-8:  # a NaN anywhere gives NaN, which trips it too
        raise NumericalError(f"Wigner transform has imaginary residue {max_imag:.2e}")
    # the real (q, p) map alone, so that a caller holding it does not hold the complex field
    return np.ascontiguousarray(field.real.T)


def _transform(bundle: PropagatorBundle, state, t_index: int, z, q_grid, p_grid):
    """The complex (p, q) transform of chi_t on the square z-grid, a block of z-rows at a time.

    W[q, p_out] = (2pi)^-2 sum_{x,pz} chi(x,pz) e^{-i p_out x} e^{+i q pz} w_x w_pz,
    w the trapezoid weights, the same on both axes.
    """
    h = z[1] - z[0]
    w = np.full(_Z_POINTS, h)
    w[0] = w[-1] = 0.5 * h
    phase_q = np.exp(1j * np.outer(z, q_grid)) * w[:, None]  # (pz, q)
    phase_p = np.exp(-1j * np.outer(p_grid, z)) * w[None, :]  # (p, x)
    inner = np.empty((_Z_POINTS, len(q_grid)), dtype=complex)  # (x, q)
    for start in range(0, _Z_POINTS, _Z_BLOCK_ROWS):
        block = slice(start, start + _Z_BLOCK_ROWS)
        chi_rows = evolve_chi(bundle, state, t_index, z[block, None], z[None, :])
        np.matmul(chi_rows, phase_q, out=inner[block])
    field = phase_p @ inner
    field /= (2.0 * np.pi) ** 2
    return field
