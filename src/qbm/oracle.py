"""Brute-force verifier on a truncated Fock basis.

Everything the analytic pipeline claims is re-derivable here the slow way:
X and P as dense matrices, the master equation integrated step by step, and
the commutator (S) and anticommutator (Sigma) superoperator algebra checked
numerically, by applying each superoperator to d x d test matrices.

The master equation in all its variants is

    d rho/dt = -i [Hbar_0(t), rho] - D(t) rho + gamma(t) (N + 2) rho

    Hbar_0 = (X^2 + P^2)/2 - (r/2) X^2 + (gamma/2)(XP + PX)
    D      = delta_bar [X,[X,.]] - pi [X,[P,.]]
    N      = -(i/2) ( {P, [X, .]} - {X, [P, .]} )

with mode variants: ``full`` as above; ``norenorm`` drops r and gamma inside
Hbar_0 (bare oscillator) but keeps the dissipators; ``rwa`` additionally
replaces D by (delta_bar/2)([X,[X,.]] + [P,[P,.]]); ``unitary`` keeps only
the -i[Hbar_0, .] term (rotation-law checks).

Each mode is one term table: five fixed operator triples weighted by the
coefficient row (1, delta_bar, pi, r, gamma).  Every term moves the entry
rho_mn by one of nine offsets, so ``stencil_table`` rewrites the table as a
nine-point stencil on rho, and ``_Stencil`` applies one mode's stencil
with numpy alone.  The master equation is quadratic in X and P, so it
is invariant under (X, P) -> (-X, -P) and never mixes entries of even and
odd m + n: the RK4 loop steps only the parity sectors in which rho0 has a
nonzero entry (the Fock, thermal and squeezed states occupy the even one
alone).  ``generator(coeffs_at_t, d, mode)`` returns the same kernel for one
mode, on both sectors, as the function rho -> L(rho) on d x d matrices, and
the algebra suite checks it, so there is one master equation.

``integrate_modes`` steps each mode through its own RK4 loop.  The caller
steps the first mode and, where more than one CPU is usable, a child made
with ``os.fork`` steps each other one, sending its trajectory back pickled
over a pipe.  A mode's arithmetic does not depend on the other modes, so
every trajectory, and every artifact written from it, is the same bit for
bit whether the modes run in turn or in parallel; so is the error of a run
that aborts, that of the first failing mode in the order given.

Truncation hygiene: states must stay away from the top of the basis (the
leakage monitor aborts otherwise), and algebra residuals are measured on
interior matrix blocks where the truncated ladder operators act exactly.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from qbm.coefficients import CoefficientTable
from qbm.errors import (
    LeakageError,
    NumericalError,
    StabilityError,
    TruncationError,
    ValidationError,
)
from qbm.qcf import ObservableSeries
from qbm.runio import write_text

INTERIOR_MARGIN = 5  # test operators / residuals live on levels 0 .. d-1-margin
_WEYL_WINDOW_TOP = 14  # fixed window so the Weyl residual shrinks as d grows
_WEYL_Z = (1.5, 1.5)  # phase-space point of the Weyl eigenrelation check
_TEST_OP_SEED = 7  # the algebra suite's random test operators
_RK4_IMAGINARY_REACH = 2.0 * math.sqrt(2.0)  # RK4 is stable on i[-r, r] of the h*lambda plane
# |rho_mn| <= sqrt(rho_mm rho_nn) <= tr rho = 1 for every density matrix.  The
# margin is far above rounding: an entry near 1 needs a near-pure state low
# in the basis, whose RK4 trace error stays at rounding level
_DENSITY_ENTRY_BOUND = 1.0 + 1e-6


@dataclass(frozen=True)
class FockOperators:
    d: int
    a: np.ndarray
    x: np.ndarray
    p: np.ndarray
    # cached products used by the master-equation term tables
    x2: np.ndarray = field(repr=False, default=None)
    p2: np.ndarray = field(repr=False, default=None)
    xppx: np.ndarray = field(repr=False, default=None)
    h0: np.ndarray = field(repr=False, default=None)
    # tr(A rho) for A in X, P, X^2, P^2, XP+PX, 1 (the moments, then the
    # trace) is rho.ravel()[moment_support] @ moment_map: columns A^T.ravel()
    # restricted to the entries where some A is nonzero
    moment_support: np.ndarray = field(repr=False, default=None)
    moment_map: np.ndarray = field(repr=False, default=None)


def fock_operators(d: int) -> FockOperators:
    if d < 8:
        raise ValidationError("Fock truncation needs d >= 8")
    a = np.zeros((d, d), dtype=complex)
    ns = np.sqrt(np.arange(1, d, dtype=float))
    a[np.arange(d - 1), np.arange(1, d)] = ns
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    x2 = x @ x
    p2 = p @ p
    xppx = x @ p + p @ x
    traced = np.stack([op.T.reshape(-1) for op in (x, p, x2, p2, xppx, np.eye(d))], axis=1)
    support = np.flatnonzero(np.any(traced != 0, axis=1))
    return FockOperators(
        d=d,
        a=a,
        x=x,
        p=p,
        x2=x2,
        p2=p2,
        xppx=xppx,
        h0=0.5 * (x2 + p2),
        moment_support=support,
        moment_map=traced[support].astype(complex),
    )


MODES = ("full", "norenorm", "rwa", "unitary")

# Every mode of the master equation has the form
#
#     L(rho) = K rho + rho K^dag + (X rho) R_x + (P rho) R_p
#
# with K, R_x and R_p linear in the coefficient row (1, delta_bar, pi, r,
# gamma).  A mode's term table holds (K, R_x, R_p) for each weight of the
# row, so the generator at one time is the table contracted with that row.
WEIGHTS = ("one", "delta_bar", "pi", "r", "gamma")
_K, _RX, _RP = range(3)
SECTORS = ("even", "odd")  # parity of m + n of the entries rho_mn


def term_table(ops: FockOperators, mode: str) -> np.ndarray:
    """The (5, 3, d, d) table of (K, R_x, R_p) per weight of ``WEIGHTS``."""
    if mode not in MODES:
        raise ValidationError(f"unknown oracle mode {mode!r}; expected one of {MODES}")
    x, p, d = ops.x, ops.p, ops.d
    one, dbar, piv, r, gam = range(len(WEIGHTS))
    table = np.zeros((len(WEIGHTS), 3, d, d), dtype=complex)
    # -i [Hbar_0, .]
    table[one, _K] = -1j * ops.h0
    if mode in ("full", "unitary"):
        table[r, _K] = 0.5j * ops.x2
        table[gam, _K] = -0.5j * ops.xppx
    if mode == "unitary":
        return table
    if mode == "rwa":
        # -(delta_bar/2) ([X,[X,.]] + [P,[P,.]])
        table[dbar, _K] = -0.5 * (ops.x2 + ops.p2)
        table[dbar, _RX] = x
        table[dbar, _RP] = p
    else:
        # -delta_bar [X,[X,.]] + pi [X,[P,.]]
        table[dbar, _K] = -ops.x2
        table[dbar, _RX] = 2.0 * x
        table[piv, _K] = x @ p
        table[piv, _RX] = -p
        table[piv, _RP] = -x
    # gamma (N + 2), the 2 split evenly between K and K^dag
    table[gam, _K] += 0.5j * (x @ p - p @ x) + np.eye(d)
    table[gam, _RX] = -1j * p
    table[gam, _RP] = 1j * x
    return table


def _band(mat: np.ndarray, a: int) -> np.ndarray:
    """mat[..., i, i + a] over i, zero where i + a leaves the basis."""
    d = mat.shape[-1]
    out = np.zeros(mat.shape[:-1], dtype=mat.dtype)
    out[..., max(-a, 0) : d - max(a, 0)] = np.diagonal(mat, a, axis1=-2, axis2=-1)
    return out


# K has the bands 0 and +-2 and R_x, R_p the bands +-1, so L moves the entry
# (m, n) of rho by one of nine offsets (a, b) = (u + v, u - v), u, v in
# {-1, 0, 1}: a nine-point stencil, offset o = 3 (u + 1) + (v + 1).
def stencil_table(ops: FockOperators, mode: str) -> np.ndarray:
    """The (5, 9, d, d) stencil per weight of ``WEIGHTS``.

    Entry [w, o, m, n] multiplies rho[m + a, n + b] in L_w(rho)[m, n], and
    is zero where that neighbour leaves the basis.  It is read off
    ``term_table``: K rho gives K[m, m + a], rho K^dag gives conj K[n, n + b],
    and (X rho) R_x + (P rho) R_p give X[m, m + a] R_x[n + b, n] +
    P[m, m + a] R_p[n + b, n].  rho K^dag is its own term: taking it as
    (K rho)^dag would make the hermiticity drift vanish by construction.
    """
    table = term_table(ops, mode)
    k, rx_t, rp_t = table[:, _K], table[:, _RX].swapaxes(1, 2), table[:, _RP].swapaxes(1, 2)
    stencil = np.zeros((len(WEIGHTS), 3, 3, ops.d, ops.d), dtype=complex)
    for u in (-1, 0, 1):
        for v in (-1, 0, 1):
            a, b = u + v, u - v
            cell = stencil[:, u + 1, v + 1]
            if b == 0:
                cell += _band(k, a)[:, :, None]
            if a == 0:
                cell += _band(k, b).conj()[:, None, :]
            if abs(a) == 1:
                cell += _band(ops.x, a)[:, None] * _band(rx_t, b)[:, None, :]
                cell += _band(ops.p, a)[:, None] * _band(rp_t, b)[:, None, :]
    return stencil.reshape(len(WEIGHTS), 9, ops.d, ops.d)


class _Stencil:
    """The generator L(t) of one mode as a nine-point stencil.

    rho is held in a ``buffer``: row-major with the odd row stride D = d | 1
    (a zero pad column when d is even) and 2 D zeros on either side.  The
    flat index m D + n then has the parity of m + n, and the offset
    (u + v, u - v) is u (D + 1) + v (D - 1), so one strided view reads all
    nine neighbours of every entry.  L never mixes the two parities, so only
    the ``sectors`` given are stepped: every entry from the first sector on
    (both sectors) or every other one (one sector), the ``size`` stepped
    entries.

    ``weights`` holds the stencil of the weights that are nonzero in the
    mode (``live``) on the stepped entries, as a real (w, 18 size) matrix,
    so the generator at one time is one product with the coefficient row.
    """

    def __init__(self, ops: FockOperators, mode: str, sectors=(0, 1)):
        d = ops.d
        self.d, self.stride = d, d | 1
        self.pad = 2 * self.stride
        self.step = 2 if len(sectors) == 1 else 1
        self.first = self.pad + sectors[0]
        self.size = len(range(sectors[0], d * self.stride, self.step))
        table = stencil_table(ops, mode)
        self.live = np.flatnonzero(np.any(table != 0, axis=(1, 2, 3)))
        padded = np.zeros((len(self.live), 9, d, self.stride), dtype=complex)
        padded[..., :d] = table[self.live]
        stepped = padded.reshape(len(self.live), 9, -1)[..., sectors[0] :: self.step]
        self.weights = np.ascontiguousarray(stepped).view(float).reshape(len(self.live), -1)
        self._products = np.empty((9, self.size), dtype=complex)

    def buffer(self) -> np.ndarray:
        """A zero buffer for rho."""
        return np.zeros(self.d * self.stride + 2 * self.pad, dtype=complex)

    def rho(self, buffer: np.ndarray) -> np.ndarray:
        """The (d, d) view of the rho held in ``buffer``."""
        inner = buffer[self.pad : self.pad + self.d * self.stride]
        return inner.reshape(self.d, self.stride)[:, : self.d]

    def stepped(self, buffer: np.ndarray) -> np.ndarray:
        """The (size,) view of the stepped entries in ``buffer``."""
        return buffer[self.first : self.pad + self.d * self.stride : self.step]

    def at(self, row, out=None) -> np.ndarray:
        """The (9, size) stencil at one coefficient row, written into ``out`` if given."""
        out = np.empty((9, self.size), dtype=complex) if out is None else out
        np.dot(row[self.live], self.weights, out=out.view(float).reshape(-1))
        return out

    def neighbours(self, buffer: np.ndarray) -> np.ndarray:
        """The (3, 3, size) read-only view of the nine neighbours of each stepped entry."""
        row, item = self.stride, buffer.itemsize
        return as_strided(
            buffer[self.first - 2 * row :],
            shape=(3, 3, self.size),
            strides=((row + 1) * item, (row - 1) * item, self.step * item),
            writeable=False,
        )

    def apply(self, stencil: np.ndarray, neighbours: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L(rho) on the stepped entries into ``out``, from the ``neighbours`` view of rho."""
        products = self._products.reshape(neighbours.shape)
        np.multiply(stencil.reshape(neighbours.shape), neighbours, out=products)
        return np.add.reduce(self._products, axis=0, out=out)


def generator(coeffs_at_t: dict, d: int, mode: str):
    """L at one time for one mode as rho -> L(rho): the RK4 loop's kernel, both sectors."""
    stencil = _Stencil(fock_operators(d), mode)
    coef = stencil.at(np.array([1.0] + [coeffs_at_t.get(k, 0.0) for k in WEIGHTS[1:]]))

    def apply(rho: np.ndarray) -> np.ndarray:
        buffer = stencil.buffer()
        stencil.rho(buffer)[...] = rho
        out = stencil.apply(coef, stencil.neighbours(buffer), np.empty(stencil.size, complex))
        return out.reshape(d, stencil.stride)[:, :d]

    return apply


@dataclass(frozen=True)
class OracleTrajectory(ObservableSeries):
    """The moments of one oracle mode, with its guard readings and final rho."""

    trace_error: float
    herm_drift: float
    max_leakage: float
    rho_final: np.ndarray
    sectors: tuple  # the parity sectors stepped, names from ``SECTORS``


def integrate_modes(
    rho0: np.ndarray,
    coeffs: CoefficientTable,
    modes,
    *,
    leakage_threshold: float = 1e-6,
) -> dict:
    """RK4 integration of the master equation in several modes.

    Every mode starts from ``rho0`` and gets its own trajectory and guards.
    Only the parity sectors in which rho0 has a nonzero entry are stepped; L
    keeps the other one exactly zero.  Coefficients at half-steps come from
    linear interpolation, each rho is re-hermitized every step with the
    drift recorded, and population in the top three levels above the
    threshold aborts the run, naming the mode; so does a final rho with an
    entry |rho_mn| > 1 (StabilityError).  Returns ``{mode: OracleTrajectory}``.

    Each mode is one RK4 loop, run in this process, or in a forked child for
    every mode after the first where more than one CPU is usable; the
    trajectories are the same bit for bit.  Either way the error raised is
    that of the first failing mode in the order given.
    """
    modes = tuple(modes)
    if not modes or len(set(modes)) != len(modes):
        raise ValidationError(f"oracle modes must be distinct and non-empty, got {modes}")
    for mode in modes:
        if mode not in MODES:
            raise ValidationError(f"unknown oracle mode {mode!r}; expected one of {MODES}")
    rho0 = np.array(rho0, dtype=complex)
    d = rho0.shape[0]
    ops = fock_operators(d)
    lk = float(np.sum(np.diagonal(rho0).real[-3:]))
    if not lk <= leakage_threshold:  # NaN trips it too
        raise LeakageError(
            f"initial state already leaks {lk:.2e} into the top levels; increase d beyond {d}"
        )
    parity = np.add.outer(np.arange(d), np.arange(d)) % 2
    occupied = [s for s in (0, 1) if np.any(rho0[parity == s])]
    sectors = tuple(occupied) if len(occupied) == 1 else (0, 1)

    args = (rho0, ops, coeffs, sectors, leakage_threshold)
    if _usable_cpus() == 1:
        return {mode: _integrate_mode(mode, *args) for mode in modes}
    children = []
    try:
        for mode in modes[1:]:
            children.append((mode, *_fork_mode(mode, *args)))
        own = _integrate_mode(modes[0], *args)
    finally:
        replies = _replies(children)
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return dict(zip(modes, [own, *replies]))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fork_mode(mode, *args) -> tuple:
    """Run ``_integrate_mode`` in a forked child: its pid and the read end of its reply pipe.

    The child pickles the mode's trajectory, or the exception it raised, into
    the pipe and ends with ``os._exit``, so it never returns into the
    caller's code or runs its exit handlers; an interrupt ends it with
    status 1 and no reply.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                reply = _integrate_mode(mode, *args)
            except Exception as error:  # raised again by the parent
                reply = error
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _replies(children) -> list:
    """The reply of each ``(mode, pid, read end)`` child, once every child is reaped.

    A child that ends without a reply gives a ``NumericalError`` naming its
    mode and exit status in place of one.
    """
    replies = []
    for mode, pid, read in children:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status == 0:
            replies.append(pickle.loads(data))
        else:
            replies.append(
                NumericalError(
                    f"the oracle worker for mode {mode!r} ended with exit status "
                    f"{status} before it sent its trajectory"
                )
            )
    return replies


def _integrate_mode(mode, rho0, ops, coeffs, sectors, leakage_threshold) -> OracleTrajectory:
    """Step one mode from ``rho0`` through one RK4 loop, on the given sectors.

    Raises the error of the first guard that trips: leakage after a step, or
    the |rho_mn| <= 1 check at the end of the run.
    """
    d = ops.d
    t = coeffs.grid
    n = len(t)
    gen = _Stencil(ops, mode, sectors)
    rows = np.column_stack([np.ones(n)] + [getattr(coeffs, k) for k in WEIGHTS[1:]])

    moments = np.empty((ops.moment_map.shape[1] - 1, n))
    trace_err = herm_drift = 0.0
    # the entries of the moment map, as indices into a buffer
    level, column = np.divmod(ops.moment_support, d)
    support = gen.pad + level * gen.stride + column

    def leakage(rho) -> float:
        return float(np.sum(np.diagonal(rho).real[-3:]))

    def record(i, state) -> float:
        """Store the moments at node i and return the trace."""
        # a (1, k) @ (k, 6) matmul: a vector-matrix product may round differently
        traces = (state[None, support] @ ops.moment_map)[0].real
        moments[:, i] = traces[:-1]
        return traces[-1]

    state, stage = gen.buffer(), gen.buffer()
    rho = gen.rho(state)
    rho[...] = rho0
    v, v_stage = gen.stepped(state), gen.stepped(stage)
    reads, stage_reads = gen.neighbours(state), gen.neighbours(stage)
    max_leak = leakage(rho0)
    record(0, state)

    node = gen.at(rows[0])
    mid, nxt = np.empty_like(node), np.empty_like(node)
    acc, k, scaled = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    dag, diff, size = np.empty_like(rho), np.empty_like(rho), np.empty(rho.shape)
    for i in range(n - 1):
        h = t[i + 1] - t[i]
        gen.at(0.5 * (rows[i] + rows[i + 1]), mid)
        gen.at(rows[i + 1], nxt)
        # rho + (h/6)(k1 + 2 k2 + 2 k3 + k4), summed in that order, on the
        # stepped entries of rho; each stage's argument is written into the
        # stepped entries of ``stage``
        ki = gen.apply(node, reads, acc)
        for weight, step, stencil in ((2.0, 0.5 * h, mid), (2.0, 0.5 * h, mid), (1.0, h, nxt)):
            np.add(v, np.multiply(step, ki, out=scaled), out=v_stage)
            ki = gen.apply(stencil, stage_reads, k)
            acc += np.multiply(weight, ki, out=scaled)
        v += np.multiply(h / 6.0, acc, out=acc)
        node, nxt = nxt, node

        np.conjugate(rho.T, out=dag)
        np.abs(np.subtract(rho, dag, out=diff), out=size)
        herm_drift = max(herm_drift, float(size.max()))
        np.multiply(0.5, np.add(rho, dag, out=diff), out=rho)

        lk = leakage(rho)
        max_leak = max(max_leak, lk)
        if lk > leakage_threshold:
            raise LeakageError(
                f"oracle mode {mode!r}: truncation leakage {lk:.2e} exceeded "
                f"{leakage_threshold:.2e} at t={t[i + 1]:g}; {_remedy(d, h)}"
            )
        trace_err = max(trace_err, abs(float(record(i + 1, state)) - 1.0))

    # the leakage guard reads only the top populations, which an unstable
    # step need not move: at alpha = 0 nothing couples the growing
    # off-diagonal entries to them
    largest = float(np.abs(rho).max())
    if not largest <= _DENSITY_ENTRY_BOUND:  # NaN trips it too
        raise StabilityError(
            f"oracle mode {mode!r}: |rho_mn| reached {largest:.3g} > 1 by "
            f"t={t[-1]:g}, so rho is no longer a density matrix; "
            f"{_remedy(d, np.diff(t).max())}"
        )
    # the rows of ``moments`` are X, P, X^2, P^2, XP+PX: the fields' order
    return OracleTrajectory(
        t,
        *moments,
        trace_error=trace_err,
        herm_drift=herm_drift,
        max_leakage=max_leak,
        rho_final=np.array(rho),
        sectors=tuple(SECTORS[s] for s in sectors),
    )


def _remedy(d: int, h: float) -> str:
    """What an abort at step h and dimension d asks for: a smaller step, then a larger d."""
    remedy = f"increase the oracle dimension beyond {d}"
    if (d - 1) * h > _RK4_IMAGINARY_REACH:
        # the rotation -i[h0, .] has eigenvalues +-i(m - n) up to +-i(d - 1)
        limit = _RK4_IMAGINARY_REACH / (d - 1)
        remedy = (
            f"the RK4 step h={h:.3g} is past its stability limit "
            f"2*sqrt(2)/(d-1)={limit:.3g} at d={d}, so lower grid.dt below "
            f"{limit:.3g} before you {remedy}"
        )
    return remedy


# ---------------------------------------------------------------------------
# initial states


def to_density_matrix(state, d: int) -> np.ndarray:
    """Truncated density matrix for a qcf initial state (renormalized)."""
    from qbm import qcf

    if isinstance(state, qcf.CoherentState):
        alpha = (state.x0 + 1j * state.p0) / np.sqrt(2.0)
        n = np.arange(d)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])
        amp = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * np.abs(alpha) ** n
        phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones(d)
        psi = amp * phase
        rho = np.outer(psi, psi.conj())
    elif isinstance(state, qcf.ThermalState):
        nb = state.nbar
        if nb == 0:
            rho = np.zeros((d, d), dtype=complex)
            rho[0, 0] = 1.0
        else:
            w = (nb / (nb + 1.0)) ** np.arange(d) / (nb + 1.0)
            rho = np.diag(w).astype(complex)
    elif isinstance(state, qcf.FockState):
        if state.n >= d - INTERIOR_MARGIN:
            raise ValidationError(f"Fock level {state.n} too close to truncation d={d}")
        rho = np.zeros((d, d), dtype=complex)
        rho[state.n, state.n] = 1.0
    elif isinstance(state, qcf.SqueezedVacuum):
        # S(r) = exp(-iH) with H = (i r / 2)(a^2 - a^dag^2) Hermitian, so
        # S|0> = V e^{-i lambda} V^dag |0> from H = V diag(lambda) V^dag;
        # the rotation exp(-i phi n) is diagonal
        a = fock_operators(d).a
        a2 = a @ a
        lam, v = np.linalg.eigh(0.5j * state.r_sq * (a2 - a2.conj().T))
        squeezed = v @ (np.exp(-1j * lam) * v[0].conj())
        # S(r) is quadratic in a and a^dag, so the odd levels are exactly zero
        # (eigh leaves ~1e-17 of rounding there)
        squeezed[1::2] = 0.0
        psi = np.exp(-1j * state.phi * np.arange(d)) * squeezed
        rho = np.outer(psi, psi.conj())
    else:
        raise ValidationError(
            f"no Fock-space representation for state {type(state).__name__}"
        )
    tr = np.trace(rho).real
    if not tr > 0:  # every amplitude underflowed: 0/0 would hand NaN to the guards
        raise LeakageError(
            f"{state!r} leaks its whole population out of the d={d} Fock basis "
            f"(truncated trace {tr:.3g}); it cannot be represented at this dimension"
        )
    return rho / tr


# ---------------------------------------------------------------------------
# characteristic function from rho


def chi_from_rho(rho: np.ndarray, z) -> complex:
    """tr{ exp(i (p X - x P)) rho } with a truncation-headroom guard."""
    z = np.asarray(z, dtype=float).reshape(2)
    x, p = z
    d = rho.shape[0]
    ops = fock_operators(d)
    pops = np.clip(np.diag(rho).real, 0.0, None)
    tail = np.cumsum(pops[::-1])[::-1]
    occupied = np.nonzero(tail > 1e-10)[0]
    n_eff = int(occupied[-1]) if len(occupied) else 0
    # displaced-state headroom: population around n_eff moves up by the
    # coherent load |z|^2/2 with Poissonian spread; five widths of margin
    # keeps the truncated Weyl exponential accurate past 1e-8
    load = n_eff + 0.5 * (x**2 + p**2)
    if load + 5.0 * np.sqrt(load + 1.0) > d - 1:
        raise TruncationError(
            f"|z|={np.hypot(x, p):.3g} displaces past the truncation at d={d}; "
            f"need roughly d > {int(load + 5 * np.sqrt(load + 1) + 1)}"
        )
    herm = p * ops.x - x * ops.p
    evals, evecs = np.linalg.eigh(herm)
    weyl = (evecs * np.exp(1j * evals)) @ evecs.conj().T
    return complex(np.einsum("ij,ji->", weyl, rho))


# ---------------------------------------------------------------------------
# superoperator algebra suite


@dataclass(frozen=True)
class AlgebraCheck:
    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class AlgebraReport:
    d: int
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            yield f"{c.name:24s} residual={c.residual:.3e} threshold={c.threshold:.1e} {'pass' if c.passed else 'FAIL'}"

    def __getitem__(self, name: str) -> AlgebraCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _interior_max(m: np.ndarray, top: int) -> float:
    block = m[: top + 1, : top + 1]
    return float(np.max(np.abs(block)))


def _comm(a, b):
    return a @ b - b @ a


def _acomm(a, b):
    return a @ b + b @ a


def _apply_n(x, p, sigma):
    return -0.5j * (_acomm(p, _comm(x, sigma)) - _acomm(x, _comm(p, sigma)))


def algebra_suite(d: int) -> AlgebraReport:
    """Numerical check of the commutator/anticommutator superoperator algebra.

    All identities are applied to Hermitian test operators supported on
    levels 0..d-6, where the truncated ladder algebra is exact, and the
    residuals of the ladder-built eigenrelations are read off the same
    interior block.  The Weyl eigenoperator residual is measured on a fixed
    window (levels 0..14) whose distance from the truncation edge grows
    with d, so it is the one residual that genuinely shrinks with d: its
    size is set by how much the truncated Weyl exponential at amplitude |z|
    differs from the true one inside the window.  The test operators are
    drawn from a fixed seed and the Weyl amplitude is fixed, so the report
    is reproducible.
    """
    if d < 20:
        raise ValidationError("algebra suite needs d >= 20")
    ops = fock_operators(d)
    x, p = ops.x, ops.p
    top = d - 1 - INTERIOR_MARGIN
    rng = np.random.default_rng(_TEST_OP_SEED)

    def interior_test_op() -> np.ndarray:
        m = rng.normal(size=(top + 1, top + 1)) + 1j * rng.normal(size=(top + 1, top + 1))
        m = 0.5 * (m + m.conj().T)
        out = np.zeros((d, d), dtype=complex)
        out[: top + 1, : top + 1] = m / np.max(np.abs(m))
        return out

    sig1 = interior_test_op()
    sig2 = interior_test_op()
    checks = []

    def add(name, residual, threshold):
        checks.append(AlgebraCheck(name, float(residual), threshold, residual < threshold))

    eye = np.eye(d, dtype=complex)
    add("s_on_identity", np.max(np.abs(_comm(x, eye))), 1e-12)
    add("sigma_on_identity", np.max(np.abs(_acomm(x, eye) - 2.0 * x)), 1e-12)

    for name, sig in (("a", sig1), ("b", sig2)):
        r1 = _comm(x, _comm(p, sig)) - _comm(p, _comm(x, sig))
        add(f"comm_xs_ps_{name}", np.max(np.abs(r1)), 1e-10)
        r2 = _comm(x, _acomm(p, sig)) - _acomm(p, _comm(x, sig)) - 2j * sig
        add(f"comm_xs_psig_{name}", np.max(np.abs(r2)), 1e-10)
        r3 = _acomm(x, _comm(p, sig)) - _comm(p, _acomm(x, sig)) - 2j * sig
        add(f"comm_xsig_ps_{name}", np.max(np.abs(r3)), 1e-10)

    for label, op in (("x", x), ("p", p)):
        r = _comm(op, _acomm(op, sig1)) - _comm(op @ op, sig1)
        add(f"square_{label}", np.max(np.abs(r)), 1e-10)

    # degree-counting eigenrelations, interior entries only: the corrupted
    # band of truncated powers stays near the truncation edge for n <= 3
    wx, wp = 0.7, -0.4
    mix = wp * x - wx * p
    for label, base in (("x", x), ("p", p), ("mix", mix)):
        worst = 0.0
        power = np.eye(d, dtype=complex)
        for n_pow in range(1, 4):
            power = power @ base
            res = _apply_n(x, p, power) - n_pow * power
            worst = max(worst, _interior_max(res, top))
        add(f"n_eigen_{label}", worst, 1e-10)

    # Weyl eigenrelation on the fixed interior window
    zx, zp = _WEYL_Z
    herm = zp * x - zx * p
    evals, evecs = np.linalg.eigh(herm)
    weyl = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
    window = min(_WEYL_WINDOW_TOP, top)
    res_x = _comm(x, weyl) + zx * weyl
    res_p = _comm(p, weyl) + zp * weyl
    weyl_residual = max(_interior_max(res_x, window), _interior_max(res_p, window))
    add("weyl_eigen", weyl_residual, _weyl_bound(d, window, zx, zp))

    # invariance of the damping counter under quadratic Hamiltonians; the
    # renormalized Hamiltonian is read off the unitary table, K = -i Hbar_0
    row = np.array([1.0, 0.0, 0.0, 0.1, 0.05])  # r = 0.1, gamma = 0.05
    h = 1j * np.tensordot(row, term_table(ops, "unitary")[:, _K], axes=1)
    res = _apply_n(x, p, _comm(h, sig1)) - _comm(h, _apply_n(x, p, sig1))
    add("n_comm_hamiltonian", np.max(np.abs(res)), 1e-8)

    mbar = np.array([[0.3, -0.05], [-0.05, 0.1]])

    def dbar_apply(sig):
        return (
            mbar[0, 0] * _comm(x, _comm(x, sig))
            + mbar[0, 1] * (_comm(x, _comm(p, sig)) + _comm(p, _comm(x, sig)))
            + mbar[1, 1] * _comm(p, _comm(p, sig))
        )

    res = (
        _apply_n(x, p, dbar_apply(sig1))
        - dbar_apply(_apply_n(x, p, sig1))
        + 2.0 * dbar_apply(sig1)
    )
    add("n_comm_diffusion", np.max(np.abs(res)), 1e-8)

    coeff_row = {"delta_bar": 0.3, "pi": 0.1, "r": 0.1, "gamma": 0.05}
    worst = 0.0
    for mode in ("full", "norenorm", "rwa"):
        worst = max(worst, abs(np.trace(generator(coeff_row, d, mode)(sig1))))
    add("generator_traceless", worst, 1e-10)

    return AlgebraReport(d=d, checks=tuple(checks))


def _weyl_bound(d: int, window: int, zx: float, zp: float) -> float:
    """Heuristic truncation bound for the Weyl eigenrelation residual.

    The displaced-state amplitude connecting the measurement window to the
    truncation edge controls the corruption; a Poisson-tail estimate with a
    generous prefactor serves as the pass threshold.
    """
    lam = 0.5 * (zx**2 + zp**2)
    gap = max(d - 1 - window, 1)
    log_amp = 0.5 * (gap * np.log(max(lam, 1e-300)) - math.lgamma(gap + 1.0) - lam)
    bound = 1e4 * np.sqrt(d) * np.exp(2.0 * min(log_amp, 0.0))
    return float(max(bound, 3e-11))


def write_algebra_report(report: AlgebraReport, path) -> None:
    write_text(path, [f"# superoperator algebra suite, d={report.d}", *report.lines()])
