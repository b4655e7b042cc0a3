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
with numpy alone, on the offsets the mode moves rho by (all nine in full
and norenorm, three in rwa, whose L keeps m - n) and on one Hermitian half
of rho, its diagonals m - n >= 0 folded into a rectangle.  L is invariant
under (X, P) -> (-X, -P), so it never mixes entries of even and odd m + n:
the RK4 loop steps only the parity sectors in which rho0 has a nonzero
entry (the Fock, thermal and squeezed states occupy the even one alone).
``generator(coeffs_at_t, d, mode)`` returns the same kernel, on every
diagonal, as the function rho -> L(rho) on d x d matrices, and the algebra
suite checks it, so there is one master equation.

``integrate`` steps one mode through its own RK4 loop.  A mode's arithmetic
does not depend on the other modes, so ``qbm run`` hands one ``integrate``
call per mode to ``qbm.workers.spread``, which steps them in parallel where
it can, and every trajectory, and every artifact written from it, is the
same bit for bit whether the modes run in turn or in parallel.

Truncation hygiene: the oracle truncates the master equation, not its
operators.  X^2, P^2 and XP + PX are formed on d + 1 levels and cropped to
d, XP is ((XP + PX) + i)/2 and [X, P] is i exactly, so the generator is
P L(P rho P) P, the projection of the untruncated equation onto the first d
levels: exact on every entry whose neighbours lie in the basis, it drops
only the flow out of the top level, and has no growing mode of its own.
The moments are read with the same cropped operators.  States must still
stay away from the top of the basis (the leakage monitor aborts
otherwise), and algebra residuals are measured on interior matrix blocks
where the truncated ladder operators act exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from qbm.coefficients import CoefficientTable
from qbm.config import LEAKAGE_THRESHOLD, MAX_DIMENSION, MIN_DIMENSION
from qbm.errors import LeakageError, StabilityError, ValidationError
from qbm import qcf

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
    # tr(A rho) for A in X, P, X^2, P^2, XP+PX, 1 and the projector on the
    # top three levels (the moments, the trace, then the leakage) is
    # rho.ravel() @ traced: seven columns A^T.ravel()
    traced: np.ndarray = field(repr=False, default=None)


def fock_operators(d: int) -> FockOperators:
    if not MIN_DIMENSION <= d <= MAX_DIMENSION:
        raise ValidationError(f"Fock truncation needs {MIN_DIMENSION} <= d <= {MAX_DIMENSION}, not {d}")
    # the products are taken on d + 1 levels and cropped to d: a product of
    # two d-level truncations is wrong in its last entry
    a = np.zeros((d + 1, d + 1), dtype=complex)
    a[np.arange(d), np.arange(1, d + 1)] = np.sqrt(np.arange(1, d + 1, dtype=float))
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    crop = np.s_[:d, :d]
    x2, p2, xppx = (x @ x)[crop], (p @ p)[crop], (x @ p + p @ x)[crop]
    a, x, p = a[crop], x[crop], p[crop]
    top = np.diag((np.arange(d) >= d - 3).astype(float))
    return FockOperators(
        d=d,
        a=a,
        x=x,
        p=p,
        x2=x2,
        p2=p2,
        xppx=xppx,
        h0=0.5 * (x2 + p2),
        traced=np.stack([op.T.reshape(-1) for op in (x, p, x2, p2, xppx, np.eye(d), top)], axis=1),
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
        table[piv, _K] = 0.5 * (ops.xppx + 1j * np.eye(d))  # XP, with [X, P] = i
        table[piv, _RX] = -p
        table[piv, _RP] = -x
    # gamma (N + 2), the 2 split evenly between K and K^dag: K = 0.5i [X, P] + 1
    table[gam, _K] += 0.5 * np.eye(d)
    table[gam, _RX] = -1j * p
    table[gam, _RP] = 1j * x
    return table


# K has the bands 0 and +-2 and R_x, R_p the bands +-1, so L moves the entry
# (m, n) of rho by one of nine offsets (a, b) = (u + v, u - v), u, v in
# {-1, 0, 1}: a nine-point stencil, offset o = 3 (u + 1) + (v + 1).
def stencil_table(ops: FockOperators, mode: str, m, n) -> np.ndarray:
    """The (5, 9, len(m)) stencil per weight of ``WEIGHTS`` at the entries (m, n).

    Entry [w, o, i] multiplies rho[m_i + a, n_i + b] in L_w(rho)[m_i, n_i],
    and is zero where that neighbour leaves the basis.  It is read off
    ``term_table``: K rho gives K[m, m + a], rho K^dag gives conj K[n, n + b],
    and (X rho) R_x + (P rho) R_p give X[m, m + a] R_x[n + b, n] +
    P[m, m + a] R_p[n + b, n].  rho K^dag is its own term: taking it as
    (K rho)^dag would make the hermiticity drift vanish by construction.
    """
    table = term_table(ops, mode)
    k, rx, rp = table[:, _K], table[:, _RX], table[:, _RP]
    m, n, d = np.asarray(m), np.asarray(n), ops.d
    stencil = np.zeros((len(WEIGHTS), 3, 3, len(m)), dtype=complex)
    for u in (-1, 0, 1):
        for v in (-1, 0, 1):
            a, b = u + v, u - v
            inside = np.flatnonzero((0 <= m + a) & (m + a < d) & (0 <= n + b) & (n + b < d))
            mi, ni = m[inside], n[inside]
            cell = np.zeros((len(WEIGHTS), len(inside)), dtype=complex)
            if b == 0:
                cell += k[:, mi, mi + a]
            if a == 0:
                cell += k[:, ni, ni + b].conj()
            if abs(a) == 1:
                cell += ops.x[mi, mi + a] * rx[:, ni + b, ni]
                cell += ops.p[mi, mi + a] * rp[:, ni + b, ni]
            stencil[:, u + 1, v + 1, inside] = cell
    return stencil.reshape(len(WEIGHTS), 9, len(m))


class _Stencil:
    """The generator L(t) of one mode as a stencil on one Hermitian half of rho.

    One half of rho is stepped, folded into a rectangle as in the rectangular
    full packed format (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS
    37(2), 18, 2010).  The ``diagonals`` K = m - n >= 0 stepped are
    range(s, d, 2) for a state in parity sector s alone (m + n and m - n
    share their parity), else range(d).  In rows of L = 2d - K[0] - K[-1]
    slots, row i holds (n + K[i], n) at slot n and (n - K[-1-i], n), of
    K[-1-i]'s conjugate partner, at slot L - d + n; the first ``size`` slots
    from row 0 hold each entry of the half ``once`` (an odd middle row's
    conjugate half lies past them).  The offset (u + v, u - v) moves m - n by
    2v, 2v / step rows, and n by u - v: the slot offset u + v ``stride``,
    stride = (2 // step) L - 1, so one strided view reads the neighbours over
    the mode's ``cells``, the (u, v) box where its ``stencil_table`` at the
    stepped entries is nonzero; the stencil is built at those entries alone.
    ``weights`` holds each slot's stencil in that order for the ``live``
    weights.  ``fill`` writes the conjugates of their mirrors into
    the slots read in the 2 // step ghost rows (k < 0) before the stepped
    ones and in those after (rwa reads none).  The moments are one real
    product over the stepped entries: tr(A rho) = sum A_mm rho_mm + 2 Re A_nm rho_mn.
    """

    def __init__(self, ops: FockOperators, mode: str, diagonals: range):
        d = self.d = ops.d
        reach, rows = 2 // diagonals.step, (len(diagonals) + 1) // 2
        span = diagonals[0] + diagonals[-1]
        width = 2 * d - span
        self.stride = reach * width - 1
        k = diagonals[0] + diagonals.step * np.arange(-reach, rows + reach)[:, None]
        # the entry (m, n) each slot holds, if any: rho is loaded as buffer[held] = rho[entries]
        slot = np.arange(width)
        negative = slot - (width - d)
        positive = (slot < d) & (slot + k >= 0) & (slot + k < d)
        m = np.where(positive, slot + k, negative + k - span).ravel()
        n = np.where(positive, slot, negative).ravel()
        held = (m >= 0) & (n >= 0)
        self.length, self.held, self.entries = m.size, np.flatnonzero(held), (m[held], n[held])
        self.first, self.size = reach * width, sum(d - k for k in diagonals)
        self.stepped = slice(self.first, self.first + self.size)
        slots = np.arange(self.length)[self.stepped]
        rm, rn = m[self.stepped], n[self.stepped]
        slot_of = np.full((d, d), -1)
        slot_of[rm, rn] = slots
        table = stencil_table(ops, mode, rm, rn).reshape(len(WEIGHTS), 3, 3, self.size)
        nonzero = table != 0
        self.live = np.flatnonzero(np.any(nonzero, axis=(1, 2, 3)))
        # the (u, v) box of the offsets the mode moves rho by
        u, v = (np.flatnonzero(np.any(nonzero, axis=(0, other, 3))) for other in (2, 1))
        table = table[self.live, u[0] : u[-1] + 1, v[0] : v[-1] + 1]
        self.cells = table.shape[1:3]
        offsets = self.cells[0] * self.cells[1]
        weights = table.reshape(len(self.live), offsets, self.size)
        self.weights = weights.view(float).reshape(len(self.live), -1)
        self._products = np.empty((offsets, self.size), dtype=complex)
        self.corner = (u[0] - 1) + (v[0] - 1) * self.stride
        reads = self.neighbours(np.arange(self.length)).reshape(offsets, -1)
        read = np.bincount(reads[np.any(weights != 0, axis=0)], minlength=self.length) > 0
        read[self.stepped] = False
        self.ghosts = np.flatnonzero(read)
        self.mirrors = slot_of[n[self.ghosts], m[self.ghosts]]
        self.once = slots, rm, rn
        traced = ops.traced[rm * d + rn] * np.where(rm == rn, 1.0, 2.0)[:, None]
        support = np.any(traced != 0, axis=1)
        self.support = slots[support]
        self.moment_map = np.stack([traced.real, -traced.imag], axis=1)[support].reshape(-1, 7)

    def buffer(self) -> np.ndarray:
        """A zero buffer for rho."""
        return np.zeros(self.length, dtype=complex)

    def fill(self, buffer: np.ndarray) -> None:
        """Write into each ghost slot that an owned slot reads the conjugate of its mirror."""
        if len(self.ghosts):
            buffer[self.ghosts] = np.conjugate(buffer[self.mirrors])

    def matrix(self, buffer: np.ndarray) -> np.ndarray:
        """The Hermitian (d, d) rho whose half ``buffer`` holds."""
        slots, m, n = self.once
        rho = np.zeros((self.d, self.d), dtype=complex)
        rho[n, m] = buffer[slots].conj()
        rho[m, n] = buffer[slots]
        return rho

    def at(self, row, out=None) -> np.ndarray:
        """The (offsets, size) stencil at one coefficient row, written into ``out`` if given."""
        out = np.empty_like(self._products) if out is None else out
        np.dot(row[self.live], self.weights, out=out.view(float).reshape(-1))
        return out

    def neighbours(self, buffer: np.ndarray) -> np.ndarray:
        """The (u, v, size) read-only view of the neighbours of each stepped slot."""
        item = buffer.itemsize
        return as_strided(
            buffer[self.first + self.corner :],
            shape=(*self.cells, self.size),
            strides=(item, self.stride * item, item),
            writeable=False,
        )

    def apply(self, stencil: np.ndarray, neighbours: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L(rho) on the stepped slots into ``out``, from the ``neighbours`` view of rho."""
        products = self._products.reshape(neighbours.shape)
        np.multiply(stencil.reshape(neighbours.shape), neighbours, out=products)
        return np.add.reduce(self._products, axis=0, out=out)


def generator(coeffs_at_t: dict, d: int, mode: str):
    """L at one time for one mode as rho -> L(rho): the RK4 loop's kernel on every diagonal.

    L(rho) on the entries the kernel steps, the other half as L(rho^dag)^dag.
    """
    stencil = _Stencil(fock_operators(d), mode, range(d))
    coef = stencil.at(np.array([1.0] + [coeffs_at_t.get(k, 0.0) for k in WEIGHTS[1:]]))
    _, m, n = stencil.once

    def half(rho: np.ndarray) -> np.ndarray:
        buffer, out = stencil.buffer(), stencil.buffer()
        buffer[stencil.held] = rho[stencil.entries]
        stencil.apply(coef, stencil.neighbours(buffer), out[stencil.stepped])
        return stencil.matrix(out)

    def apply(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = half(rho.conj().T).conj().T
        out[m, n] = half(rho)[m, n]
        return out

    return apply


@dataclass(frozen=True)
class OracleTrajectory(qcf.ObservableSeries):
    """The moments of one oracle mode, with its guard readings and final rho."""

    trace_error: float
    herm_drift: float
    max_leakage: float
    rho_final: np.ndarray
    sectors: tuple  # the parity sectors stepped, names from ``SECTORS``


def check_initial_leakage(rho0: np.ndarray, leakage_threshold: float = LEAKAGE_THRESHOLD) -> None:
    """Raise ``LeakageError`` if the top three populations on rho0's diagonal pass the threshold."""
    rho0 = np.asarray(rho0, dtype=complex)
    d = len(rho0)
    lk = float(np.diagonal(rho0)[-3:].real.sum())
    if not lk <= leakage_threshold:  # NaN trips it too
        raise LeakageError(
            f"initial state already leaks {lk:.2e} into the top levels of the d={d} basis, "
            f"above {leakage_threshold:.2e}; increase oracle.dimension beyond {d}"
        )


def integrate(
    rho0: np.ndarray,
    coeffs: CoefficientTable,
    mode: str,
    *,
    leakage_threshold: float = LEAKAGE_THRESHOLD,
) -> OracleTrajectory:
    """RK4 integration of the master equation in one mode, from ``rho0``.

    One Hermitian half of rho is stepped: a rho0 not Hermitian to 1e-12
    raises ValidationError.  Only the parity sectors in which rho0 has a
    nonzero entry are stepped; L keeps the other one exactly zero.  The
    ghosts of the half are filled before each stage.  Coefficients at
    half-steps come from linear interpolation.  Each node is read by one
    real product with ``moment_map``: the moments, the trace and the
    leakage.  Population in the top three levels beyond the threshold, at
    t = 0 or after a step, aborts the run, naming the mode; so does a final
    rho with an entry |rho_mn| > 1 (StabilityError).
    """
    rho0 = np.array(rho0, dtype=complex)
    check_initial_leakage(rho0, leakage_threshold)
    if not (drift := np.abs(rho0 - rho0.conj().T).max()) <= 1e-12:  # far above rounding
        raise ValidationError(f"rho0 is not Hermitian: max|rho0 - rho0^dag| = {drift:.2e} > 1e-12")
    d = rho0.shape[0]
    occupied = {k % 2 for k in range(1 - d, d) if np.any(np.diagonal(rho0, k))}
    diagonals = range(min(occupied), d, 2) if len(occupied) == 1 else range(d)
    t = coeffs.grid
    n = len(t)
    gen = _Stencil(fock_operators(d), mode, diagonals)
    rows = np.column_stack([np.ones(n)] + [getattr(coeffs, k) for k in WEIGHTS[1:]])
    # one (1, 2k) @ (2k, 7) matmul per node: a vector-matrix product may round differently
    readout = np.empty((n, gen.moment_map.shape[1]))

    state, stage = gen.buffer(), gen.buffer()
    state[gen.held] = rho0[gen.entries]
    v, v_stage = state[gen.stepped], stage[gen.stepped]
    reads, stage_reads = gen.neighbours(state), gen.neighbours(stage)
    np.matmul(state[None, gen.support].view(float), gen.moment_map, out=readout[:1])

    node = gen.at(rows[0])
    mid, nxt = np.empty_like(node), np.empty_like(node)
    acc, k, scaled = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    for i in range(n - 1):
        h = t[i + 1] - t[i]
        gen.at(0.5 * (rows[i] + rows[i + 1]), mid)
        gen.at(rows[i + 1], nxt)
        # rho + (h/6)(k1 + 2 k2 + 2 k3 + k4), summed in that order, on the
        # stepped slots of rho; each stage's argument is written into the
        # stepped slots of ``stage``, and its ghosts filled
        ki = gen.apply(node, reads, acc)
        for weight, step, stencil in ((2.0, 0.5 * h, mid), (2.0, 0.5 * h, mid), (1.0, h, nxt)):
            np.add(v, np.multiply(step, ki, out=scaled), out=v_stage)
            gen.fill(stage)
            ki = gen.apply(stencil, stage_reads, k)
            acc += np.multiply(weight, ki, out=scaled)
        v += np.multiply(h / 6.0, acc, out=acc)
        gen.fill(state)
        node, nxt = nxt, node

        np.matmul(state[None, gen.support].view(float), gen.moment_map, out=readout[i + 1 : i + 2])
        lk = readout[i + 1, -1]
        if not abs(lk) <= leakage_threshold:  # NaN trips it too
            # more than the whole trace in the top levels, of either sign, is
            # a blow-up, not truncation
            raise LeakageError(
                f"oracle mode {mode!r}: truncation leakage {lk:.2e} exceeded "
                f"{leakage_threshold:.2e} in magnitude at t={t[i + 1]:g}; "
                f"{_remedy(d, h, None if abs(lk) <= 1.0 else rows)}"
            )

    rho = gen.matrix(state)
    # the leakage guard reads only the top populations, which an unstable
    # step need not move: at alpha = 0 nothing couples the growing
    # off-diagonal entries to them
    largest = float(np.abs(rho).max())
    if not largest <= _DENSITY_ENTRY_BOUND:  # NaN trips it too
        h = np.diff(t).max()
        coefficient = np.abs(rows[:, 1:]).max()
        # the dissipators' rates grow about as coefficient * (d - 1): far
        # inside RK4's reach on both, the step cannot have done this
        if (d - 1) * h <= _RK4_IMAGINARY_REACH and coefficient * (d - 1) * h <= 1.0:
            cause = (
                f"the step h={h:.3g} lies inside RK4's limits at d={d} and coefficients up to "
                f"{coefficient:.3g}, so the {mode} equation itself lost positivity; "
                "reservoir.alpha, reservoir.wc, reservoir.temperature and grid.t_max move "
                f"that, or leave {mode} out of run.modes"
            )
        else:
            cause = _remedy(d, h, rows)
        raise StabilityError(
            f"oracle mode {mode!r}: |rho_mn| reached {largest!r} > 1 by t={t[-1]:g}, "
            f"so rho is no longer a density matrix; {cause}"
        )
    # moment_map's columns: X, P, X^2, P^2, XP+PX (the fields' order), trace, leakage
    *moments, trace, leakage = readout.T
    return OracleTrajectory(
        t,
        *moments,
        trace_error=float(np.max(np.abs(trace[1:] - 1.0), initial=0.0)),
        herm_drift=float(np.abs(rho - rho.conj().T).max()),
        max_leakage=float(leakage.max()),
        rho_final=rho,
        sectors=SECTORS[diagonals.start :: diagonals.step],
    )


def _remedy(d: int, h: float, rows=None) -> str:
    """What an abort at step h and dimension d asks for; ``rows`` given marks a blow-up."""
    if (d - 1) * h > _RK4_IMAGINARY_REACH:
        # the rotation -i[h0, .] has eigenvalues +-i(m - n) up to +-i(d - 1)
        limit = _RK4_IMAGINARY_REACH / (d - 1)
        return (
            f"the RK4 step h={h:.3g} is past its stability limit "
            f"2*sqrt(2)/(d-1)={limit:.3g} at d={d}, so lower grid.dt below "
            f"{limit:.3g} before you increase oracle.dimension beyond {d}"
        )
    if rows is not None:  # within the step limit no larger d mends a blow-up
        return (
            f"rho blew up within RK4's step limit: the coefficients reach "
            f"{np.abs(rows[:, 1:]).max():.3g}, too large for h={h:.3g}; lower grid.dt, "
            "or the reservoir.alpha or reservoir.temperature that sets them"
        )
    return f"increase oracle.dimension beyond {d}"


# ---------------------------------------------------------------------------
# initial states


def to_density_matrix(state, d: int) -> np.ndarray:
    """Truncated density matrix for a qcf initial state (renormalized)."""
    if isinstance(state, qcf.CoherentState):
        alpha = (state.x0 + 1j * state.p0) / np.sqrt(2.0)
        n = np.arange(d)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])
        # far past the basis |alpha|^2 (numpy's **; Python's raises) or |alpha|^n overflows,
        # and rho is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            amp = np.exp(-0.5 * np.float64(abs(alpha)) ** 2 - 0.5 * log_fact) * np.abs(alpha) ** n
            psi = amp * np.exp(1j * n * np.angle(alpha))
            rho = np.outer(psi, psi.conj())
    elif isinstance(state, qcf.ThermalState):
        nb = state.nbar
        rho = np.diag((nb / (nb + 1.0)) ** np.arange(d) / (nb + 1.0)).astype(complex)
    elif isinstance(state, qcf.FockState):
        if state.n >= d - INTERIOR_MARGIN:
            raise ValidationError(
                f"Fock level {state.n} is too close to truncation d={d}; the oracle "
                f"needs oracle.dimension >= {state.n + INTERIOR_MARGIN + 1}"
            )
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
            f"{type(state).__name__} has no Fock-space form; remove oracle from run.modes"
        )
    tr = np.trace(rho).real
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho = rho / tr
    if not np.all(np.isfinite(rho)):  # every amplitude underflowed, or one overflowed
        raise LeakageError(
            f"{state!r} leaks its whole population out of the d={d} Fock basis "
            f"(truncated trace {tr:.3g}); it cannot be represented at this dimension"
        )
    return rho


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

