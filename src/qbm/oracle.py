"""Brute-force verifier on a truncated Fock basis.

Everything the analytic pipeline claims is re-derivable here the slow way:
X and P as dense matrices, the commutator (S) and anticommutator (Sigma)
superoperators as explicit d^2 x d^2 linear maps on row-major vectorized
operators (vec(rho) = rho.ravel()), the master equation integrated step by
step, and the superoperator algebra checked numerically.

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
coefficient row (1, delta_bar, pi, r, gamma).  ``_Generators`` turns the
tables of several modes into one block-diagonal sparse generator L(t) on
vec(rho); the RK4 loop steps on it, ``generator`` returns it for one mode,
and the algebra suite checks it, so there is one master equation.

Truncation hygiene: states must stay away from the top of the basis (the
leakage monitor aborts otherwise), and algebra residuals are measured on
interior matrix blocks where the truncated ladder operators act exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qbm.coefficients import CoefficientTable
from qbm.errors import LeakageError, TruncationError, ValidationError
from qbm.runio import write_text

INTERIOR_MARGIN = 5  # test operators / residuals live on levels 0 .. d-1-margin
_WEYL_WINDOW_TOP = 14  # fixed window so the Weyl residual shrinks as d grows
_WEYL_Z = (1.5, 1.5)  # phase-space point of the Weyl eigenrelation check
_TEST_OP_SEED = 7  # the algebra suite's random test operators


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
    # trace) is rho.ravel()[moment_support] @ moment_map: columns vec(A^T)
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


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization: entry (i, j) of rho sits at i * d + j."""
    return rho.reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, d)


def s_type(a: np.ndarray) -> np.ndarray:
    """Matrix of rho -> [a, rho] on row-major vec(rho)."""
    eye = np.eye(a.shape[0])
    return np.kron(a, eye) - np.kron(eye, a.T)


def sigma_type(a: np.ndarray) -> np.ndarray:
    """Matrix of rho -> {a, rho}."""
    eye = np.eye(a.shape[0])
    return np.kron(a, eye) + np.kron(eye, a.T)


def build_superops(ops: FockOperators) -> dict:
    """The d^2 x d^2 matrices of [X, .], [P, .], {X, .}, {P, .} and N, by name."""
    xs, ps = s_type(ops.x), s_type(ops.p)
    xsig, psig = sigma_type(ops.x), sigma_type(ops.p)
    return {"xs": xs, "ps": ps, "xsig": xsig, "psig": psig, "n": -0.5j * (psig @ xs - xsig @ ps)}


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


class _Generators:
    """The generators L(t) of several modes as one block-diagonal CSR matrix.

    Each mode's term table becomes five per-weight d^2 x d^2 generators on
    row-major vec(rho), kept on the union of their sparsity patterns; the
    modes are stacked block-diagonally.  ``weights`` holds, per mode, the
    (5, nnz) entries of its block as a real (5, 2 nnz) view, so the
    generator at one time is the coefficient row contracted into the CSR
    data.  Each mode's block is contracted by its own call on its own
    weights, so a mode gets the same generator alone or batched.
    """

    def __init__(self, ops: FockOperators, modes):
        from scipy import sparse

        eye = sparse.eye_array(ops.d, dtype=complex, format="csr")
        x, p = sparse.csr_array(ops.x), sparse.csr_array(ops.p)
        patterns, self.weights = [], []
        for mode in modes:
            # vec(A rho B) = (A kron B^T) vec(rho) on row-major vec, and
            # rho K^dag is its own term: taking it as (K rho)^dag would make
            # the hermiticity drift vanish by construction
            per_weight = [
                sparse.kron(k, eye) + sparse.kron(eye, k.conj())
                + sparse.kron(x, rx.T) + sparse.kron(p, rp.T)
                for k, rx, rp in term_table(ops, mode)
            ]
            pattern = sum(abs(g) for g in per_weight).tocsr()
            pattern.sort_indices()
            rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
            data = np.stack([g[rows, pattern.indices] for g in per_weight])
            self.weights.append(data.view(float))
            patterns.append(pattern)
        # block_diag keeps each block's sorted entries, so mode j's weights
        # fill the CSR data of rows j d^2 .. (j + 1) d^2 in order
        self.template = sparse.block_diag(patterns, format="csr", dtype=complex)
        cuts = self.template.indptr[:: ops.d * ops.d]
        self.slices = [slice(2 * a, 2 * b) for a, b in zip(cuts[:-1], cuts[1:])]

    def at(self, row, out=None):
        """The generator at one coefficient row, written into ``out`` if given."""
        out = self.template.copy() if out is None else out
        data = out.data.view(float)
        for s, w in zip(self.slices, self.weights):
            np.dot(row, w, out=data[s])
        return out


def generator(coeffs_at_t: dict, ops: FockOperators, mode: str):
    """L at one time as a d^2 x d^2 CSR matrix on row-major vec(rho).

    It is the matrix the RK4 loop of ``integrate_modes`` steps on.
    """
    row = np.array([1.0] + [coeffs_at_t.get(k, 0.0) for k in WEIGHTS[1:]])
    return _Generators(ops, (mode,)).at(row)


@dataclass
class OracleTrajectory:
    grid: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    xx: np.ndarray
    pp: np.ndarray
    xp_sym: np.ndarray
    energy: np.ndarray
    trace_error: float
    herm_drift: float
    max_leakage: float
    rho_final: np.ndarray


MOMENTS = ("mean_x", "mean_p", "xx", "pp", "xp_sym")


def integrate_modes(
    rho0: np.ndarray,
    coeffs: CoefficientTable,
    modes,
    *,
    ops: FockOperators | None = None,
    leakage_threshold: float = 1e-6,
    grid: np.ndarray | None = None,
) -> dict:
    """RK4 integration of the master equation in several modes at once.

    Every mode starts from ``rho0``; the modes are stacked on a leading axis
    and share one loop, and each gets its own trajectory and guards.
    Coefficients at half-steps come from linear interpolation, each rho is
    re-hermitized every step with the drift recorded, and population in the
    top three levels above the threshold aborts the run, naming the mode.
    Returns ``{mode: OracleTrajectory}``.
    """
    modes = tuple(modes)
    if not modes or len(set(modes)) != len(modes):
        raise ValidationError(f"oracle modes must be distinct and non-empty, got {modes}")
    rho0 = np.array(rho0, dtype=complex)
    d = rho0.shape[0]
    if ops is None:
        ops = fock_operators(d)
    if ops.d != d:
        raise ValidationError("operator dimension does not match rho")
    t = coeffs.grid if grid is None else np.asarray(grid, dtype=float)
    if grid is not None and not np.array_equal(t, coeffs.grid[: len(t)]):
        raise ValidationError("custom grid must be a prefix of the coefficient grid")
    n = len(t)
    m = len(modes)

    gens = _Generators(ops, modes)
    rows = np.column_stack([np.ones(n)] + [getattr(coeffs, k)[:n] for k in WEIGHTS[1:]])

    moments = np.empty((m, len(MOMENTS), n))
    trace_err = np.zeros(m)
    herm_drift = np.zeros(m)

    def leakage(rho) -> np.ndarray:
        return np.sum(np.diagonal(rho, axis1=1, axis2=2).real[:, -3:], axis=1)

    def record(i, rho) -> np.ndarray:
        """Store the moments at node i and return the traces."""
        band = rho.reshape(m, 1, d * d)[:, :, ops.moment_support]
        traces = np.matmul(band, ops.moment_map)[:, 0].real
        moments[:, :, i] = traces[:, : len(MOMENTS)]
        return traces[:, -1]

    rho = np.repeat(rho0[None], m, axis=0)
    lk = float(leakage(rho0[None])[0])
    if lk > leakage_threshold:
        raise LeakageError(
            f"initial state already leaks {lk:.2e} into the top levels; increase d beyond {d}"
        )
    max_leak = np.full(m, lk)
    record(0, rho)

    node = gens.at(rows[0])
    mid, nxt = node.copy(), node.copy()
    for i in range(n - 1):
        h = t[i + 1] - t[i]
        gens.at(0.5 * (rows[i] + rows[i + 1]), mid)
        gens.at(rows[i + 1], nxt)
        # rho + (h/6)(k1 + 2 k2 + 2 k3 + k4), summed in that order, on the
        # stacked row-major vec of every mode's rho
        v = rho.reshape(-1)
        k = acc = node @ v
        for weight, step, gen in ((2.0, 0.5 * h, mid), (2.0, 0.5 * h, mid), (1.0, h, nxt)):
            k = gen @ (v + step * k)
            acc += weight * k
        rho = (v + (h / 6.0) * acc).reshape(m, d, d)
        node, nxt = nxt, node

        rho_dag = rho.conj().swapaxes(-1, -2)
        np.maximum(herm_drift, np.max(np.abs(rho - rho_dag), axis=(1, 2)), out=herm_drift)
        rho = 0.5 * (rho + rho_dag)

        lk = leakage(rho)
        np.maximum(max_leak, lk, out=max_leak)
        over = np.flatnonzero(lk > leakage_threshold)
        if over.size:
            j = over[0]
            raise LeakageError(
                f"oracle mode {modes[j]!r}: truncation leakage {lk[j]:.2e} exceeded "
                f"{leakage_threshold:.2e} at t={t[i + 1]:g}; increase the oracle "
                f"dimension beyond {d}"
            )
        traces = record(i + 1, rho)
        np.maximum(trace_err, np.abs(traces - 1.0), out=trace_err)

    return {
        mode: OracleTrajectory(
            grid=t,
            mean_x=moments[j, 0],
            mean_p=moments[j, 1],
            xx=moments[j, 2],
            pp=moments[j, 3],
            xp_sym=moments[j, 4],
            energy=0.5 * (moments[j, 2] + moments[j, 3]),
            trace_error=float(trace_err[j]),
            herm_drift=float(herm_drift[j]),
            max_leakage=float(max_leak[j]),
            rho_final=rho[j],
        )
        for j, mode in enumerate(modes)
    }


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
        psi = np.exp(-1j * state.phi * np.arange(d)) * squeezed
        rho = np.outer(psi, psi.conj())
    else:
        raise ValidationError(
            f"no Fock-space representation for state {type(state).__name__}"
        )
    tr = np.trace(rho).real
    return rho / tr


# ---------------------------------------------------------------------------
# characteristic function from rho


def chi_from_rho(rho: np.ndarray, ops: FockOperators, z) -> complex:
    """tr{ exp(i (p X - x P)) rho } with a truncation-headroom guard."""
    z = np.asarray(z, dtype=float).reshape(2)
    x, p = z
    d = ops.d
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
        l_sig = unvec(generator(coeff_row, ops, mode) @ vec(sig1), d)
        worst = max(worst, abs(np.trace(l_sig)))
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
