"""Independent references that the tests compare the package against.

No ``qbm`` command reaches these; they are the slow, separate routes to the
numbers the closed forms give:

- ``kappa_quadrature`` and ``mu_quadrature`` integrate the kernel
  transforms of ``qbm.kernels`` with scipy's QUADPACK adaptive panels.  The
  oscillatory factor is folded into the integrand below tau = 1 and handled
  by the dedicated Fourier-weight routine above.  They load scipy through
  ``qbm.kernels.quad``.
- ``markovian_asymptotes`` gives the long-time limits of the coefficients.
- ``chi_from_rho`` reads chi off a truncated density matrix.
- ``wigner_full_grid`` is the Wigner transform as ``qbm.qcf.wigner`` once
  computed it: chi_t on the whole z-grid of every half-width it tries, and
  one transform of that grid.
"""

from __future__ import annotations

import numpy as np

from qbm import qcf
from qbm.errors import DomainTooSmallError, NumericalError, ValidationError
from qbm.kernels import ReservoirSpec, _require_tau, kappa, mu, quad
from qbm.oracle import fock_operators

# w*coth(w/2T) is replaced by its 2T limit below this frequency
_COTH_CROSSOVER = 1e-8

# quadrature request and acceptance thresholds
_EPSABS = 1e-14
_EPSREL = 1e-10
_ERR_FLOOR = 1e-10
_ERR_REL = 1e-7


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge; carries the achieved estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class TruncationError(NumericalError):
    """Requested evaluation exceeds what the truncated basis can represent."""


# ---------------------------------------------------------------------------
# kernel transforms by quadrature


def spectral_density(spec: ReservoirSpec, w):
    """J(w) = w exp(-w/wc), without the alpha^2 prefactor."""
    w = np.asarray(w, dtype=float)
    return w * np.exp(-w / spec.wc)


def _checked_quad(func, tau: float, weight: str | None, what: str) -> float:
    """QUADPACK call with convergence check.

    weight None integrates ``func`` as-is on [0, inf); otherwise ``func`` is
    the non-oscillatory factor and QUADPACK applies cos/sin(tau*w).
    """
    if weight is None:
        res = quad(func, 0.0, np.inf, epsabs=_EPSABS, epsrel=_EPSREL, limit=800, full_output=1)
    else:
        res = quad(
            func,
            0.0,
            np.inf,
            weight=weight,
            wvar=tau,
            epsabs=1.5e-13,
            limlst=300,
            limit=600,
            full_output=1,
        )
    value, estimate = res[0], res[1]
    if not np.isfinite(value) or estimate > max(_ERR_FLOOR, _ERR_REL * abs(value)):
        raise QuadratureError(f"quadrature for {what} did not converge at tau={tau:g}", estimate)
    return value


def _kappa_integral(spec: ReservoirSpec, tau: float) -> float:
    """Int_0^inf J(w) coth(w/2T) cos(w tau) dw of the ohmic family, alpha^2 not included."""
    T = spec.temperature

    def thermal_factor(w: float) -> float:
        # w*coth(w/2T) -> 2T as w -> 0; substituted analytically to avoid 0/0
        if T == 0.0:
            return w
        if w < _COTH_CROSSOVER:
            return 2.0 * T
        return w / np.tanh(w / (2.0 * T))

    base = lambda w: np.exp(-w / spec.wc) * thermal_factor(w)
    if tau == 0.0:
        return _checked_quad(base, tau, None, "kappa")
    if tau < 1.0:
        return _checked_quad(lambda w: base(w) * np.cos(w * tau), tau, None, "kappa")
    return _checked_quad(base, tau, "cos", "kappa")


def _mu_integral(spec: ReservoirSpec, tau: float) -> float:
    """Int_0^inf J(w) sin(w tau) dw of the ohmic family, alpha^2 not included."""
    if tau == 0.0:
        return 0.0
    base = lambda w: np.exp(-w / spec.wc) * w
    if tau < 1.0:
        return _checked_quad(lambda w: base(w) * np.sin(w * tau), tau, None, "mu")
    return _checked_quad(base, tau, "sin", "mu")


def kappa_quadrature(spec: ReservoirSpec, tau: float) -> float:
    """kappa(tau) forced through the quadrature path (cross-validation hook)."""
    return _quadrature(spec, tau, _kappa_integral)


def mu_quadrature(spec: ReservoirSpec, tau: float) -> float:
    """mu(tau) forced through the quadrature path (cross-validation hook)."""
    return _quadrature(spec, tau, _mu_integral)


def _quadrature(spec: ReservoirSpec, tau: float, integral) -> float:
    _require_tau(tau)
    if spec.alpha == 0.0:
        return 0.0
    return spec.alpha**2 * integral(spec, tau)


# ---------------------------------------------------------------------------
# Markov limit of the coefficients


def markovian_asymptotes(spec: ReservoirSpec) -> dict:
    """Long-time limits of the coefficients (sanity checks and reporting).

    gamma_inf and delta_bar_inf are the resonance integrals
    alpha^2 (pi/2) J(1) [coth(1/2T)]; r_inf and pi_inf are the
    slowly convergent principal-value-like tau-integrals, computed to
    t = 200 with the oscillation tail averaged out (integrals at horizons
    half a period apart are averaged, one Richardson-style step).
    """
    if spec.alpha == 0.0:
        return {"delta_bar_inf": 0.0, "pi_inf": 0.0, "r_inf": 0.0, "gamma_inf": 0.0}

    j0 = float(spectral_density(spec, 1.0))
    gamma_inf = spec.alpha**2 * (np.pi / 2.0) * j0
    if spec.temperature > 0.0:
        delta_bar_inf = gamma_inf / np.tanh(1.0 / (2.0 * spec.temperature))
    else:
        delta_bar_inf = gamma_inf

    horizon = 200.0

    def tail_averaged(f) -> float:
        vals = []
        upper = horizon
        for _ in range(2):
            v, _err = quad(f, 0.0, upper, limit=4000, epsabs=1e-12, epsrel=1e-10)
            vals.append(v)
            upper += np.pi  # half a period
        return 0.5 * (vals[0] + vals[1])

    r_inf = 2.0 * tail_averaged(lambda t: mu(spec, t) * np.cos(t))
    pi_inf = tail_averaged(lambda t: kappa(spec, t) * np.sin(t))
    return {
        "delta_bar_inf": delta_bar_inf,
        "pi_inf": pi_inf,
        "r_inf": r_inf,
        "gamma_inf": gamma_inf,
    }


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
# Wigner transform on the full z-grid


def wigner_full_grid(bundle, state, t_index: int, axis):
    """``qcf.wigner``, evaluating chi_t on the whole z-grid of each half-width tried."""
    qcf.check_wigner_reach(state)
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1:
        raise ValidationError("the phase-space axis must be 1-d")

    t = qcf._node_index(bundle, t_index)
    b_t, c_t = qcf.evolve_moments(bundle, state.initial_moments, slice(t, t + 1))
    reach = max(np.max(np.abs(axis - b_t[0, 1])), np.max(np.abs(axis + b_t[0, 0])))
    reach += 8.0 * np.sqrt(np.linalg.eigvalsh(c_t[0])[-1])
    for ext in qcf._Z_EXTENTS:
        z = np.linspace(-ext, ext, qcf._Z_POINTS)
        h = z[1] - z[0]
        period = 2.0 * np.pi / h
        # every wider grid repeats W sooner still, so the first short period is final
        if not period >= reach:
            raise DomainTooSmallError(
                f"the Wigner integration grid that chi_t at t_index {t_index} needs repeats W "
                f"every {period:.3g} in q and in p, less than the {reach:.3g} that the output "
                f"grid and the state's width need, so the map would alias: {qcf._ALIAS_REMEDY}"
            )
        chi_vals = qcf.evolve_chi(bundle, state, t_index, z[:, None], z[None, :])
        boundary = max(
            np.max(np.abs(chi_vals[0, :])),
            np.max(np.abs(chi_vals[-1, :])),
            np.max(np.abs(chi_vals[:, 0])),
            np.max(np.abs(chi_vals[:, -1])),
        )
        if boundary < qcf.CHI_DECAY_TOL:
            break
    else:
        raise DomainTooSmallError(
            f"chi_t at t_index {t_index} has not decayed below {qcf.CHI_DECAY_TOL:g} at "
            f"|z| = {qcf._Z_EXTENTS[-1]:g}, the widest Wigner integration grid: "
            f"{qcf._NARROW_REMEDY}"
        )

    # trapezoid weights, the same on both axes of the square z-grid
    w = np.full(qcf._Z_POINTS, h)
    w[0] = w[-1] = 0.5 * h

    # W[q, p_out] = (2pi)^-2 sum_{x,pz} chi(x,pz) e^{-i p_out x} e^{+i q pz} w_x w_pz
    phase_q = np.exp(1j * np.outer(z, axis)) * w[:, None]  # (pz, q)
    phase_p = np.exp(-1j * np.outer(axis, z)) * w[None, :]  # (p, x)
    field = (phase_p @ (chi_vals @ phase_q)).T / (2.0 * np.pi) ** 2  # (q, p)
    max_imag = np.max(np.abs(field.imag))
    if not max_imag <= 1e-8:  # NaN trips it too
        raise NumericalError(f"Wigner transform has imaginary residue {max_imag:.2e}")
    return field.real
