"""Reservoir correlation and susceptibility kernels.

The environment enters the oscillator dynamics only through two real
functions of the time lag tau, both scaling exactly as the squared coupling
alpha**2: the correlation kernel kappa(tau) and the susceptibility kernel
mu(tau).  For a bath with spectral density J(w) at temperature T (units
hbar = k_B = 1, frequencies in units of the oscillator frequency w0 = 1,
time in 1/w0) they are the
standard transforms

    kappa(tau) = alpha^2 * Int_0^inf J(w) coth(w/2T) cos(w tau) dw
    mu(tau)    = alpha^2 * Int_0^inf J(w) sin(w tau) dw

with coth -> 1 at T = 0; mu is temperature independent.

Families
--------
ohmic_exp_cutoff
    J(w) = w exp(-w/wc).  Both kernels come from Int_0^inf w exp(-w z) dw
    = z^-2 with z = 1/wc - i tau: mu = alpha^2 Im z^-2, and the Bose
    expansion coth(w/2T) = 1 + 2 sum_n exp(-n w/T) sums kappa to alpha^2
    Re[z^-2 + 2T^2 psi'(1 + T z)] at every T, psi' the complex trigamma
    (its term is exactly zero at T = 0).  Quadrature cross-checks both.

A tabulated bath is not a family: it is the ``KernelTable`` of its (tau,
kappa, mu) samples, alpha^2 included, that ``load_kernel_csv`` returns.

``kappa`` and ``mu`` take one lag or an array of lags through one code
path.  ``tabulate_kernels`` is the one place that tells the two kinds of
bath apart: it evaluates a family's two kernels in one call on the whole
grid, or interpolates a table linearly.

``quad`` imports scipy.integrate on first call, for the tests' references alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbm.errors import ValidationError
from qbm.runio import read_csv

OHMIC_EXP_CUTOFF = "ohmic_exp_cutoff"
FAMILIES = (OHMIC_EXP_CUTOFF,)

@dataclass(frozen=True)
class KernelTable:
    """Sampled (tau, kappa, mu) triples on a strictly increasing grid."""

    grid: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        kap = np.asarray(self.kappa, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "mu", mu)
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError("kernel table grid must be a non-empty 1-d sequence")
        if len(kap) != len(grid) or len(mu) != len(grid):
            raise ValidationError("kernel table columns must share the grid length")
        if grid[0] != 0.0:
            raise ValidationError("kernel table grid must start at tau = 0")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("kernel table grid must be strictly increasing")
        if abs(mu[0]) > 1e-12:
            raise ValidationError("mu(0) must vanish (sine transform at tau = 0)")
        for name, col in (("kappa", kap), ("mu", mu)):
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"kernel table column {name} contains non-finite values")


@dataclass(frozen=True)
class ReservoirSpec:
    """A closed-form reservoir: family, coupling alpha, cutoff wc, temperature.

    A tabulated bath is its ``KernelTable`` instead, whose samples already
    hold the coupling and the temperature.
    """

    family: str
    alpha: float
    wc: float = 5.0
    temperature: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown reservoir family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.alpha < 0:
            raise ValidationError("coupling alpha must be >= 0")
        if self.wc <= 0:
            raise ValidationError("cutoff wc must be > 0")
        if self.temperature < 0:
            raise ValidationError("temperature must be >= 0")
        # the kernels at tau = 0 take every power of the parameters, and
        # |kappa|, |mu| <= kappa(0); Python's float ** raises where numpy gives inf
        try:
            finite = np.all(np.isfinite(_kernel_lags(self, np.zeros(1))))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                "alpha, wc and temperature give kernels that overflow double precision"
            )


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _require_tau(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)) or np.any(tau < 0):
        raise ValidationError("tau must be finite and >= 0")
    return tau


# Bernoulli numbers B_2 .. B_16 of the asymptotic trigamma series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# shift that puts |u| >= 12 before the series is summed
_TRIGAMMA_SHIFT = 12


def trigamma(u):
    """Complex trigamma psi'(u) = sum_{n>=0} (u + n)^-2 for Re u > 0.

    The recurrence psi'(u) = psi'(u + 1) + u^-2 moves the argument to
    w = u + 12, where the asymptotic series (Abramowitz & Stegun 6.4.12)
    1/w + 1/(2w^2) + sum_k B_2k / w^(2k+1), cut after B_16, is exact to
    rounding.
    """
    u = np.asarray(u, dtype=complex)
    w = u.reshape(-1)
    head = np.zeros_like(w)
    for n in range(_TRIGAMMA_SHIFT):
        inv = 1.0 / (w + n)
        head += inv * inv
    inv = 1.0 / (w + _TRIGAMMA_SHIFT)
    inv2 = inv * inv
    series = np.zeros_like(w)
    for b in reversed(_BERNOULLI):
        series = series * inv2 + b
    return (head + inv + 0.5 * inv2 + inv * inv2 * series).reshape(u.shape)[()]


# Both kernels run on a 1-d view of tau, so one lag goes through the same
# numpy array loops as a whole grid: numpy's scalar complex product differs
# from its array loop in the last bit.
def kappa(spec: ReservoirSpec, tau):
    """Correlation kernel kappa(tau) at a lag or an array of lags."""
    tau = _require_tau(tau)
    return _kernel_lags(spec, tau.reshape(-1))[0].reshape(tau.shape)[()]


def mu(spec: ReservoirSpec, tau):
    """Susceptibility kernel mu(tau) at a lag or an array of lags; T independent."""
    tau = _require_tau(tau)
    return _kernel_lags(spec, tau.reshape(-1))[1].reshape(tau.shape)[()]


# |kappa|, |mu| <= kappa(0), so only the probe in ReservoirSpec meets an overflow
@np.errstate(over="ignore", invalid="ignore")
def _kernel_lags(spec: ReservoirSpec, tau: np.ndarray) -> tuple:
    """(kappa, mu): alpha^2 Re[z^-2 + 2T^2 psi'(1 + T z)] and alpha^2 Im z^-2."""
    if spec.alpha == 0.0:
        return np.zeros_like(tau), np.zeros_like(tau)
    T = spec.temperature
    z = 1.0 / spec.wc - 1j * tau
    inv = 1.0 / z
    s = inv * inv
    kap = spec.alpha**2 * (s + 2.0 * T**2 * trigamma(1.0 + T * z)).real
    return kap, spec.alpha**2 * s.imag


def tabulate_kernels(reservoir: ReservoirSpec | KernelTable, grid) -> KernelTable:
    """kappa and mu on ``grid``; ``KernelTable`` validates the grid.

    A closed-form reservoir is sampled, a table interpolated linearly.
    """
    grid = np.asarray(grid, dtype=float)
    if not isinstance(reservoir, KernelTable):
        return KernelTable(grid, *_kernel_lags(reservoir, _require_tau(grid)))
    if np.any(_require_tau(grid) > reservoir.grid[-1]):
        raise ValidationError(
            f"the kernel table ends at tau = {reservoir.grid[-1]:g}, short of the last grid "
            f"node t = {grid.max():g}; extend the table or lower grid.t_max"
        )
    return KernelTable(
        grid=grid,
        kappa=np.interp(grid, reservoir.grid, reservoir.kappa),
        mu=np.interp(grid, reservoir.grid, reservoir.mu),
    )


def load_kernel_csv(path) -> KernelTable:
    """Read a tabulated kernel from CSV with header ``tau,kappa,mu``."""
    header, data = read_csv(path)
    if header != ["tau", "kappa", "mu"]:
        raise ValidationError(f"kernel CSV {path} must start with header 'tau,kappa,mu'")
    return KernelTable(grid=data[:, 0], kappa=data[:, 1], mu=data[:, 2])
