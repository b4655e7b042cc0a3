"""Run configuration: flat ``section.key = value`` text files.

Zero-dependency format: one assignment per line, ``#`` starts a comment,
UTF-8.  Unknown keys are hard errors with a close-match suggestion so typos
cannot silently fall back to defaults; every parse error carries its line
number.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass

import numpy as np

from qbm.errors import FileError, ValidationError
from qbm.kernels import FAMILIES, OHMIC_LORENTZ_DRUDE, TABULATED, ReservoirSpec, load_kernel_csv

RUN_MODES = ("full", "norenorm", "rwa", "oracle")

_KEY_TYPES = {
    "reservoir.family": str,
    "reservoir.alpha": float,
    "reservoir.wc": float,
    "reservoir.temperature": float,
    "reservoir.kernel_csv": str,
    "oscillator.omega0": float,
    "state.kind": str,
    "state.x0": float,
    "state.p0": float,
    "state.nbar": float,
    "state.r": float,
    "state.phi": float,
    "state.n": int,
    "state.chi_csv": str,
    "grid.dt": float,
    "grid.t_max": float,
    "run.modes": str,
    "run.output_dir": str,
    "oracle.dimension": int,
    "oracle.leakage_threshold": float,
    "wigner.enabled": bool,
    "wigner.times": str,
    "wigner.extent": float,
    "wigner.points": int,
}

_REQUIRED = ("reservoir.family", "reservoir.alpha", "grid.dt", "grid.t_max", "run.modes")

_STATE_PARAM_KEYS = {
    "coherent": {"state.x0", "state.p0"},
    "thermal": {"state.nbar"},
    "squeezed": {"state.r", "state.phi"},
    "fock": {"state.n"},
    "tabulated_chi": {"state.chi_csv"},
}


@dataclass(frozen=True)
class RunConfig:
    reservoir: ReservoirSpec
    omega0: float
    state: object
    dt: float
    t_max: float
    modes: tuple
    output_dir: str
    oracle_dim: int
    leakage_threshold: float
    wigner_enabled: bool
    wigner_times: tuple
    wigner_extent: float
    wigner_points: int


def _parse_bool(raw: str, key: str, lineno: int) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"line {lineno}: {key} expects a boolean, got {raw!r}")


def _read_assignments(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise FileError(f"cannot read config {path}: {exc}") from exc

    seen = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            hint = difflib.get_close_matches(key, _KEY_TYPES, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ValidationError(f"line {lineno}: unknown key {key!r}{suffix}")
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = (value, lineno)
    return seen


def _typed(seen: dict, key: str, default=None):
    if key not in seen:
        return default
    raw, lineno = seen[key]
    caster = _KEY_TYPES[key]
    if caster is bool:
        return _parse_bool(raw, key, lineno)
    try:
        value = caster(raw)
    except ValueError as exc:
        raise ValidationError(
            f"line {lineno}: {key} expects {caster.__name__}, got {raw!r}"
        ) from exc
    if caster is float and not np.isfinite(value):
        raise ValidationError(f"line {lineno}: {key} must be finite, got {raw!r}")
    return value


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    seen = _read_assignments(path)
    for key in _REQUIRED:
        if key not in seen:
            raise ValidationError(f"missing required key {key!r}")

    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    family = _typed(seen, "reservoir.family")
    if family not in FAMILIES:
        lineno = seen["reservoir.family"][1]
        raise ValidationError(
            f"line {lineno}: reservoir.family must be one of {FAMILIES}, got {family!r}"
        )
    if family == OHMIC_LORENTZ_DRUDE:
        # every grid starts at tau = 0, where this family's kappa diverges
        raise ValidationError(
            f"line {seen['reservoir.family'][1]}: reservoir.family = {family} cannot run yet: "
            "kappa(0) is ultraviolet log-divergent and its closed-form cumulative kernels "
            "are pending; use ohmic_exp_cutoff or tabulated"
        )
    table = None
    if family == TABULATED:
        if "reservoir.kernel_csv" not in seen:
            raise ValidationError("tabulated reservoir requires reservoir.kernel_csv")
        table = load_kernel_csv(resolve(_typed(seen, "reservoir.kernel_csv")))
    elif "reservoir.kernel_csv" in seen:
        raise ValidationError("reservoir.kernel_csv applies only to the tabulated family")

    try:
        reservoir = ReservoirSpec(
            family=family,
            alpha=_typed(seen, "reservoir.alpha"),
            wc=_typed(seen, "reservoir.wc", 5.0),
            temperature=_typed(seen, "reservoir.temperature", 0.0),
            table=table,
        )
    except ValidationError as exc:
        raise ValidationError(f"reservoir section: {exc}") from exc

    omega0 = _typed(seen, "oscillator.omega0", 1.0)
    if omega0 != 1.0:
        raise ValidationError(
            "oscillator.omega0 is documentation metadata pinned to 1 (internal units)"
        )

    kind = _typed(seen, "state.kind", "coherent")
    if kind not in _STATE_PARAM_KEYS:
        raise ValidationError(
            f"state.kind must be one of {tuple(_STATE_PARAM_KEYS)}, got {kind!r}"
        )
    for key in seen:
        if key.startswith("state.") and key != "state.kind":
            if key not in _STATE_PARAM_KEYS[kind]:
                raise ValidationError(f"{key} does not apply to state.kind = {kind}")
    state = _build_state(kind, seen, resolve)

    dt = _typed(seen, "grid.dt")
    t_max = _typed(seen, "grid.t_max")
    if dt <= 0:
        raise ValidationError("grid.dt must be > 0")
    if t_max < dt:
        raise ValidationError("grid.t_max must be >= grid.dt")

    raw_modes, lineno = seen["run.modes"]
    modes = tuple(m.strip() for m in raw_modes.split(",") if m.strip())
    if not modes:
        raise ValidationError(f"line {lineno}: run.modes must list at least one mode")
    for m in modes:
        if m not in RUN_MODES:
            raise ValidationError(
                f"line {lineno}: unknown mode {m!r}; expected a subset of {RUN_MODES}"
            )
    # canonical order, duplicates collapsed
    modes = tuple(m for m in RUN_MODES if m in modes)

    oracle_dim = _typed(seen, "oracle.dimension", 30)
    if oracle_dim < 8:
        raise ValidationError("oracle.dimension must be >= 8")
    leakage = _typed(seen, "oracle.leakage_threshold", 1e-6)
    if leakage <= 0:
        raise ValidationError("oracle.leakage_threshold must be > 0")

    wigner_times = ()
    if "wigner.times" in seen:
        raw, lineno = seen["wigner.times"]
        try:
            wigner_times = tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: wigner.times expects floats: {exc}") from exc
        outside = [v for v in wigner_times if not 0.0 <= v <= t_max]
        if outside:
            raise ValidationError(
                f"line {lineno}: wigner.times {outside[0]:g} lies outside "
                f"[0, grid.t_max = {t_max:g}]"
            )
    wigner_points = _typed(seen, "wigner.points", 64)
    if wigner_points < 8:
        raise ValidationError("wigner.points must be >= 8")
    wigner_extent = _typed(seen, "wigner.extent", 6.0)
    if wigner_extent <= 0:
        raise ValidationError("wigner.extent must be > 0")

    return RunConfig(
        reservoir=reservoir,
        omega0=omega0,
        state=state,
        dt=dt,
        t_max=t_max,
        modes=modes,
        output_dir=_typed(seen, "run.output_dir", "out"),
        oracle_dim=oracle_dim,
        leakage_threshold=leakage,
        wigner_enabled=_typed(seen, "wigner.enabled", False),
        wigner_times=wigner_times or (0.0,),
        wigner_extent=wigner_extent,
        wigner_points=wigner_points,
    )


def _build_state(kind: str, seen: dict, resolve):
    from qbm import qcf

    if kind == "coherent":
        return qcf.CoherentState(x0=_typed(seen, "state.x0", 0.0), p0=_typed(seen, "state.p0", 0.0))
    if kind == "thermal":
        if "state.nbar" not in seen:
            raise ValidationError("thermal state requires state.nbar")
        return qcf.ThermalState(nbar=_typed(seen, "state.nbar"))
    if kind == "squeezed":
        if "state.r" not in seen:
            raise ValidationError("squeezed state requires state.r")
        return qcf.SqueezedVacuum(r_sq=_typed(seen, "state.r"), phi=_typed(seen, "state.phi", 0.0))
    if kind == "fock":
        if "state.n" not in seen:
            raise ValidationError("fock state requires state.n")
        return qcf.FockState(n=_typed(seen, "state.n"))
    if "state.chi_csv" not in seen:
        raise ValidationError("tabulated_chi state requires state.chi_csv")
    return load_chi_csv(resolve(_typed(seen, "state.chi_csv")))


def load_chi_csv(path):
    """Load a tabulated characteristic function.

    Long format with header ``x,p,re_chi,im_chi``; the (x, p) points must
    form a full rectangular grid, symmetric about the origin.
    """
    from qbm import qcf
    from qbm.runio import read_csv

    header, data = read_csv(path)
    if header != ["x", "p", "re_chi", "im_chi"]:
        raise ValidationError(f"chi CSV {path} must have header 'x,p,re_chi,im_chi'")
    x_nodes = np.unique(data[:, 0])
    p_nodes = np.unique(data[:, 1])
    if len(data) != len(x_nodes) * len(p_nodes):
        raise ValidationError(f"chi CSV {path} does not cover a full rectangular grid")
    values = np.full((len(x_nodes), len(p_nodes)), np.nan, dtype=complex)
    xi = np.searchsorted(x_nodes, data[:, 0])
    pi = np.searchsorted(p_nodes, data[:, 1])
    values[xi, pi] = data[:, 2] + 1j * data[:, 3]
    if np.any(np.isnan(values)):
        raise ValidationError(f"chi CSV {path} has duplicate or missing grid points")
    return qcf.TabulatedChi(x_nodes, p_nodes, values)
