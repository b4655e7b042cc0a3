"""Run configuration: flat ``section.key = value`` text files.

Zero-dependency format: one assignment per line, ``#`` starts a comment,
UTF-8.  Unknown keys are hard errors with a close-match suggestion so typos
cannot silently fall back to defaults; every parse error carries its line
number.  ``parse_config`` builds each run input through the function that owns
its rules, and reports that function's error with the keys and lines it concerns.
Every input file of a run is read here: the config itself, and the CSVs it
names through ``load_kernel_csv`` and ``load_chi_csv``.
"""

from __future__ import annotations

import difflib
import inspect
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from qbm import qcf
from qbm.coefficients import check_grid
from qbm.errors import FileError, LeakageError, ValidationError
from qbm.kernels import FAMILIES, KernelTable, ReservoirSpec, tabulate_kernels
from qbm.propagator import MODES
from qbm.runio import read_csv

RUN_MODES = (*MODES, "oracle")

# the oracle's bounds, kept here so that a run without the oracle never imports it
MIN_DIMENSION = 8  # the smallest Fock truncation d
MAX_DIMENSION = 256  # the largest: a full-mode _Stencil keeps 29 MiB there and peaks at 49 MiB (traced)
LEAKAGE_THRESHOLD = 1e-6  # default bound on the population of the top three levels

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

_REQUIRED = ("reservoir.family", "grid.dt", "grid.t_max", "run.modes")

# files named in the config are found relative to it
_PATH_KEYS = ("reservoir.kernel_csv", "state.chi_csv")


@dataclass(frozen=True)
class RunConfig:
    kernels: KernelTable  # on the run grid
    state: object
    rho0: np.ndarray | None  # the oracle's initial state, None without the oracle
    modes: tuple
    output_dir: str
    leakage_threshold: float
    wigner_enabled: bool
    wigner_times: tuple
    wigner_extent: float
    wigner_points: int


# a run with every mode peaks at about 0.7 KiB per grid node, 0.7 GiB at the bound
MAX_GRID_NODES = 10**6


def build_grid(dt: float, t_max: float) -> np.ndarray:
    """The run's time nodes: steps of dt from 0 until t_max is reached."""
    steps = np.ceil(t_max / dt - 1e-9)
    if not steps < MAX_GRID_NODES:  # inf fails too
        raise ValidationError(
            f"t_max / dt = {t_max / dt:.3g} steps exceed the {MAX_GRID_NODES:.0e} grid nodes "
            "a run can hold; raise grid.dt or lower grid.t_max"
        )
    return dt * np.arange(int(steps) + 1)


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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not UTF-8 text: {exc.reason}") from exc

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


def _bounded(seen: dict, key: str, default, ok, bound: str):
    """The typed value of ``key``, which ``ok`` must accept (``default`` always is)."""
    value = _typed(seen, key, default)
    if not ok(value):
        raise ValidationError(f"line {seen[key][1]}: {key} must be {bound}")
    return value


def _owned(seen: dict, keys, call, *args, **kwargs):
    """``call(*args, **kwargs)``; an input error it raises names the ``keys`` in ``seen``."""
    try:
        return call(*args, **kwargs)
    except (ValidationError, FileError, LeakageError) as exc:
        where = ", ".join(f"line {n}: {key}" for key, (_, n) in seen.items() if key in keys)
        raise type(exc)(f"{where}: {exc}") from exc


def _build(seen: dict, selector: str, builders: dict, default=None):
    """The object that the ``selector`` key names, built from its keys in ``seen``.

    ``builders`` maps each value of ``selector`` to a constructor and the
    keys it takes, ``{key: parameter}``; a key of the same section that the
    constructor does not take is an error.  Required keys and defaults are
    the constructor's own.  The keys join the call one at a time, the
    required ones first, so that a ``ValidationError`` or ``FileError`` the
    constructor raises is reported with the key and line that caused it.
    """
    kind = _typed(seen, selector, default)
    if kind not in builders:
        where = f"line {seen[selector][1]}: " if selector in seen else ""
        raise ValidationError(f"{where}{selector} must be one of {tuple(builders)}, got {kind!r}")
    build, fields = builders[kind]
    section = selector.split(".")[0] + "."
    for key, (_raw, lineno) in seen.items():
        if key.startswith(section) and key != selector and key not in fields:
            raise ValidationError(f"line {lineno}: {key} does not apply to {selector} = {kind}")
    params = inspect.signature(build).parameters
    required = [key for key, name in fields.items() if params[name].default is params[name].empty]
    for key in required:
        if key not in seen:
            raise ValidationError(f"missing required key {key!r} for {selector} = {kind}")
    values = {}
    for keys in (required, *([key] for key in fields if key in seen and key not in required)):
        values.update((fields[key], _typed(seen, key)) for key in keys)
        built = _owned(seen, keys, build, **values)
    return built


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    seen = _read_assignments(path)
    for key in _REQUIRED:
        if key not in seen:
            raise ValidationError(f"missing required key {key!r}")

    base_dir = os.path.dirname(os.path.abspath(path))
    for key in _PATH_KEYS:
        if key in seen:
            raw, lineno = seen[key]
            seen[key] = (os.path.join(base_dir, raw), lineno)

    reservoir = _build(seen, "reservoir.family", _RESERVOIRS)

    # the oscillator frequency is the unit of frequency, so the key can only restate it
    if _typed(seen, "oscillator.omega0", 1.0) != 1.0:
        raise ValidationError(
            f"line {seen['oscillator.omega0'][1]}: oscillator.omega0 is documentation "
            "metadata pinned to 1 (internal units)"
        )

    state = _build(seen, "state.kind", _STATE_KINDS, "coherent")

    dt = _bounded(seen, "grid.dt", None, lambda v: v > 0, "> 0")
    t_max = _bounded(seen, "grid.t_max", None, lambda v: v >= dt, ">= grid.dt")
    grid = _owned(seen, ("grid.dt", "grid.t_max"), build_grid, dt, t_max)
    _owned(seen, ("grid.dt", "grid.t_max"), check_grid, grid)
    kernel_keys = (*(key for key in seen if key.startswith("reservoir.")), "grid.t_max")
    kernels = _owned(seen, kernel_keys, tabulate_kernels, reservoir, grid)

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

    low, high = MIN_DIMENSION, MAX_DIMENSION
    oracle_dim = _bounded(seen, "oracle.dimension", 30, lambda v: low <= v <= high, f">= {low}, <= {high}")
    leakage = _bounded(seen, "oracle.leakage_threshold", LEAKAGE_THRESHOLD, lambda v: v > 0, "> 0")
    rho0 = None
    if "oracle" in modes:
        from qbm.oracle import check_initial_leakage, to_density_matrix

        rho0_keys = ("run.modes", *(key for key in seen if key.startswith(("state.", "oracle."))))
        rho0 = _owned(seen, rho0_keys, to_density_matrix, state, oracle_dim)
        _owned(seen, rho0_keys, check_initial_leakage, rho0, leakage)

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
    # a map peaks at about 28 * points^2 bytes while it is transformed (28 MiB at 1024,
    # traced) and is held as 8 * points^2; its CSV table adds 16 * points^2
    wigner_points = _bounded(seen, "wigner.points", 64, lambda v: 8 <= v <= 1024, ">= 8, <= 1024")
    wigner_extent = _bounded(seen, "wigner.extent", 6.0, lambda v: v > 0, "> 0")
    wigner_enabled = _typed(seen, "wigner.enabled", False)
    if wigner_enabled:
        _owned(seen, ("state.chi_csv", "wigner.enabled"), qcf.check_wigner_reach, state)

    return RunConfig(
        kernels=kernels,
        state=state,
        rho0=rho0,
        modes=modes,
        output_dir=_typed(seen, "run.output_dir", "out"),
        leakage_threshold=leakage,
        wigner_enabled=wigner_enabled,
        wigner_times=wigner_times or (0.0,),
        wigner_extent=wigner_extent,
        wigner_points=wigner_points,
    )


def load_kernel_csv(path) -> KernelTable:
    """Read a tabulated kernel from CSV with header ``tau,kappa,mu``."""
    header, data = read_csv(path)
    if header != ["tau", "kappa", "mu"]:
        raise ValidationError(f"kernel CSV {path} must start with header 'tau,kappa,mu'")
    return KernelTable(grid=data[:, 0], kappa=data[:, 1], mu=data[:, 2])


def load_chi_csv(path):
    """Load a tabulated characteristic function.

    Long format with header ``x,p,re_chi,im_chi``; the (x, p) points must
    form a full rectangular grid, symmetric about the origin.
    """
    header, data = read_csv(path)
    if header != ["x", "p", "re_chi", "im_chi"]:
        raise ValidationError(f"chi CSV {path} must have header 'x,p,re_chi,im_chi'")
    x_nodes = np.unique(data[:, 0])
    p_nodes = np.unique(data[:, 1])
    if len(data) != len(x_nodes) * len(p_nodes):
        raise ValidationError(f"chi CSV {path} does not cover a full rectangular grid")
    values = np.zeros((len(x_nodes), len(p_nodes)), dtype=complex)
    covered = np.zeros(values.shape, dtype=bool)
    xi = np.searchsorted(x_nodes, data[:, 0])
    pi = np.searchsorted(p_nodes, data[:, 1])
    values[xi, pi] = data[:, 2] + 1j * data[:, 3]
    covered[xi, pi] = True
    if not covered.all():
        raise ValidationError(f"chi CSV {path} has duplicate or missing grid points")
    return qcf.TabulatedChi(x_nodes, p_nodes, values)


# each reservoir.family and state.kind: its constructor and the keys it
# takes, by parameter name
_SPEC_KEYS = {
    "reservoir.alpha": "alpha",
    "reservoir.wc": "wc",
    "reservoir.temperature": "temperature",
}
_RESERVOIRS = {
    **{family: (partial(ReservoirSpec, family), _SPEC_KEYS) for family in FAMILIES},
    # a table holds alpha^2 kappa and alpha^2 mu at its own temperature
    "tabulated": (load_kernel_csv, {"reservoir.kernel_csv": "path"}),
}

_STATE_KINDS = {
    "coherent": (qcf.CoherentState, {"state.x0": "x0", "state.p0": "p0"}),
    "thermal": (qcf.ThermalState, {"state.nbar": "nbar"}),
    "squeezed": (qcf.SqueezedVacuum, {"state.r": "r_sq", "state.phi": "phi"}),
    "fock": (qcf.FockState, {"state.n": "n"}),
    "tabulated_chi": (load_chi_csv, {"state.chi_csv": "path"}),
}
