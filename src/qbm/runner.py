"""Pipeline orchestration: one config in, CSV artifacts out.

This module writes every artifact.  Each table is a mapping from column name
to column, built here beside its file name, so a header is its table's keys;
the numeric modules it calls do no file I/O.  The config brings the kernel
table and, for the oracle, rho0.  Modes run independently off one
coefficient table.  With the oracle mode alongside analytic modes, each
analytic mode gets a matching brute-force integration and
``diff_report.txt`` collects the max deviation per observable.  The analytic
modes run as the oracle's ``meanwhile``: where two CPUs are usable, while
forked children step every oracle mode but the last.  Each column is
formatted in one file (``big_gamma`` in ``coefficients.csv``,
``lambda``/``theta`` in the propagator files).  Every observables file is
its route's ``qcf.ObservableSeries`` record, so ``energy`` is the moment
energy (<X^2> + <P^2>)/2 in every mode, plus ``energy_rwa``, the one
closed-form energy law: it needs only the coefficient table and the
record's own E0, so an oracle-only run writes it too.
Plain ``observables.csv`` / ``oracle_observables.csv`` / ``propagator.csv``
are byte copies of the first mode's files; mode-suffixed files are always
written.

Every artifact is built before the output directory is made, so a run that
fails leaves no directory; ``_write`` then writes them all in one phase.
A run without the oracle mode never imports ``qbm.oracle``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from qbm import qcf
from qbm.coefficients import compute_coefficients
from qbm.config import RunConfig
from qbm.errors import FileError, ValidationError
from qbm.homogeneous import rotation_det
from qbm.propagator import build_propagator, delta_gamma_series
from qbm.runio import copy_file, write_csv, write_text
from qbm.workers import fork_call, replies, usable_cpus


@dataclass
class RunResult:
    files: list = field(default_factory=list)
    diffs: dict = field(default_factory=dict)


def run(config: RunConfig) -> RunResult:
    """Execute every requested mode and write the artifact files.

    Every table and report is built first, the Wigner maps included, so a
    guard or a refused map that ends the run leaves no file; ``_write``
    then makes the output directory and writes them.
    """
    grid = config.kernels.grid
    coeffs = compute_coefficients(config.kernels)
    analytic_modes = [m for m in config.modes if m != "oracle"]
    oracle_modes = analytic_modes if analytic_modes else ["full"]
    bundles = {}
    wigner_maps = {}
    if config.wigner_enabled:
        # from the first analytic mode's bundle, "full" for an oracle-only run
        mode = oracle_modes[0]
        bundle = bundles[mode] = build_propagator(config.kernels, grid, mode, coeffs=coeffs)
        axis = np.linspace(-config.wigner_extent, config.wigner_extent, config.wigner_points)
        # times that snap to one node give one map, in first-seen order
        for index in dict.fromkeys(int(np.argmin(np.abs(grid - t))) for t in config.wigner_times):
            wigner_maps[index] = qcf.wigner(bundle, config.state, index, axis, axis)

    result = RunResult()
    # every artifact by file name, in the order printed: a table {column: values},
    # the lines of a report, or the name of the file it is a byte copy of
    artifacts = {}

    def emit_mode(stem, mode, first_mode, table):
        """``stem_mode.csv``, then for the run's first mode its ``stem.csv`` byte copy."""
        artifacts[f"{stem}_{mode}.csv"] = table
        if mode == first_mode:
            artifacts[f"{stem}.csv"] = f"{stem}_{mode}.csv"

    artifacts["coefficients.csv"] = {
        "t": grid, "delta_bar": coeffs.delta_bar, "pi": coeffs.pi,
        "r": coeffs.r, "gamma": coeffs.gamma, "big_gamma": coeffs.big_gamma,
    }

    report_lines = [
        "# monitored run properties (observed, not assumed)",
        f"gamma_nonnegative {bool(np.all(coeffs.gamma >= 0))}",
        f"big_gamma_nondecreasing {bool(np.all(np.diff(coeffs.big_gamma) >= 0))}",
    ]

    delta_gamma_rwa = delta_gamma_series(coeffs)

    def observables_table(series):
        """The observables table of an analytic series or an oracle trajectory.

        The record's grid and ``qcf.OBSERVABLES`` columns, its moment energy
        included, then ``energy_rwa``: the rotating-wave closed form of the
        coefficient table from the record's own E0 = ``series.energy[0]``.
        """
        energy_rwa = qcf.closed_form_energy(coeffs.big_gamma, series.energy[0], delta_gamma_rwa)
        moments = {name: getattr(series, name) for name in qcf.OBSERVABLES}
        return {"t": series.grid, **moments, "energy_rwa": energy_rwa}

    analytic_series = {}

    def analytic_phase():
        """Every analytic mode: its bundle, moments and tables."""
        for mode in analytic_modes:
            if mode not in bundles:
                bundles[mode] = build_propagator(config.kernels, grid, mode, coeffs=coeffs)
            bundle = bundles[mode]
            min_eig = float(np.min(np.linalg.eigvalsh(bundle.w_bar)))
            report_lines.append(f"w_bar_min_eigenvalue[{mode}] {min_eig:.17g}")
            series = qcf.observable_series(bundle, config.state)
            analytic_series[mode] = series
            emit_mode("observables", mode, analytic_modes[0], observables_table(series))
            r, w = bundle.rotations, bundle.w_bar
            emit_mode("propagator", mode, analytic_modes[0], {
                "t": grid, "R11": r[:, 0, 0], "R12": r[:, 0, 1], "R21": r[:, 1, 0],
                "R22": r[:, 1, 1], "W11": w[:, 0, 0], "W12": w[:, 0, 1], "W22": w[:, 1, 1],
                "delta_gamma": bundle.delta_gamma, "lambda": bundle.lam, "theta": bundle.theta,
            })
            if mode == "full":
                artifacts["rotation.csv"] = {
                    "t": grid, "c": r[:, 0, 0], "s": r[:, 0, 1],
                    "sr": -r[:, 1, 0], "cr": r[:, 1, 1], "det": rotation_det(r),
                }

    if "oracle" in config.modes:
        from qbm.oracle import integrate_modes

        # the analytic phase runs while forked children step the oracle modes
        trajs = integrate_modes(
            config.rho0,
            coeffs,
            oracle_modes,
            leakage_threshold=config.leakage_threshold,
            meanwhile=analytic_phase,
        )
        report_lines.append(f"oracle_parity_sectors {','.join(trajs[oracle_modes[0]].sectors)}")
        diff_lines = []
        for mode in oracle_modes:
            traj = trajs[mode]
            report_lines.append(
                f"oracle[{mode}] trace_error {traj.trace_error:.3e} "
                f"herm_drift {traj.herm_drift:.3e} max_leakage {traj.max_leakage:.3e}"
            )
            emit_mode("oracle_observables", mode, oracle_modes[0], observables_table(traj))
            if mode in analytic_series:
                series = analytic_series[mode]
                diffs = {
                    name: float(np.max(np.abs(getattr(series, name) - getattr(traj, name))))
                    for name in qcf.OBSERVABLES
                }
                result.diffs[mode] = diffs
                diff_lines.append(f"mode={mode}")
                diff_lines.extend(f"{name} {value:.17g}" for name, value in diffs.items())
        if diff_lines:
            header = "# max absolute deviation, analytic vs oracle, per observable"
            artifacts["diff_report.txt"] = [header, *diff_lines]
    else:
        analytic_phase()

    if wigner_maps:
        q, p = np.repeat(axis, len(axis)), np.tile(axis, len(axis))
        for index, field_vals in wigner_maps.items():
            artifacts[f"wigner_t{index}.csv"] = {"q": q, "p": p, "w": field_vals.reshape(-1)}

    artifacts["run_report.txt"] = report_lines
    result.files = _write(config.output_dir, artifacts)
    return result


def _write(outdir, artifacts: dict) -> list:
    """Make ``outdir`` and write ``artifacts``; the paths, in the order given.

    The tables come first.  Where two CPUs are usable, a forked child
    writes the leading tables, about half of the cells, while this process
    writes the rest; a child's error, from the earlier files, is raised
    first, as on one CPU.  The byte copies follow, then the reports.
    """
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise FileError(f"cannot create output directory {outdir!r}: {exc}") from exc
    paths = {name: os.path.join(outdir, name) for name in artifacts}
    tables = [(paths[name], table) for name, table in artifacts.items() if isinstance(table, dict)]
    children = []
    if usable_cpus() > 1 and len(tables) > 1:
        cells = np.cumsum([len(table) * len(next(iter(table.values()))) for _, table in tables])
        cut = 1 + int(np.argmin(np.abs(2 * cells[:-1] - cells[-1])))
        pid, read = fork_call(_write_tables, tables[:cut])
        children.append((f"the writer of {tables[0][0]}", pid, read))
        tables = tables[cut:]
    try:
        own = _write_tables(tables)
    except Exception as error:  # a child's error, from earlier files, is raised first
        own = error
    finally:
        sent = replies(children, FileError)
    for reply in (*sent, own):
        if isinstance(reply, Exception):
            raise reply
    for name, content in artifacts.items():
        if isinstance(content, str):
            copy_file(paths[content], paths[name])
        elif isinstance(content, list):
            write_text(paths[name], content)
    return list(paths.values())


def _write_tables(tables) -> None:
    """Write each ``(path, table)`` as CSV, in turn."""
    for path, table in tables:
        write_csv(path, table)


def ellipse_points(r_over_w0: float, gamma_over_w0: float):
    """Constant-energy locus of the renormalized oscillator Hamiltonian.

    The quadratic form (1 - r/w0) x^2 + 2 (gamma/w0) x p + p^2 = 1 is the
    perturbed version of the unit circle traced by the bare oscillator; its
    area is pi/sqrt(det Q), and the gamma cross term tilts the axes.  Points
    are the image of the unit circle sampled at every whole degree under
    Q^{-1/2}.
    """
    if not (abs(r_over_w0) < 1 and abs(gamma_over_w0) < 1):  # NaN fails both
        raise ValidationError("ellipse inputs must satisfy |r/w0| < 1 and |gamma/w0| < 1")
    q = np.array([[1.0 - r_over_w0, gamma_over_w0], [gamma_over_w0, 1.0]])
    det = np.linalg.det(q)
    if det <= 0 or np.trace(q) <= 0:
        raise ValidationError(
            f"quadratic form is not elliptic (det={det:.3g}); no closed energy contour"
        )
    evals, evecs = np.linalg.eigh(q)
    q_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    theta = np.deg2rad(np.arange(360, dtype=float))
    circle = np.stack([np.cos(theta), np.sin(theta)])
    pts = q_inv_sqrt @ circle
    return theta, pts, circle


def emit_ellipse(r_over_w0: float, gamma_over_w0: float, path) -> None:
    theta, pts, circle = ellipse_points(r_over_w0, gamma_over_w0)
    write_csv(path, {"theta_deg": np.rad2deg(theta), "x": pts[0], "p": pts[1],
                     "x_circle": circle[0], "p_circle": circle[1]})


def write_algebra_report(report, path) -> None:
    """Write an ``oracle.AlgebraReport``, one line per check under a heading."""
    write_text(path, [f"# superoperator algebra suite, d={report.d}", *report.lines()])
