"""Pipeline orchestration: one config in, CSV artifacts out.

The config brings the kernel table and, for the oracle, rho0.  Modes run
independently off one coefficient table.  With the oracle mode alongside
analytic modes, each analytic mode gets a matching brute-force integration
and ``diff_report.txt`` collects the max deviation per observable.  The
analytic modes run as the oracle's ``meanwhile``: where two CPUs are
usable, while forked children step every oracle mode but the last.  Each
column is formatted in one file (``big_gamma`` in ``coefficients.csv``,
``lambda``/``theta`` in the propagator files).  Every observables file is
its route's ``qcf.ObservableSeries`` record, so ``energy`` is the moment
energy (<X^2> + <P^2>)/2 in every mode, plus ``energy_rwa``, the one
closed-form energy law: it needs only the coefficient table and the
record's own E0, so an oracle-only run writes it too.
Plain ``observables.csv`` / ``oracle_observables.csv`` / ``propagator.csv``
are byte copies of the first mode's files; mode-suffixed files are always
written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from qbm import oracle as oracle_mod
from qbm import qcf
from qbm.coefficients import compute_coefficients, write_coefficients_csv
from qbm.config import RunConfig
from qbm.errors import FileError, ValidationError
from qbm.homogeneous import write_rotation_csv
from qbm.propagator import build_propagator, delta_gamma_series, write_propagator_csv
from qbm.runio import copy_file, write_csv, write_text

OBSERVABLES_CSV_COLUMNS = ",".join(("t", *qcf.OBSERVABLES, "energy_rwa"))


@dataclass
class RunResult:
    files: list = field(default_factory=list)
    diffs: dict = field(default_factory=dict)


def run(config: RunConfig) -> RunResult:
    """Execute every requested mode and write the artifact files."""
    outdir = config.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise FileError(f"cannot create output directory {outdir!r}: {exc}") from exc

    result = RunResult()

    def emit(name, writer):
        path = os.path.join(outdir, name)
        writer(path)
        result.files.append(path)

    def emit_mode(stem, mode, first_mode, writer):
        """``stem_mode.csv``, then for the run's first mode its ``stem.csv`` byte copy."""
        emit(f"{stem}_{mode}.csv", writer)
        if mode == first_mode:
            emit(f"{stem}.csv", lambda p, src=result.files[-1]: copy_file(src, p))

    grid = config.kernels.grid
    coeffs = compute_coefficients(config.kernels)
    emit("coefficients.csv", lambda p: write_coefficients_csv(coeffs, p))

    report_lines = [
        "# monitored run properties (observed, not assumed)",
        f"gamma_nonnegative {bool(np.all(coeffs.gamma >= 0))}",
        f"big_gamma_nondecreasing {bool(np.all(np.diff(coeffs.big_gamma) >= 0))}",
    ]

    analytic_modes = [m for m in config.modes if m != "oracle"]
    oracle_modes = analytic_modes if analytic_modes else ["full"]
    delta_gamma_rwa = delta_gamma_series(coeffs)

    def observables_writer(series):
        """Writer of the observables rows of an analytic series or an oracle trajectory.

        The record's grid and ``qcf.OBSERVABLES`` columns, its moment energy
        included, then ``energy_rwa``: the rotating-wave closed form of the
        coefficient table from the record's own E0 = ``series.energy[0]``.
        """
        energy_rwa = qcf.closed_form_energy(coeffs.big_gamma, series.energy[0], delta_gamma_rwa)
        columns = [getattr(series, name) for name in ("grid", *qcf.OBSERVABLES)]
        matrix = np.column_stack([*columns, energy_rwa])
        return lambda path: write_csv(path, OBSERVABLES_CSV_COLUMNS, matrix)

    bundles = {}
    analytic_series = {}

    def analytic_phase():
        """Every analytic mode: its bundle, moments and files."""
        for mode in analytic_modes:
            bundle = build_propagator(config.kernels, grid, mode, coeffs=coeffs)
            bundles[mode] = bundle
            min_eig = float(np.min(np.linalg.eigvalsh(bundle.w_bar)))
            report_lines.append(f"w_bar_min_eigenvalue[{mode}] {min_eig:.17g}")
            series = qcf.observable_series(bundle, config.state)
            analytic_series[mode] = series
            emit_mode("observables", mode, analytic_modes[0], observables_writer(series))
            emit_mode(
                "propagator", mode, analytic_modes[0], lambda p: write_propagator_csv(bundle, p)
            )
            if mode == "full":
                emit("rotation.csv", lambda p, b=bundle: write_rotation_csv(b.grid, b.rotations, p))

    if "oracle" in config.modes:
        # the analytic phase runs while forked children step the oracle modes
        trajs = oracle_mod.integrate_modes(
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
            emit_mode("oracle_observables", mode, oracle_modes[0], observables_writer(traj))
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
            emit("diff_report.txt", lambda p: write_text(p, [header, *diff_lines]))
    else:
        analytic_phase()

    if config.wigner_enabled:
        if analytic_modes:
            bundle = bundles[analytic_modes[0]]
        else:
            bundle = build_propagator(config.kernels, grid, "full", coeffs=coeffs)
        axis = np.linspace(-config.wigner_extent, config.wigner_extent, config.wigner_points)
        # times that snap to one node give one map, in first-seen order
        for index in dict.fromkeys(int(np.argmin(np.abs(grid - t))) for t in config.wigner_times):
            field_vals = qcf.wigner(bundle, config.state, index, axis, axis)
            rows = np.column_stack(
                [
                    np.repeat(axis, len(axis)),
                    np.tile(axis, len(axis)),
                    field_vals.reshape(-1),
                ]
            )
            emit(f"wigner_t{index}.csv", lambda p, r=rows: write_csv(p, "q,p,w", r))

    emit("run_report.txt", lambda p: write_text(p, report_lines))
    return result


ELLIPSE_CSV_COLUMNS = "theta_deg,x,p,x_circle,p_circle"


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
    rows = np.column_stack([np.rad2deg(theta), pts[0], pts[1], circle[0], circle[1]])
    write_csv(path, ELLIPSE_CSV_COLUMNS, rows)
