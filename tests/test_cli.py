import inspect
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qbm import coefficients, kernels, oracle, propagator, qcf, runio, runner, workers
from qbm.cli import main
from qbm.config import (
    _KEY_TYPES,
    _STATE_KINDS,
    MAX_GRID_NODES,
    RUN_MODES,
    build_grid,
    load_chi_csv,
    load_kernel_csv,
    parse_config,
)
from qbm.errors import LeakageError, ValidationError
from qbm.runio import read_csv
from qbm.runner import ellipse_points, run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
reservoir.family = ohmic_exp_cutoff
reservoir.alpha = 0.0
grid.dt = 0.01
grid.t_max = 1.0
run.modes = full
"""


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- parsing ---------------------------------------------------------------


def assert_same_kernels(table, expected):
    for name in ("grid", "kappa", "mu"):
        assert np.array_equal(getattr(table, name), getattr(expected, name)), name


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_conf(tmp_path, MINIMAL.replace("alpha = 0.0", "alpha = 0.1")))
    # the kernels of wc = 5 and T = 0 on the run grid
    spec = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=0.0)
    assert_same_kernels(cfg.kernels, kernels.tabulate_kernels(spec, build_grid(0.01, 1.0)))
    assert isinstance(cfg.state, qcf.CoherentState)
    assert cfg.rho0 is None
    assert cfg.modes == ("full",)
    assert cfg.output_dir == "out"
    assert cfg.wigner_nodes == ()


@pytest.mark.parametrize("kind", ["coherent", "thermal", "squeezed", "fock"])
def test_oracle_rho0_built_at_parse_time(tmp_path, kind):
    text = MINIMAL.replace("run.modes = full", "run.modes = rwa,oracle")
    cfg = parse_config(write_conf(tmp_path, text + f"state.kind = {kind}\n{STATE_KEYS[kind]}"))
    assert np.array_equal(cfg.rho0, oracle.to_density_matrix(cfg.state, 30))
    text += "oracle.dimension = 40\n"
    cfg = parse_config(write_conf(tmp_path, text + f"state.kind = {kind}\n{STATE_KEYS[kind]}"))
    assert np.array_equal(cfg.rho0, oracle.to_density_matrix(cfg.state, 40))


def test_negative_alpha_names_the_key(tmp_path):
    bad = MINIMAL.replace("reservoir.alpha = 0.0", "reservoir.alpha = -0.1")
    with pytest.raises(ValidationError, match="alpha"):
        parse_config(write_conf(tmp_path, bad))


def test_lorentz_drude_family_rejected_at_parse_time(tmp_path):
    out = tmp_path / "o"
    bad = MINIMAL.replace("ohmic_exp_cutoff", "ohmic_lorentz_drude")
    bad += f"reservoir.temperature = 1.0\nrun.output_dir = {out}\n"
    path = write_conf(tmp_path, bad)
    with pytest.raises(ValidationError, match="line 2: reservoir.family must be one of .*drude"):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert not out.exists()


def write_kernel_csv(tmp_path, spec, grid):
    table = kernels.tabulate_kernels(spec, grid)
    rows = "".join(f"{t:.17g},{k:.17g},{m:.17g}\n" for t, k, m in zip(grid, table.kappa, table.mu))
    path = tmp_path / "kernel.csv"
    path.write_text("tau,kappa,mu\n" + rows)
    return path


TABULATED = """
reservoir.family = tabulated
reservoir.kernel_csv = kernel.csv
grid.dt = 0.01
grid.t_max = 1.0
run.modes = rwa
"""


@pytest.mark.parametrize("key", ["reservoir.alpha", "reservoir.wc", "reservoir.temperature"])
def test_tabulated_family_rejects_ignored_reservoir_keys(tmp_path, key):
    cold = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1)
    write_kernel_csv(tmp_path, cold, build_grid(0.01, 1.0))
    path = write_conf(tmp_path, TABULATED + f"{key} = 0.5\n")
    with pytest.raises(ValidationError, match=rf"line 7: {re.escape(key)} does not apply"):
        parse_config(path)
    assert main(["run", str(path)]) == 1


def test_other_families_reject_kernel_csv_and_require_alpha(tmp_path):
    message = "line 7: reservoir.kernel_csv does not apply to reservoir.family = ohmic_exp_cutoff"
    with pytest.raises(ValidationError, match=message):
        parse_config(write_conf(tmp_path, MINIMAL + "reservoir.kernel_csv = kernel.csv\n"))
    with pytest.raises(ValidationError, match="missing required key 'reservoir.alpha'"):
        parse_config(write_conf(tmp_path, MINIMAL.replace("reservoir.alpha = 0.0\n", "")))


def test_tabulated_family_without_alpha_runs(tmp_path):
    # a table sampled from the thermal closed form reproduces that run's
    # coefficients byte for byte: the table is read as it stands
    hot = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=2.0)
    write_kernel_csv(tmp_path, hot, build_grid(0.01, 1.0))
    tab_conf = write_conf(tmp_path, TABULATED + f"run.output_dir = {tmp_path / 'tab'}\n")
    table = load_kernel_csv(tmp_path / "kernel.csv")
    expected = kernels.tabulate_kernels(table, build_grid(0.01, 1.0))
    assert_same_kernels(parse_config(tab_conf).kernels, expected)
    assert main(["run", str(tab_conf)]) == 0
    ref_conf = write_conf(
        tmp_path,
        MINIMAL.replace("alpha = 0.0", "alpha = 0.1").replace("run.modes = full", "run.modes = rwa")
        + f"reservoir.temperature = 2.0\nrun.output_dir = {tmp_path / 'ref'}\n",
        "ref.conf",
    )
    assert main(["run", str(ref_conf)]) == 0
    for name in ("coefficients.csv", "observables.csv"):
        assert (tmp_path / "tab" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_tabulated_kernel_shorter_than_grid_rejected_before_any_file(tmp_path, capsys):
    cold = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1)
    write_kernel_csv(tmp_path, cold, build_grid(0.01, 1.0))
    out = tmp_path / "o"
    text = TABULATED.replace("grid.t_max = 1.0", "grid.t_max = 3.0")
    path = write_conf(tmp_path, text + f"run.output_dir = {out}\n")
    message = (
        r"^line 2: reservoir\.family, line 3: reservoir\.kernel_csv, line 5: grid\.t_max: "
        r"the kernel table ends at tau = 1, short of the last grid node t = 3; "
        r"extend the table or lower grid\.t_max$"
    )
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "grid.t_max" in capsys.readouterr().err
    assert not out.exists()
    # a table that reaches the last node runs
    assert parse_config(write_conf(tmp_path, TABULATED, "ok.conf")).kernels.grid[-1] == 1.0


def test_coarse_grid_rejected_before_any_file(tmp_path, capsys):
    # dt = 0.6 would also fail full mode's homogeneous solve, whose effective
    # frequency is 1 at t = 0, so it must fail before any file is written
    for dt, t_max in (("1", "5.0"), ("0.6", "6.0")):
        out = tmp_path / f"o{dt}"
        text = MINIMAL.replace("grid.dt = 0.01\ngrid.t_max = 1.0", f"grid.dt = {dt}\ngrid.t_max = {t_max}")
        path = write_conf(tmp_path, text + f"run.output_dir = {out}\n")
        message = rf"^line 4: grid\.dt, line 5: grid\.t_max: grid too coarse: use grid\.dt <= 0\.5, not {dt}$"
        with pytest.raises(ValidationError, match=message):
            parse_config(path)
        assert main(["run", str(path)]) == 1
        assert "line 4: grid.dt" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_key_suggests_correction(tmp_path):
    bad = MINIMAL.replace("reservoir.alpha", "reservoir.aplha")
    with pytest.raises(ValidationError, match="reservoir.alpha"):
        parse_config(write_conf(tmp_path, bad))


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = MINIMAL + "grid.dtx = 0.5\n"
    with pytest.raises(ValidationError, match="line 7"):
        parse_config(write_conf(tmp_path, bad))
    bad_type = MINIMAL.replace("grid.dt = 0.01", "grid.dt = fast")
    with pytest.raises(ValidationError, match="line 4.*float"):
        parse_config(write_conf(tmp_path, bad_type))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(write_conf(tmp_path, MINIMAL + "grid.dt = 0.02\n"))


def test_mode_list_parsing_and_validation(tmp_path):
    cfg = parse_config(write_conf(tmp_path, MINIMAL.replace("full", "rwa, oracle")))
    assert cfg.modes == ("rwa", "oracle")
    with pytest.raises(ValidationError, match="mode"):
        parse_config(write_conf(tmp_path, MINIMAL.replace("full", "fast")))


def test_every_state_key_belongs_to_one_kind_and_names_a_parameter():
    state_keys = [key for key in _KEY_TYPES if key.startswith("state.") and key != "state.kind"]
    for key in state_keys:
        owners = [kind for kind, (_, fields) in _STATE_KINDS.items() if key in fields]
        assert len(owners) == 1, key
        build, fields = _STATE_KINDS[owners[0]]
        assert fields[key] in inspect.signature(build).parameters, key
    assert sorted(key for _, fields in _STATE_KINDS.values() for key in fields) == sorted(state_keys)


# each case: a MINIMAL line replaced (or None), lines appended (line 7 on), the
# number of the bad line and what follows "line N: " in the message
LINE_ERRORS = {
    "grid.dt": (("grid.dt = 0.01", "grid.dt = -0.01"), [], 4, "grid.dt must be > 0"),
    "grid.t_max": (
        ("grid.t_max = 1.0", "grid.t_max = 0.001"), [], 5, "grid.t_max must be >= grid.dt"
    ),
    "oracle.dimension": (None, ["oracle.dimension = 4"], 7, "oracle.dimension must be >= 8"),
    # past 256 each mode's stencil table would take more than 45 MiB
    "oracle.dimension large": (
        None, ["oracle.dimension = 257"], 7, "oracle.dimension must be >= 8, <= 256"
    ),
    "oracle.leakage_threshold": (
        None, ["oracle.leakage_threshold = 0"], 7, "oracle.leakage_threshold must be > 0"
    ),
    "wigner.points": (None, ["wigner.points = 4"], 7, "wigner.points must be >= 8"),
    # past 1024 a map and its rows would take more than 64 MiB
    "wigner.points large": (
        None, ["wigner.points = 1025"], 7, "wigner.points must be >= 8, <= 1024"
    ),
    "wigner.extent": (None, ["wigner.extent = -1"], 7, "wigner.extent must be > 0"),
    "state.x0": (
        None,
        ["state.kind = fock", "state.n = 1", "state.x0 = 1.0"],
        9,
        "state.x0 does not apply to state.kind = fock",
    ),
    "state.kind": (None, ["state.kind = cat"], 7, "state.kind must be one of "),
    "reservoir.wc": (None, ["reservoir.wc = 0"], 7, "reservoir.wc: cutoff wc must be > 0"),
    "oscillator.omega0": (
        None, ["oscillator.omega0 = 2.0"], 7, "oscillator.omega0 is documentation metadata"
    ),
    "state.nbar": (
        None,
        ["state.kind = thermal", "state.nbar = -0.5"],
        8,
        "state.nbar: thermal occupation nbar must be >= 0",
    ),
}
# parameters whose kernels or initial moments overflow double precision
_KERNELS = "alpha, wc and temperature give kernels that overflow double precision"
_MOMENTS = "chi moments must be finite"
_ALPHA = "reservoir.alpha = 0.0"
LINE_ERRORS |= {
    "reservoir.alpha overflow": (
        (_ALPHA, "reservoir.alpha = 1e200"), [], 3, f"reservoir.alpha: {_KERNELS}"
    ),
    "reservoir.wc overflow": (
        (_ALPHA, "reservoir.alpha = 0.1\nreservoir.wc = 1e200"), [], 4, f"reservoir.wc: {_KERNELS}"
    ),
    "reservoir.temperature overflow": (
        (_ALPHA, "reservoir.alpha = 0.1\nreservoir.temperature = 1e160"),
        [],
        4,
        f"reservoir.temperature: {_KERNELS}",
    ),
    "state.r overflow": (
        None, ["state.kind = squeezed", "state.r = 400"], 8, f"state.r: {_MOMENTS}"
    ),
    "state.nbar overflow": (
        None, ["state.kind = thermal", "state.nbar = 1e308"], 8, f"state.nbar: {_MOMENTS}"
    ),
    "state.n overflow": (
        None, ["state.kind = fock", "state.n = 1" + "0" * 310], 8, f"state.n: {_MOMENTS}"
    ),
    # b = (-p0, x0) is finite, <X^2> = x0^2 + 1/2 and <P^2> = p0^2 + 1/2 are not
    "state.x0 overflow": (None, ["state.x0 = 1e200"], 7, f"state.x0: {_MOMENTS}"),
    "state.p0 overflow": (None, ["state.p0 = 1e300"], 7, f"state.p0: {_MOMENTS}"),
}


@pytest.mark.parametrize("case", list(LINE_ERRORS))
def test_value_errors_name_their_key_and_line(tmp_path, capsys, case):
    replaced, appended, lineno, message = LINE_ERRORS[case]
    text = MINIMAL.replace(*replaced) if replaced else MINIMAL
    path = write_conf(tmp_path, text + "".join(f"{line}\n" for line in appended))
    with pytest.raises(ValidationError, match=rf"^line {lineno}: {re.escape(message)}"):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    # the error line alone: no traceback and no warning before it
    err = capsys.readouterr().err
    assert err.startswith(f"qbm: error: line {lineno}: ") and err.count("\n") == 1


def test_state_params_must_match_kind(tmp_path):
    bad = MINIMAL + "state.kind = thermal\nstate.x0 = 1.0\n"
    with pytest.raises(ValidationError, match="state.x0"):
        parse_config(write_conf(tmp_path, bad))
    good = MINIMAL + "state.kind = thermal\nstate.nbar = 1.0\n"
    cfg = parse_config(write_conf(tmp_path, good))
    assert isinstance(cfg.state, qcf.ThermalState)


def test_omega0_must_stay_unity(tmp_path):
    bad = MINIMAL + "oscillator.omega0 = 2.0\n"
    with pytest.raises(ValidationError, match="omega0"):
        parse_config(write_conf(tmp_path, bad))


def test_comments_and_blank_lines_ignored(tmp_path):
    noisy = "# header\n\n" + MINIMAL.replace(
        "grid.dt = 0.01", "grid.dt = 0.01  # step"
    )
    assert parse_config(write_conf(tmp_path, noisy)).kernels.grid[1] == 0.01


def test_wigner_times_outside_grid_rejected(tmp_path):
    # both ends of [0, t_max]; the endpoints themselves are valid
    for value in ("-0.5", "1.5"):
        bad = MINIMAL + f"wigner.times = 0.5, {value}\n"
        with pytest.raises(ValidationError, match=f"line 7: wigner.times {value}"):
            parse_config(write_conf(tmp_path, bad))
    cfg = parse_config(write_conf(tmp_path, MINIMAL + "wigner.times = 0, 1.0\n"))
    assert cfg.wigner_nodes == ()
    # each time snaps to its nearest node, and a node repeated gives one map
    text = MINIMAL + "wigner.enabled = true\nwigner.times = 1.0, 0, 0.996\nwigner.extent = 4\n"
    cfg = parse_config(write_conf(tmp_path, text))
    assert cfg.wigner_nodes == (100, 0)
    assert np.array_equal(cfg.wigner_axis, np.linspace(-4.0, 4.0, 64))


FLOAT_KEYS = [key for key, caster in _KEY_TYPES.items() if caster is float]
# lines a state key needs so that parsing reaches it
STATE_CONTEXT = {
    "state.nbar": ["state.kind = thermal"],
    "state.r": ["state.kind = squeezed"],
    "state.phi": ["state.kind = squeezed", "state.r = 0.5"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_naming_key_and_line(tmp_path, key, value):
    lines = [ln for ln in MINIMAL.strip().splitlines() if not ln.startswith(f"{key} ")]
    lines += STATE_CONTEXT.get(key, []) + [f"{key} = {value}"]
    path = write_conf(tmp_path, "\n".join(lines) + "\n")
    message = rf"line {len(lines)}: {re.escape(key)} must be finite"
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1


def test_fock_level_near_oracle_truncation_rejected_before_any_file(tmp_path, capsys):
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", "run.modes = full,oracle")
    text += f"state.kind = fock\nstate.n = 26\noracle.dimension = 30\nrun.output_dir = {out}\n"
    path = write_conf(tmp_path, text)
    message = (
        r"^line 6: run\.modes, line 7: state\.kind, line 8: state\.n, line 9: oracle\.dimension: "
        r"Fock level 26 is too close to truncation d=30; the oracle needs oracle\.dimension >= 32$"
    )
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "state.n" in capsys.readouterr().err
    assert not out.exists()
    # the same level runs once the basis leaves the interior margin free
    cfg = parse_config(write_conf(tmp_path, text.replace("= 30", "= 32"), "ok.conf"))
    assert cfg.state.n == 26 and cfg.rho0.shape == (32, 32)


def write_chi_csv(tmp_path, cell=lambda v: f"{v:.17g}", half_width=3.0, count=13):
    """The vacuum chi on a count x count grid over [-half_width, half_width]^2.

    ``cell`` formats each number.
    """
    nodes = np.linspace(-half_width, half_width, count)
    lines = ["x,p,re_chi,im_chi"]
    for x in nodes:
        for p in nodes:
            row = (x, p, np.exp(-(x * x + p * p) / 4.0), 0.0)
            lines.append(",".join(cell(v) for v in row))
    path = tmp_path / "chi.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tabulated_chi_with_oracle_rejected_before_any_file(tmp_path, capsys):
    write_chi_csv(tmp_path)
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", "run.modes = full,oracle")
    text += f"state.kind = tabulated_chi\nstate.chi_csv = chi.csv\nrun.output_dir = {out}\n"
    path = write_conf(tmp_path, text)
    message = (
        r"^line 6: run\.modes, line 7: state\.kind, line 8: state\.chi_csv: TabulatedChi has "
        r"no Fock-space form; remove oracle from run\.modes$"
    )
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "run.modes" in capsys.readouterr().err
    assert not out.exists()


def test_non_numeric_chi_csv_cell_names_file_and_line(tmp_path, capsys):
    # numpy's repr of a scalar, as a script that formats np.float64 with !r writes it
    write_chi_csv(tmp_path, cell=lambda v: repr(np.float64(v)) if v == -3.0 else f"{v:.17g}")
    text = MINIMAL + "state.kind = tabulated_chi\nstate.chi_csv = chi.csv\n"
    text += f"run.output_dir = {tmp_path / 'o'}\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert "chi.csv line 2" in err and "np.float64(-3.0)" in err


@pytest.mark.parametrize("where", ["config", "reservoir.kernel_csv", "state.chi_csv"])
def test_input_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, where):
    out = tmp_path / "o"
    text = MINIMAL
    if where == "reservoir.kernel_csv":
        spec = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1)
        target = write_kernel_csv(tmp_path, spec, build_grid(0.01, 1.0))
        text = TABULATED
    elif where == "state.chi_csv":
        target = write_chi_csv(tmp_path)
        text += "state.kind = tabulated_chi\nstate.chi_csv = chi.csv\n"
    path = write_conf(tmp_path, text + f"run.output_dir = {out}\n")
    if where == "config":
        target = path
    with open(target, "ab") as fh:
        fh.write(b"# caf\xff\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    named = "config" if where == "config" else f"{where}: CSV"
    assert f"{named} {target} is not UTF-8 text" in err and "Traceback" not in err
    assert not out.exists()


def test_tabulated_chi_narrower_than_wigner_grid_rejected_before_any_file(tmp_path, capsys):
    write_chi_csv(tmp_path)
    out = tmp_path / "o"
    text = MINIMAL.replace("grid.t_max = 1.0", "grid.t_max = 0.05")
    text += f"state.kind = tabulated_chi\nstate.chi_csv = chi.csv\nrun.output_dir = {out}\n"
    text += "wigner.enabled = true\n"
    path = write_conf(tmp_path, text)
    message = (
        r"^line 8: state\.chi_csv, line 10: wigner\.enabled: the chi table reaches only "
        r"\|x\|, \|p\| <= 3, .* or set wigner\.enabled = false$"
    )
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "state.chi_csv" in err and "wigner.enabled" in err
    assert not out.exists()
    # the same table runs without the Wigner maps
    cfg = parse_config(write_conf(tmp_path, text.replace("= true", "= false"), "ok.conf"))
    assert cfg.wigner_nodes == ()


def test_tabulated_chi_decayed_at_its_boundary_runs_every_wigner_grid(tmp_path):
    # the vacuum chi is e^-36 ~ 2e-16 on the boundary of [-12, 12]^2, below
    # qcf.CHI_DECAY_TOL, so the table stands for chi = 0 outside it: chi_t is
    # still ~1e-7 on the edge of the first Wigner z-grid (|z| <= 8), and the
    # next one (|z| <= 16) reaches past the table
    write_chi_csv(tmp_path, half_width=12.0, count=25)
    out = tmp_path / "o"
    text = MINIMAL.replace("grid.t_max = 1.0", "grid.t_max = 0.05")
    text += f"state.kind = tabulated_chi\nstate.chi_csv = chi.csv\nrun.output_dir = {out}\n"
    text += "wigner.enabled = true\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 0
    assert sorted(os.listdir(out)) == [
        "coefficients.csv",
        "observables.csv",
        "observables_full.csv",
        "propagator.csv",
        "propagator_full.csv",
        "rotation.csv",
        "run_report.txt",
        "wigner_t0.csv",
    ]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_chi_table_rejected_before_any_file(tmp_path, capsys, value):
    # one symmetric pair of non-finite values: its symmetry residue is NaN,
    # and a table that slipped through made every Wigner value non-finite
    path = write_chi_csv(tmp_path, half_width=12.0, count=49)
    lines = path.read_text().splitlines()
    for k in (1 + 20 * 49 + 30, 1 + 28 * 49 + 18):
        x, p, _, im = lines[k].split(",")
        lines[k] = ",".join((x, p, value, im))
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", "run.modes = rwa")
    text = text.replace("grid.t_max = 1.0", "grid.t_max = 0.05")
    text += f"state.kind = tabulated_chi\nstate.chi_csv = chi.csv\nrun.output_dir = {out}\n"
    text += "wigner.enabled = true\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "wigner_t0.csv").exists()


def test_chi_csv_with_a_repeated_point_names_the_gap(tmp_path):
    path = write_chi_csv(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = lines[1]  # the row count still fills the grid, one node twice
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="duplicate or missing grid points"):
        load_chi_csv(path)


def test_ragged_or_empty_csv_raises_validation_error(tmp_path):
    path = tmp_path / "kern.csv"
    path.write_text("# comment\ntau,kappa,mu\n0.0,0.25,0.0\n\n0.5,0.1\n")
    with pytest.raises(ValidationError, match=r"kern\.csv line 5: expected 3 values, got 2"):
        load_kernel_csv(path)
    path = tmp_path / "chi.csv"
    path.write_text("x,p,re_chi,im_chi\n")
    with pytest.raises(ValidationError, match="at least 5 nodes"):
        load_chi_csv(path)


STATE_KEYS = {
    "coherent": "state.x0 = 1.0\n",
    "thermal": "state.nbar = 0.5\n",
    "squeezed": "state.r = 0.3\nstate.phi = 0.2\n",
    "fock": "state.n = 2\n",
    "tabulated_chi": "state.chi_csv = chi.csv\n",
}


@pytest.mark.parametrize("mode", RUN_MODES)
@pytest.mark.parametrize("kind", list(_STATE_KINDS))
def test_every_state_kind_and_mode_runs_or_is_rejected_at_parse_time(tmp_path, kind, mode):
    write_chi_csv(tmp_path)
    out = tmp_path / "o"
    text = MINIMAL.replace("reservoir.alpha = 0.0", "reservoir.alpha = 0.1")
    text = text.replace("grid.t_max = 1.0", "grid.t_max = 0.05")
    text = text.replace("run.modes = full", f"run.modes = {mode}")
    text += f"state.kind = {kind}\n{STATE_KEYS[kind]}run.output_dir = {out}\n"
    path = write_conf(tmp_path, text)
    try:
        parse_config(path)
    except ValidationError:
        assert main(["run", str(path)]) == 1
        assert not out.exists()
    else:
        assert main(["run", str(path)]) == 0
        # an oracle-only run has no analytic mode, yet writes no NaN column
        for csv in out.glob("*.csv"):
            assert np.all(np.isfinite(read_csv(csv)[1])), csv.name


@pytest.mark.parametrize("value", ["0", "-6.0"])
def test_wigner_extent_must_be_positive(tmp_path, value):
    with pytest.raises(ValidationError, match="wigner.extent must be > 0"):
        parse_config(write_conf(tmp_path, MINIMAL + f"wigner.extent = {value}\n"))


# --- grid ------------------------------------------------------------------


def test_build_grid_covers_horizon():
    grid = build_grid(0.01, 1.0)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0)
    assert len(grid) == 101


@pytest.mark.parametrize("dt", ["1e-15", "5e-324"])
def test_grid_too_fine_to_hold_is_rejected_at_parse_time(tmp_path, capsys, dt):
    out = tmp_path / "o"
    text = MINIMAL.replace("grid.dt = 0.01", f"grid.dt = {dt}") + f"run.output_dir = {out}\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbm: error: line 4: grid.dt, line 5: grid.t_max: ")
    assert f"exceed the {MAX_GRID_NODES:.0e} grid nodes" in err and "Traceback" not in err
    assert not out.exists()


# --- runs ------------------------------------------------------------------


@pytest.fixture()
def free_run_config(tmp_path):
    text = (
        "reservoir.family = ohmic_exp_cutoff\n"
        "reservoir.alpha = 0.0\n"
        "grid.dt = 0.01\n"
        "grid.t_max = 2.0\n"
        "run.modes = full,oracle\n"
        "state.kind = coherent\n"
        "state.x0 = 2.0\n"
        f"run.output_dir = {tmp_path / 'out'}\n"
    )
    return write_conf(tmp_path, text)


def test_free_run_diff_report_below_threshold(free_run_config, tmp_path):
    result = run(parse_config(free_run_config))
    assert result.diffs["full"]["mean_x"] < 1e-7
    assert all(v < 1e-7 for v in result.diffs["full"].values())
    report = (tmp_path / "out" / "diff_report.txt").read_text()
    assert "mode=full" in report


def test_run_outputs_have_schema_comments(free_run_config, tmp_path):
    run(parse_config(free_run_config))
    for name in ("observables.csv", "coefficients.csv", "propagator.csv", "rotation.csv"):
        first = (tmp_path / "out" / name).read_text().splitlines()[0]
        assert first.startswith("# ")


def test_reruns_are_byte_identical(free_run_config, tmp_path):
    run(parse_config(free_run_config))
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in os.listdir(tmp_path / "out")
    }
    run(parse_config(free_run_config))
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_norenorm_and_rwa_energy_columns_agree(tmp_path):
    text = MINIMAL.replace("run.modes = full", "run.modes = norenorm,rwa").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"run.output_dir = {tmp_path / 'out'}\n"
    run(parse_config(write_conf(tmp_path, text)))
    header_n, data_n = read_csv(tmp_path / "out" / "observables_norenorm.csv")
    header_r, data_r = read_csv(tmp_path / "out" / "observables_rwa.csv")
    col = header_n.index("energy")
    assert np.max(np.abs(data_n[:, col] - data_r[:, col])) < 1e-8


def test_wigner_artifacts(tmp_path):
    text = MINIMAL + (
        "wigner.enabled = true\nwigner.times = 0.0\nwigner.points = 32\n"
        f"run.output_dir = {tmp_path / 'out'}\n"
    )
    run(parse_config(write_conf(tmp_path, text)))
    header, data = read_csv(tmp_path / "out" / "wigner_t0.csv")
    assert header == ["q", "p", "w"]
    assert len(data) == 32 * 32


def test_wigner_times_on_one_node_give_one_map(tmp_path, capsys):
    out = tmp_path / "out"
    text = MINIMAL + (
        "wigner.enabled = true\nwigner.times = 0.5,0.5,0.501,0.2\nwigner.points = 8\n"
        f"run.output_dir = {out}\n"
    )
    assert main(["run", str(write_conf(tmp_path, text))]) == 0
    printed = [os.path.basename(line) for line in capsys.readouterr().out.split()]
    assert [name for name in printed if name.startswith("wigner_t")] == [
        "wigner_t50.csv",
        "wigner_t20.csv",
    ]
    assert sorted(p.name for p in out.glob("wigner_t*.csv")) == ["wigner_t20.csv", "wigner_t50.csv"]


@pytest.mark.parametrize(
    "modes, state, remedy",
    [
        ("rwa", "state.kind = fock\nstate.n = 200000\n", "lower wigner.extent"),
        ("oracle", "state.kind = squeezed\nstate.r = 1.5\noracle.dimension = 256\n", "state.r"),
    ],
    ids=["fock_rwa", "squeezed_oracle_only"],
)
def test_a_refused_wigner_map_leaves_no_output_directory(tmp_path, capsys, modes, state, remedy):
    # each map would alias, which the config alone decides: every map is
    # computed before the first file, from the first analytic mode's bundle
    # or, in an oracle-only run, from the full mode's
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", f"run.modes = {modes}")
    text += f"{state}wigner.enabled = true\nwigner.points = 8\nrun.output_dir = {out}\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert "would alias" in err and remedy in err, err
    assert not out.exists()


def test_multi_mode_run_files_and_mirrors(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    text = MINIMAL.replace("run.modes = full", "run.modes = norenorm,rwa,oracle").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"state.x0 = 2.0\nrun.output_dir = {out}\n"
    log = tmp_path / "formatted.log"

    def counting_write_csv(path, table):
        # appended to a file, so that the tables a forked writer formats count too
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(os.path.basename(path) + "\n")
        runio.write_csv(path, table)

    monkeypatch.setattr(runner, "write_csv", counting_write_csv)
    assert main(["run", str(write_conf(tmp_path, text))]) == 0
    # each distinct table is formatted once; the three mirrors are byte copies
    formatted = log.read_text(encoding="utf-8").split()
    assert sorted(formatted) == sorted(set(formatted)) and len(formatted) == 7, formatted
    printed = [os.path.basename(line) for line in capsys.readouterr().out.split()]
    assert printed == [
        "coefficients.csv",
        "observables_norenorm.csv",
        "observables.csv",
        "propagator_norenorm.csv",
        "propagator.csv",
        "observables_rwa.csv",
        "propagator_rwa.csv",
        "oracle_observables_norenorm.csv",
        "oracle_observables.csv",
        "oracle_observables_rwa.csv",
        "diff_report.txt",
        "run_report.txt",
    ]
    for stem in ("observables", "propagator", "oracle_observables"):
        assert (out / f"{stem}.csv").read_bytes() == (out / f"{stem}_norenorm.csv").read_bytes()
    # energy_rwa is the rotating-wave closed form from each route's own E(0);
    # the oracle's E(0) of the truncated coherent state is 2.4999999999999996
    header, table = read_csv(out / "coefficients.csv")
    big_gamma = table[:, header.index("big_gamma")]
    header, prop = read_csv(out / "propagator_rwa.csv")
    delta_gamma = prop[:, header.index("delta_gamma")]
    for name in ("observables_rwa.csv", "oracle_observables_rwa.csv"):
        header, data = read_csv(out / name)
        energy_rwa = data[:, header.index("energy_rwa")]
        e0 = data[0, header.index("energy")] if name.startswith("oracle") else 2.5
        assert energy_rwa[0] == e0
        np.testing.assert_allclose(energy_rwa, np.exp(-big_gamma) * e0 + delta_gamma, rtol=1e-14)


def readme_schemas() -> dict:
    """The header of each CSV stem in README's "Output files" list."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Output files") :]
    bullets = re.findall(
        r"^\* `(\w+)(?:\[_mode\]|<i>)?\.csv` - (?:`([^`]+)`|same schema as `(\w+)\.csv`)",
        section,
        re.M,
    )
    schemas = {stem: header for stem, header, _ in bullets if header}
    schemas.update((stem, schemas[same]) for stem, _, same in bullets if same)
    return schemas


def test_each_column_is_written_in_one_file(tmp_path):
    # every header is the one README lists for its file
    out = tmp_path / "out"
    text = MINIMAL.replace("run.modes = full", "run.modes = full,norenorm,rwa,oracle").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"state.x0 = 2.0\nwigner.enabled = true\nwigner.points = 8\nrun.output_dir = {out}\n"
    run(parse_config(write_conf(tmp_path, text)))
    schemas = readme_schemas()
    assert set(schemas) == {"coefficients", "observables", "propagator", "rotation",
                            "oracle_observables", "wigner_t"}
    owners = {"big_gamma": set(), "lambda": set(), "theta": set()}
    for path in sorted(out.glob("*.csv")):
        stem = re.sub(r"(_(full|norenorm|rwa)|(?<=wigner_t)\d+)$", "", path.stem)
        comment, header = path.read_text().splitlines()[:2]
        assert (comment, header) == (f"# {schemas[stem]}", schemas[stem]), path.name
        for name in owners.keys() & set(header.split(",")):
            owners[name].add(stem)
    assert owners == {"big_gamma": {"coefficients"}, "lambda": {"propagator"},
                      "theta": {"propagator"}}


def test_oracle_only_run_writes_energy_rwa(tmp_path):
    # energy_rwa comes from the coefficient table and the oracle's own E(0)
    out = tmp_path / "out"
    text = MINIMAL.replace("run.modes = full", "run.modes = oracle").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"state.kind = squeezed\nstate.r = 0.5\nrun.output_dir = {out}\n"
    run(parse_config(write_conf(tmp_path, text)))
    header, table = read_csv(out / "coefficients.csv")
    columns = dict(zip(["grid", *header[1:]], table.T))
    delta_gamma_rwa = propagator.delta_gamma_series(coefficients.CoefficientTable(**columns))
    header, data = read_csv(out / "oracle_observables_full.csv")
    e0 = data[0, header.index("energy")]
    energy_rwa = data[:, header.index("energy_rwa")]
    assert energy_rwa[0] == e0
    expected = np.exp(-columns["big_gamma"]) * e0 + delta_gamma_rwa
    np.testing.assert_allclose(energy_rwa, expected, rtol=1e-14)


def test_every_energy_column_is_moment_based(tmp_path):
    # each observables file is its route's moment record, in every mode; the
    # closed-form law is energy_rwa alone, within criterion 2 in rwa and norenorm
    out = tmp_path / "out"
    text = MINIMAL.replace("run.modes = full", "run.modes = full,norenorm,rwa,oracle").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"run.output_dir = {out}\n"
    run(parse_config(write_conf(tmp_path, text)))
    names = sorted(path.name for path in out.glob("*observables*.csv"))
    assert len(names) == 8  # two mirrors and three modes, analytic and oracle
    for name in names:
        header, data = read_csv(out / name)
        col = dict(zip(header, data.T))
        assert np.array_equal(col["energy"], 0.5 * (col["xx"] + col["pp"])), name
        if name in ("observables_rwa.csv", "observables_norenorm.csv"):
            assert np.max(np.abs(col["energy"] - col["energy_rwa"])) <= 1e-8, name


# --- ellipse ---------------------------------------------------------------


def test_ellipse_zero_inputs_is_unit_circle():
    _theta, pts, circle = ellipse_points(0.0, 0.0)
    assert np.max(np.abs(pts - circle)) < 1e-12
    assert np.max(np.abs(np.hypot(pts[0], pts[1]) - 1.0)) < 1e-12


def test_ellipse_rejects_strong_coupling():
    with pytest.raises(ValidationError):
        ellipse_points(1.2, 0.0)
    with pytest.raises(ValidationError, match="elliptic"):
        ellipse_points(0.99, 0.5)


def test_ellipse_axis_aligned_without_gamma():
    _theta, pts, _ = ellipse_points(0.1, 0.0)
    m = pts @ pts.T
    assert abs(m[0, 1]) < 1e-10  # principal axes on the coordinate axes
    assert m[0, 0] > m[1, 1]  # stretched along x by the frequency shift


# --- CLI entry points ------------------------------------------------------


def test_cli_run_and_exit_codes(tmp_path, capsys):
    conf = write_conf(tmp_path, MINIMAL + f"run.output_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(conf)]) == 0
    assert "observables.csv" in capsys.readouterr().out
    assert main(["run", str(tmp_path / "missing.conf")]) == 3
    bad = write_conf(tmp_path, MINIMAL.replace("0.0", "-1.0"), "bad.conf")
    assert main(["run", str(bad)]) == 1


@pytest.mark.parametrize(
    "modes, report",
    [
        ("full", "run_report.txt"),
        ("full,oracle", "diff_report.txt"),
        ("full", "observables.csv"),
        ("full,oracle", "oracle_observables.csv"),
    ],
)
def test_unwritable_report_or_mirror_exits_with_io_code(tmp_path, capsys, modes, report):
    out = tmp_path / "o"
    (out / report).mkdir(parents=True)
    text = MINIMAL.replace("run.modes = full", f"run.modes = {modes}")
    conf = write_conf(tmp_path, text + f"run.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 3
    assert report in capsys.readouterr().err


def test_output_dir_under_a_regular_file_exits_with_io_code(tmp_path, capsys):
    # makedirs fails whatever the permissions, so this holds when run as root too
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "o"
    conf = write_conf(tmp_path, MINIMAL + f"run.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 3
    assert str(out) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["blocker", "run.conf"]
    assert blocker.read_text() == ""


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a coherent state far beyond the tiny truncated basis trips the
    # leakage guard at parse time, which is a numerical failure (exit 2); at
    # x0 = 60 every Fock amplitude underflows, and the 0/0 of its
    # normalization must not reach the guards as NaN
    for x0 in (4.5, 60.0):
        text = (
            "reservoir.family = ohmic_exp_cutoff\n"
            "reservoir.alpha = 0.0\n"
            "grid.dt = 0.01\n"
            "grid.t_max = 0.5\n"
            "run.modes = oracle\n"
            "state.kind = coherent\n"
            f"state.x0 = {x0}\n"
            "oracle.dimension = 10\n"
            f"run.output_dir = {tmp_path / 'o2'}\n"
        )
        conf = write_conf(tmp_path, text, "leaky.conf")
        with pytest.raises(LeakageError, match="^line 5: run.modes, .*line 8: oracle.dimension: "):
            parse_config(conf)
        assert main(["run", str(conf)]) == 2, x0
        err = capsys.readouterr().err
        assert "leak" in err, x0
        assert not (tmp_path / "o2").exists()
    assert "CoherentState(x0=60.0, p0=0.0) leaks" in err and "d=10" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("x0", 1e11), ("x0", 1e140), ("x0", 1e155), ("p0", 1e160)])
def test_huge_coherent_amplitude_leaks_without_overflow(tmp_path, capsys, key, value):
    # |alpha|^n overflows double precision; past 1e154 |alpha|^2 does too, and
    # with it <X^2> or <P^2>, so the state is refused when it is built
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", "run.modes = rwa,oracle")
    conf = write_conf(tmp_path, text + f"state.{key} = {value!r}\nrun.output_dir = {out}\n")
    if value > 1e154:
        message = f"line 7: state.{key}: chi moments must be finite"
        with pytest.raises(ValidationError, match=f"^{message}"):
            parse_config(conf)
        assert main(["run", str(conf)]) == 1
        assert capsys.readouterr().err.startswith(f"qbm: error: {message}")
    else:
        message = "leaks its whole population out of the d=30 Fock basis"
        with pytest.raises(LeakageError, match=message):
            oracle.to_density_matrix(qcf.CoherentState(**{key: value}), 30)
        assert main(["run", str(conf)]) == 2
        err = capsys.readouterr().err
        assert message in err and "cannot be represented" in err
    assert not out.exists()


def test_leaky_initial_state_at_the_default_dimension_writes_no_file(tmp_path, capsys):
    out = tmp_path / "o"
    text = MINIMAL.replace("run.modes = full", "run.modes = full,oracle")
    conf = write_conf(tmp_path, text + f"state.x0 = 8\nrun.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qbm: error: line 6: run.modes, line 7: state.x0: initial state")
    assert "increase oracle.dimension beyond 30" in err
    assert not out.exists()


# <P^2> = p0^2 + 1/2 is finite at t = 0, but the full mode's frequency is
# below 1, so its orbit carries <X^2> + <P^2> past double precision at
# t = 0.64, and <X^2> alone at t = 1.3
MOMENT_OVERFLOW = (
    MINIMAL.replace("reservoir.alpha = 0.0", "reservoir.alpha = 0.2")
    .replace("grid.t_max = 1.0", "grid.t_max = 2.0")
    + "state.p0 = 1.3e154\n"
)


@pytest.mark.filterwarnings("error")
def test_non_finite_analytic_moments_exit_with_numerical_code(tmp_path, capsys):
    # the overflow gives inf, which the variance floor's comparisons never
    # flag; it must warn nothing, and the error names the mode and the first t
    out = tmp_path / "o"
    conf = write_conf(tmp_path, MOMENT_OVERFLOW + f"run.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 2
    assert capsys.readouterr().err == (
        "qbm: error: analytic mode 'full': moment column energy is not finite at t=0.64: "
        "the moments overflow double precision\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0.1", "0.0"])
def test_unstable_oracle_step_names_the_step_not_the_dimension(tmp_path, capsys, alpha):
    # at d = 30, (d - 1) dt = 4.35 is past RK4's reach 2 sqrt 2 on the
    # rotation eigenvalues +-i(m - n): raising d alone would only make it
    # worse.  With coupling the growing off-diagonal entries reach the top
    # populations and trip the leakage guard; without it they grow unseen
    # by that guard until |rho_mn| <= 1 fails at the end of the run
    text = (
        MINIMAL.replace("run.modes = full", "run.modes = oracle")
        .replace("reservoir.alpha = 0.0", f"reservoir.alpha = {alpha}")
        .replace("grid.dt = 0.01\ngrid.t_max = 1.0", "grid.dt = 0.15\ngrid.t_max = 6.0")
    )
    conf = write_conf(tmp_path, text + f"state.x0 = 2.0\nrun.output_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(conf)]) == 2
    err = capsys.readouterr().err
    assert "h=0.15" in err and "2*sqrt(2)/(d-1)=0.0975" in err
    assert "lower grid.dt below 0.0975 before" in err


def test_step_abort_prints_the_frequency_and_the_limit_in_full(tmp_path, capsys):
    # at wc = 1e-3 and T = 1e-6 the effective frequency passes 1 in its last
    # digits alone, so a short format would print step 0.5 above a limit of 0.5
    text = (
        MINIMAL.replace("reservoir.alpha = 0.0", "reservoir.alpha = 0.1")
        .replace("grid.dt = 0.01\ngrid.t_max = 1.0", "grid.dt = 0.5\ngrid.t_max = 10.0")
        + "reservoir.wc = 1e-3\nreservoir.temperature = 1e-6\nstate.kind = fock\nstate.n = 2\n"
    )
    out = tmp_path / "o"
    # an oracle-only run meets it first in the full-mode bundle that its maps read
    maps = text.replace("run.modes = full", "run.modes = oracle") + "wigner.enabled = true\n"
    for config in (text, maps):
        assert main(["run", str(write_conf(tmp_path, config + f"run.output_dir = {out}\n"))]) == 2
        err = capsys.readouterr().err
        message = (
            r"^qbm: error: analytic mode 'full': "
            r"step (\S+) too large for effective frequency (\S+); need grid\.dt <= (\S+)\n"
        )
        found = re.search(message, err)
        assert found, err
        step, frequency, limit = (float(value) for value in found.groups())
        assert step == 0.5 and frequency > 1.0 and limit < step
        assert not out.exists()


@pytest.mark.parametrize("temperature", ["1e20", "1e4"])
def test_oracle_abort_tells_a_blow_up_from_truncation(tmp_path, capsys, temperature):
    # h = 0.01 is inside RK4's limit on the rotation at d = 30.  At T = 1e20
    # the coefficients reach 2.6e18 and the first step puts 1.7e13, more
    # than the whole trace, into the top levels: no d mends that.  At
    # T = 1e4 the top levels hold 1.1e-5 by t = 0.05, which is truncation
    text = MINIMAL.replace("run.modes = full", "run.modes = oracle")
    text = text.replace("reservoir.alpha = 0.0", "reservoir.alpha = 0.1")
    text += f"reservoir.temperature = {temperature}\nstate.x0 = 1.0\n"
    conf = write_conf(tmp_path, text + f"run.output_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(conf)]) == 2
    err = capsys.readouterr().err
    if temperature == "1e20":
        assert "coefficients reach 2.61e+18" in err and "lower grid.dt" in err
        assert "oracle.dimension" not in err
    else:
        assert "leakage 1.09e-05" in err and err.endswith("increase oracle.dimension beyond 30\n")


# the norenorm equation at T = 0 loses positivity: at alpha = 0.3 and d = 10 the
# oracle's |rho_mn| reaches 1.002 by t = 20, at dt = 0.01 and at dt = 0.002 alike
NORENORM_NOT_POSITIVE = (
    MINIMAL.replace("run.modes = full", "run.modes = norenorm,oracle")
    .replace("reservoir.alpha = 0.0", "reservoir.alpha = 0.3")
    .replace("grid.t_max = 1.0", "grid.t_max = 20.0")
    + "oracle.dimension = 10\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            MINIMAL.replace("run.modes = full", "run.modes = full,oracle").replace(
                "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
            ) + "reservoir.temperature = 1e4\nstate.x0 = 1.0\n",
            "truncation leakage",
        ),
        (NORENORM_NOT_POSITIVE, "no longer a density matrix"),
        (MOMENT_OVERFLOW, "moment column energy is not finite"),
    ],
    ids=["oracle_leakage", "oracle_stability", "non_finite_moment"],
)
def test_a_failed_run_leaves_no_directory(tmp_path, capsys, text, message):
    # every table is built before the output directory is made, so a guard
    # that ends the run, in the oracle or in the analytic modes, leaves none
    out = tmp_path / "o"
    assert main(["run", str(write_conf(tmp_path, text + f"run.output_dir = {out}\n"))]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_stability_abort_shows_its_excess_and_blames_the_equation(tmp_path, capsys):
    # the step is far inside RK4's limits, so the message names the keys
    # that move the equation, not grid.dt, and prints |rho_mn| in full
    conf = write_conf(tmp_path, NORENORM_NOT_POSITIVE + f"run.output_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(conf)]) == 2
    err = capsys.readouterr().err
    assert float(re.search(r"\|rho_mn\| reached (\S+) > 1", err).group(1)) > 1
    assert "the norenorm equation itself lost positivity" in err
    assert "reservoir.alpha, reservoir.wc, reservoir.temperature and grid.t_max" in err
    assert "leave norenorm out of run.modes" in err and "grid.dt" not in err


def test_variance_floor_abort_names_the_observable_its_time_and_the_keys(tmp_path, capsys):
    # the analytic norenorm moments of a squeezed vacuum at alpha = 1 fall
    # below the variance floor: the norenorm equation lost positivity
    text = (
        MINIMAL.replace("run.modes = full", "run.modes = norenorm")
        .replace("reservoir.alpha = 0.0", "reservoir.alpha = 1.0")
        .replace("grid.dt = 0.01\ngrid.t_max = 1.0", "grid.dt = 0.05\ngrid.t_max = 3")
        + "state.kind = squeezed\nstate.r = 5e-324\n"
    )
    out = tmp_path / "o"
    assert main(["run", str(write_conf(tmp_path, text + f"run.output_dir = {out}\n"))]) == 2
    err = capsys.readouterr().err
    found = re.search(
        r"analytic mode 'norenorm': variance floor violated: "
        r"<X\^2> = (\S+) < <X>\^2 = (\S+) at t=2\.35,",
        err,
    )
    assert found, err
    second, squared_mean = (float(value) for value in found.groups())
    assert second < squared_mean - 1e-10
    assert "reservoir.alpha, reservoir.wc, reservoir.temperature and grid.t_max move that" in err
    assert not out.exists()


@pytest.mark.parametrize("modes, imported", [("rwa", False), ("rwa,oracle", True)])
def test_a_run_without_the_oracle_never_imports_it(tmp_path, modes, imported):
    text = MINIMAL.replace("run.modes = full", f"run.modes = {modes}")
    conf = write_conf(tmp_path, text + f"run.output_dir = {tmp_path / 'o'}\n")
    code = (
        "import sys\n"
        "from qbm.cli import main\n"
        "assert main(['run', sys.argv[1]]) == 0\n"
        "print('qbm.oracle' in sys.modules)\n"
    )
    src = str(pathlib.Path(runner.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(conf)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == str(imported)


FOCK_WIGNER = (
    MINIMAL.replace("run.modes = full", "run.modes = full,rwa").replace("alpha = 0.0", "alpha = 0.1")
    + "state.kind = fock\nstate.n = 2\nwigner.enabled = true\nwigner.points = 16\n"
    + "wigner.times = 0,0.5,1\n"
)


def test_one_and_two_cpu_writers_write_the_same_bytes(tmp_path, capsys, monkeypatch):
    # on two CPUs a forked child writes the leading tables; the files, and
    # the order in which they are printed, are those of one CPU
    written, printed = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        conf = write_conf(tmp_path, FOCK_WIGNER + f"run.output_dir = {out}\n")
        assert main(["run", str(conf)]) == 0
        printed[cpus] = [os.path.basename(line) for line in capsys.readouterr().out.split()]
        written[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
        with pytest.raises(ChildProcessError):  # the writer has been reaped
            os.waitpid(-1, os.WNOHANG)
    assert printed[1] == printed[2] and sorted(printed[1]) == sorted(written[1])
    assert written[1] == written[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_table_write_exits_3_and_names_the_file(tmp_path, capsys, monkeypatch, cpus):
    # a directory stands where coefficients.csv, the first table, goes: on two
    # CPUs the forked writer fails on it and this process still writes its share
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    out = tmp_path / "o"
    (out / "coefficients.csv").mkdir(parents=True)
    text = MINIMAL.replace("run.modes = full", "run.modes = full,rwa") + f"run.output_dir = {out}\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 3
    assert f"cannot write {out / 'coefficients.csv'}" in capsys.readouterr().err
    assert (out / "propagator_rwa.csv").exists() == (cpus == 2)
    assert not (out / "observables.csv").exists() and not (out / "run_report.txt").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_report_records_monitored_properties(free_run_config, tmp_path):
    run(parse_config(free_run_config))
    report = (tmp_path / "out" / "run_report.txt").read_text()
    assert "gamma_nonnegative True" in report
    assert "w_bar_min_eigenvalue[full]" in report
    assert "oracle[full] trace_error" in report


def test_cli_ellipse(tmp_path):
    out = tmp_path / "ellipse.csv"
    assert main(["ellipse", "--r", "0.1", "--gamma", "0.1", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["theta_deg", "x", "p", "x_circle", "p_circle"]
    assert len(data) == 360


@pytest.mark.parametrize("inputs", [["--r", "nan", "--gamma", "0"], ["--r", "0", "--gamma", "nan"]])
def test_cli_ellipse_rejects_nan(tmp_path, capsys, inputs):
    out = tmp_path / "ellipse.csv"
    assert main(["ellipse", *inputs, "--out", str(out)]) == 1
    assert "|r/w0| < 1 and |gamma/w0| < 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_algebra(tmp_path):
    out = tmp_path / "algebra_report.txt"
    assert main(["algebra", "--d", "20", "--out", str(out)]) == 0
    assert "weyl_eigen" in out.read_text()


def test_cli_algebra_unwritable_report_exits_with_io_code(tmp_path):
    assert main(["algebra", "--d", "20", "--out", str(tmp_path)]) == 3


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qbm" in capsys.readouterr().out
