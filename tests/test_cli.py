import os

import numpy as np
import pytest

from qbm import qcf
from qbm.cli import main
from qbm.config import parse_config
from qbm.errors import ValidationError
from qbm.runio import read_csv
from qbm.runner import build_grid, ellipse_points, run

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


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_conf(tmp_path, MINIMAL))
    assert cfg.reservoir.wc == 5.0
    assert cfg.reservoir.temperature == 0.0
    assert cfg.omega0 == 1.0
    assert isinstance(cfg.state, qcf.CoherentState)
    assert cfg.oracle_dim == 30
    assert cfg.modes == ("full",)
    assert cfg.output_dir == "out"


def test_negative_alpha_names_the_key(tmp_path):
    bad = MINIMAL.replace("reservoir.alpha = 0.0", "reservoir.alpha = -0.1")
    with pytest.raises(ValidationError, match="alpha"):
        parse_config(write_conf(tmp_path, bad))


def test_lorentz_drude_family_rejected_at_parse_time(tmp_path):
    bad = MINIMAL.replace("ohmic_exp_cutoff", "ohmic_lorentz_drude")
    bad += "reservoir.temperature = 1.0\n"
    with pytest.raises(ValidationError, match="line 2: reservoir.family = ohmic_lorentz_drude"):
        parse_config(write_conf(tmp_path, bad))
    assert main(["run", str(write_conf(tmp_path, bad))]) == 1


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
    assert parse_config(write_conf(tmp_path, noisy)).dt == 0.01


def test_wigner_times_outside_grid_rejected(tmp_path):
    # both ends of [0, t_max]; the endpoints themselves are valid
    for value in ("-0.5", "1.5"):
        bad = MINIMAL + f"wigner.times = 0.5, {value}\n"
        with pytest.raises(ValidationError, match=f"line 7: wigner.times {value}"):
            parse_config(write_conf(tmp_path, bad))
    cfg = parse_config(write_conf(tmp_path, MINIMAL + "wigner.times = 0, 1.0\n"))
    assert cfg.wigner_times == (0.0, 1.0)


# --- grid ------------------------------------------------------------------


def test_build_grid_covers_horizon():
    grid = build_grid(0.01, 1.0)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(1.0)
    assert len(grid) == 101


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


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a coherent state far beyond the tiny truncated basis trips the
    # leakage guard, which is a numerical failure (exit 2)
    text = (
        "reservoir.family = ohmic_exp_cutoff\n"
        "reservoir.alpha = 0.0\n"
        "grid.dt = 0.01\n"
        "grid.t_max = 0.5\n"
        "run.modes = oracle\n"
        "state.kind = coherent\n"
        "state.x0 = 4.5\n"
        "oracle.dimension = 10\n"
        f"run.output_dir = {tmp_path / 'o2'}\n"
    )
    conf = write_conf(tmp_path, text, "leaky.conf")
    assert main(["run", str(conf)]) == 2
    assert "leak" in capsys.readouterr().err


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


def test_cli_algebra(tmp_path):
    out = tmp_path / "algebra_report.txt"
    assert main(["algebra", "--d", "20", "--out", str(out)]) == 0
    assert "weyl_eigen" in out.read_text()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qbm" in capsys.readouterr().out
