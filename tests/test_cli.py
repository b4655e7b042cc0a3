import os
import re

import numpy as np
import pytest

from qbm import kernels, qcf
from qbm.cli import main
from qbm.config import _KEY_TYPES, _STATE_PARAM_KEYS, RUN_MODES, load_chi_csv, parse_config
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
    assert isinstance(cfg.state, qcf.CoherentState)
    assert cfg.oracle_dim == 30
    assert cfg.modes == ("full",)
    assert cfg.output_dir == "out"


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
    with pytest.raises(ValidationError, match="line 7: reservoir.kernel_csv applies only"):
        parse_config(write_conf(tmp_path, MINIMAL + "reservoir.kernel_csv = kernel.csv\n"))
    with pytest.raises(ValidationError, match="missing required key 'reservoir.alpha'"):
        parse_config(write_conf(tmp_path, MINIMAL.replace("reservoir.alpha = 0.0\n", "")))


def test_tabulated_family_without_alpha_runs(tmp_path):
    # a table sampled from the thermal closed form reproduces that run's
    # coefficients byte for byte: the table is read as it stands
    hot = kernels.ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0, temperature=2.0)
    write_kernel_csv(tmp_path, hot, build_grid(0.01, 1.0))
    tab_conf = write_conf(tmp_path, TABULATED + f"run.output_dir = {tmp_path / 'tab'}\n")
    assert parse_config(tab_conf).reservoir.family == "tabulated"
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
    message = r"line 3: the reservoir\.kernel_csv table ends at tau = 1, .* \(line 5\)"
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "grid.t_max" in capsys.readouterr().err
    assert not out.exists()
    # a table that reaches the last node runs
    assert parse_config(write_conf(tmp_path, TABULATED, "ok.conf")).t_max == 1.0


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
    message = r"line 8: state\.n = 26 .* oracle\.dimension = 30 \(line 9\)"
    with pytest.raises(ValidationError, match=message):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "state.n" in capsys.readouterr().err
    assert not out.exists()
    # the same level runs once the basis leaves the interior margin free
    cfg = parse_config(write_conf(tmp_path, text.replace("= 30", "= 32"), "ok.conf"))
    assert cfg.state.n == 26 and cfg.oracle_dim == 32


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
    with pytest.raises(ValidationError, match=r"line 7: state\.kind = tabulated_chi .* \(line 6\)"):
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


def test_tabulated_chi_narrower_than_wigner_grid_rejected_before_any_file(tmp_path, capsys):
    write_chi_csv(tmp_path)
    out = tmp_path / "o"
    text = MINIMAL.replace("grid.t_max = 1.0", "grid.t_max = 0.05")
    text += f"state.kind = tabulated_chi\nstate.chi_csv = chi.csv\nrun.output_dir = {out}\n"
    text += "wigner.enabled = true\n"
    path = write_conf(tmp_path, text)
    with pytest.raises(ValidationError, match=r"line 8: the state\.chi_csv table .* \(line 10\)"):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "state.chi_csv" in err and "wigner.enabled" in err
    assert not out.exists()
    # the same table runs without the Wigner maps
    cfg = parse_config(write_conf(tmp_path, text.replace("= true", "= false"), "ok.conf"))
    assert not cfg.wigner_enabled


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
        kernels.load_kernel_csv(path)
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
@pytest.mark.parametrize("kind", list(_STATE_PARAM_KEYS))
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


def test_multi_mode_run_files_and_mirrors(tmp_path, capsys):
    out = tmp_path / "out"
    text = MINIMAL.replace("run.modes = full", "run.modes = norenorm,rwa,oracle").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"state.x0 = 2.0\nrun.output_dir = {out}\n"
    assert main(["run", str(write_conf(tmp_path, text))]) == 0
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
    header, prop = read_csv(out / "propagator_rwa.csv")
    big_gamma = prop[:, header.index("big_gamma")]
    delta_gamma = prop[:, header.index("delta_gamma")]
    for name in ("observables_rwa.csv", "oracle_observables_rwa.csv"):
        header, data = read_csv(out / name)
        energy_rwa = data[:, header.index("energy_rwa")]
        e0 = data[0, header.index("energy")] if name.startswith("oracle") else 2.5
        assert energy_rwa[0] == e0
        np.testing.assert_allclose(energy_rwa, np.exp(-big_gamma) * e0 + delta_gamma, rtol=1e-14)


def test_full_mode_energy_column_is_moment_based(tmp_path):
    # full has no closed-form energy law; rwa and norenorm write the closed form
    text = MINIMAL.replace("run.modes = full", "run.modes = full,rwa").replace(
        "reservoir.alpha = 0.0", "reservoir.alpha = 0.1"
    ) + f"run.output_dir = {tmp_path / 'out'}\n"
    run(parse_config(write_conf(tmp_path, text)))
    header, full = read_csv(tmp_path / "out" / "observables_full.csv")
    col = {name: full[:, i] for i, name in enumerate(header)}
    assert np.array_equal(col["energy"], 0.5 * (col["xx"] + col["pp"]))
    _, rwa = read_csv(tmp_path / "out" / "observables_rwa.csv")
    assert np.array_equal(rwa[:, header.index("energy")], rwa[:, header.index("energy_rwa")])


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
    "modes, report", [("full", "run_report.txt"), ("full,oracle", "diff_report.txt")]
)
def test_unwritable_text_report_exits_with_io_code(tmp_path, capsys, modes, report):
    out = tmp_path / "o"
    (out / report).mkdir(parents=True)
    text = MINIMAL.replace("run.modes = full", f"run.modes = {modes}")
    conf = write_conf(tmp_path, text + f"run.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 3
    assert report in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a coherent state far beyond the tiny truncated basis trips the
    # leakage guard, which is a numerical failure (exit 2); at x0 = 60 every
    # Fock amplitude underflows, and the 0/0 of its normalization must not
    # reach the guards as NaN
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
        assert main(["run", str(conf)]) == 2, x0
        err = capsys.readouterr().err
        assert "leak" in err, x0
    assert "CoherentState(x0=60.0, p0=0.0) leaks" in err and "d=10" in err
    assert not (tmp_path / "o2" / "oracle_observables.csv").exists()


@pytest.mark.filterwarnings("error")
def test_non_finite_analytic_moments_exit_with_numerical_code(tmp_path, capsys):
    # <X^2> = x0^2 + 1/2 overflows to inf, which the variance floor's
    # comparisons never flag; the overflow itself must warn nothing
    out = tmp_path / "o"
    conf = write_conf(tmp_path, MINIMAL + f"state.x0 = 1e200\nrun.output_dir = {out}\n")
    assert main(["run", str(conf)]) == 2
    assert "moment column xx is not finite" in capsys.readouterr().err
    assert not (out / "observables_full.csv").exists()


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


def test_cli_algebra_unwritable_report_exits_with_io_code(tmp_path):
    assert main(["algebra", "--d", "20", "--out", str(tmp_path)]) == 3


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qbm" in capsys.readouterr().out
