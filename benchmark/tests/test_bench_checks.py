"""The output check accepts real artifacts and rejects corrupted ones."""

import os
import shutil

import pytest

from workloads import WORKLOADS, check_outputs, expected_files


def edit_csv(path, column, row, delta):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    col = lines[body[0]].strip().split(",").index(column)
    i = body[1 + row]
    fields = lines[i].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[i] = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def replace_text(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def set_field(path, line_prefix, key, value):
    """Set ``key value`` on the line of a report that starts with ``line_prefix``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for n, ln in enumerate(lines):
        if ln.startswith(line_prefix):
            words = ln.split()
            words[words.index(key) + 1] = value
            lines[n] = " ".join(words)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def set_diff(path, mode, key, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index(f"mode={mode}")
    n = next(i for i in range(start, len(lines)) if lines[i].startswith(key + " "))
    lines[n] = f"{key} {value}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def both(edit, *files):
    """Apply one edit to a suffixed file and to its unsuffixed mirror."""
    return lambda d: [edit(d / f) for f in files]


# case: (workload, corruption of its output directory, expected words in the problem)
CORRUPTIONS = {
    "missing file": (
        "coherent_T2_all", lambda d: os.remove(d / "observables_rwa.csv"), "missing"),
    "stray file": (
        "squeezed_T05_quad", lambda d: (d / "extra.csv").write_text("x\n"), "unexpected"),
    "closed-form energy": (
        "coherent_T2_all", lambda d: edit_csv(d / "observables_rwa.csv", "energy", 50, 1e-6),
        "closed-form energy"),
    "criterion-1 diff": (
        "coherent_T2_all", lambda d: set_diff(d / "diff_report.txt", "full", "mean_p", "2e-05"),
        "diff_report full mean_p"),
    "leakage guard": (
        "coherent_T2_all",
        lambda d: set_field(d / "run_report.txt", "oracle[rwa]", "max_leakage", "2e-06"),
        "oracle[rwa] max_leakage"),
    "oracle initial moment": (
        "squeezed_d40_oracle",
        both(lambda f: edit_csv(f, "xx", 0, 1e-8), "oracle_observables_full.csv",
             "oracle_observables.csv"),
        "xx at t=0"),
    "oracle centred state": (
        "squeezed_d40_oracle",
        both(lambda f: edit_csv(f, "mean_p", 10, 1e-9), "oracle_observables_full.csv",
             "oracle_observables.csv"),
        "mean_p of a centred state"),
    "fock moments": (
        "fock2_T0_wigner", lambda d: edit_csv(d / "observables_norenorm.csv", "mean_x", 40, 1e-5),
        "mean_x of a centred state"),
    "wigner closed form": (
        "fock2_T0_wigner", lambda d: edit_csv(d / "wigner_t0.csv", "w", 2000, 1e-7),
        "Fock Wigner function"),
    "squeezed initial covariance": (
        "squeezed_T05_quad",
        both(lambda f: edit_csv(f, "xp_sym", 0, 1e-9), "observables_rwa.csv", "observables.csv"),
        "xp_sym at t=0"),
    "unparsable number": (
        "squeezed_T05_quad",
        lambda d: replace_text(d / "observables_rwa.csv", "\n0,", "\nzero,"),
        "unreadable artifacts"),
    "mirror copy": (
        "squeezed_T05_quad",
        lambda d: replace_text(d / "propagator.csv", "t,big_gamma", "t,big_gamma "),
        "propagator.csv differs"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_artifacts_pass(short_outputs, name):
    config, outdir = short_outputs[name]
    assert check_outputs(str(outdir), config) == []


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupted_artifact_is_rejected(short_outputs, tmp_path, case):
    name, corrupt, expected = CORRUPTIONS[case]
    config, outdir = short_outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    corrupt(copy)
    problems = check_outputs(str(copy), config)
    assert any(expected in p for p in problems), problems


def test_coherent_run_writes_fourteen_csvs():
    config = WORKLOADS["coherent_T2_all"].config(1)
    csvs = [f for f in expected_files(config) if f.endswith(".csv")]
    assert len(csvs) == 14


def test_seed_fixes_the_config():
    for workload in WORKLOADS.values():
        assert workload.config(5) == workload.config(5)
        assert workload.config(5) != workload.config(6)
