"""A derandomized fuzz of the config space.

Every config either runs and writes the README's file set for its modes, or
exits with one ``qbm: error:`` line that names a config key or its line, and
leaves no output directory.  No exception escapes ``main`` and no warning is
raised on the way.
"""

import contextlib
import io
import os
import random
import re
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbm import config
from qbm.cli import main
from qbm.config import RUN_MODES, parse_config
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.runio import write_csv

# values that every key is also tried with
SPECIAL = ("0", "-0", "inf", "-inf", "nan", "5e-324", "1e300")

MODE_SETS = [
    ",".join(modes) for k in range(1, len(RUN_MODES) + 1) for modes in combinations(RUN_MODES, k)
]
CLOSED_FORM_KINDS = ("coherent", "thermal", "squeezed", "fock")

# the ordinary values of each key; the files are those ``write_inputs`` makes,
# and a kernel table that ends at tau = 2 runs only the shorter grids
POOLS = {
    "reservoir.family": ("ohmic_exp_cutoff", "ohmic_exp_cutoff", "tabulated"),
    "reservoir.alpha": ("0.0", "0.1", "0.3", "1.0"),
    "reservoir.wc": ("1.0", "5.0", "20"),
    "reservoir.temperature": ("0.0", "0.5", "2.0"),
    "reservoir.kernel_csv": ("kernel.csv",),
    "oscillator.omega0": ("1.0", "1"),
    "state.kind": (*CLOSED_FORM_KINDS, "tabulated_chi"),
    "state.x0": ("0.0", "0.5", "1.5", "-2.0", "8.0", "1e200"),
    "state.p0": ("0.0", "1.0", "-0.5", "3.0", "1e200"),
    "state.nbar": ("0.0", "0.5", "2.0", "-0.5"),
    "state.r": ("0.3", "1.0", "2.0"),
    "state.phi": ("0.0", "0.7", "3.14"),
    "state.n": ("0", "1", "2", "30", "1.5"),
    "state.chi_csv": ("chi.csv", "narrow.csv"),
    "grid.dt": ("0.01", "0.05", "0.5"),
    "grid.t_max": ("0.5", "1.0", "3.0"),
    "run.modes": (*MODE_SETS, "full,full", "exact"),
    "run.output_dir": ("out", "deep/out"),
    "oracle.dimension": ("8", "16", "30", "48"),
    "oracle.leakage_threshold": ("1e-6", "1e-3"),
    "wigner.enabled": ("true", "false"),
    "wigner.times": ("0", "0.5,0.5,0.2", "1,0,0.996", "3.5"),
    "wigner.extent": ("2.0", "6.0"),
    "wigner.points": ("8", "16"),
}
# the keys a config almost always has, and those that select which others apply
REQUIRED = ("reservoir.family", "grid.dt", "grid.t_max", "run.modes")
SELECTORS = {"reservoir.family": config._RESERVOIRS, "state.kind": config._STATE_KINDS}


def test_every_key_has_a_pool():
    assert set(POOLS) == set(config._KEY_TYPES)


def draw_config(seed: int) -> dict:
    """The config of ``seed`` as ``{key: value}``: mostly ordinary values, some
    special, and now and then a required key left out or a key that does not apply.

    The values come from a ``random.Random`` seeded by hypothesis, which draws
    each pool's values about equally often, as hypothesis's own draws of a
    config this large did not.
    """
    rng = random.Random(seed)

    def value(key):
        return rng.choice(SPECIAL if rng.random() < 0.03 else POOLS[key])

    assignments = {}
    for key in POOLS:
        if key.startswith(("reservoir.", "state.")) and key not in SELECTORS:
            continue  # drawn below, with the selector that takes it
        if rng.random() < (0.99 if key in REQUIRED else 0.5):
            assignments[key] = value(key)
    for selector, builders in SELECTORS.items():
        builder = builders.get(assignments.get(selector, "coherent" if selector == "state.kind" else ""))
        takes = builder[1] if builder else {}
        section = selector.split(".")[0] + "."
        for key in POOLS:
            if key.startswith(section) and key != selector and rng.random() < (0.95 if key in takes else 0.02):
                assignments[key] = value(key)
    return assignments


def write_inputs(directory):
    """The tables that the pools name: a kernel table to tau = 2, a chi table
    that has decayed at its edge and one too narrow for the Wigner maps."""
    tau = np.linspace(0.0, 2.0, 201)
    table = tabulate_kernels(ReservoirSpec("ohmic_exp_cutoff", alpha=0.1, wc=5.0), tau)
    write_csv(os.path.join(directory, "kernel.csv"), {"tau": tau, "kappa": table.kappa, "mu": table.mu})
    for name, half_width in (("chi.csv", 12.0), ("narrow.csv", 3.0)):
        nodes = np.linspace(-half_width, half_width, 25)
        x, p = np.repeat(nodes, len(nodes)), np.tile(nodes, len(nodes))
        chi = np.exp(-(x**2 + p**2) / 4.0)
        write_csv(os.path.join(directory, name), {"x": x, "p": p, "re_chi": chi, "im_chi": 0.0 * chi})


def readme_files(modes, wigner_nodes) -> set:
    """The files README's "Output files" lists for a run of ``modes``."""
    analytic = [m for m in modes if m != "oracle"]
    files = {"coefficients.csv", "run_report.txt"}
    for stem in ("observables", "propagator"):
        files |= {f"{stem}_{m}.csv" for m in analytic} | ({f"{stem}.csv"} if analytic else set())
    if "full" in analytic:
        files.add("rotation.csv")
    if "oracle" in modes:
        files |= {f"oracle_observables_{m}.csv" for m in analytic or ["full"]}
        files |= {"oracle_observables.csv"} | ({"diff_report.txt"} if analytic else set())
    return files | {f"wigner_t{i}.csv" for i in wigner_nodes}


KEY_OR_LINE = re.compile(
    r"^qbm: error: (line \d+: |.*\b(" + "|".join(map(re.escape, config._KEY_TYPES)) + r")\b)"
)


@pytest.mark.filterwarnings("error")
def test_every_config_runs_or_names_its_key(tmp_path):
    drawn, exits = set(), set()
    write_inputs(tmp_path)
    path = os.path.join(tmp_path, "run.conf")

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1).map(draw_config))
    # a coherent state whose <X^2> overflows, without the oracle
    @example({"reservoir.family": "ohmic_exp_cutoff", "grid.dt": "0.05", "grid.t_max": "1.0",
              "run.modes": "rwa", "state.x0": "1e200"})
    def check(assignments):
        drawn.add(("run.modes", assignments.get("run.modes")))
        drawn.add(("state.kind", assignments.get("state.kind", "coherent")))
        drawn.add(("wigner.enabled", assignments.get("wigner.enabled", "false")))
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in assignments.items())
        # run.output_dir is relative to the working directory, one for each config
        with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
            out = os.path.join(directory, assignments.get("run.output_dir", "out"))
            stdout, stderr = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(directory)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(["run", path])
            finally:
                os.chdir(cwd)
            exits.add(code)
            assert code in (0, 1, 2, 3)
            if code:
                assert KEY_OR_LINE.match(stderr.getvalue()), stderr.getvalue()
                assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
                assert not os.path.exists(out)
            else:
                cfg = parse_config(path)
                expected = readme_files(cfg.modes, cfg.wigner_nodes)
                assert set(os.listdir(out)) == expected
                printed = stdout.getvalue().split()
                assert sorted(os.path.basename(line) for line in printed) == sorted(expected)

    check()
    # the draws reach every mode subset, every closed-form state and both
    # settings of the maps, and runs that succeed and fail at either stage
    for key, values in (("run.modes", MODE_SETS), ("state.kind", CLOSED_FORM_KINDS),
                        ("wigner.enabled", ("true", "false"))):
        assert {(key, v) for v in values} <= drawn, key
    assert {0, 1, 2} <= exits
