"""Seeded `qbm run` configs for each benchmark workload, and their output checks.

A seed perturbs only parameters that leave the cost of a run unchanged (state
parameters, or the coupling where the state has none); the grid, the modes and
the oracle dimension are fixed per workload.  The checks read the artifacts
with the standard library only and return a list of problems, empty when the
run is correct.  Every tolerance is an identity or guard that holds for any
seed, and leaves room for the changes the ROADMAP allows: <= 9e-8 on Fock
moments, <= 1e-12 on oracle trajectories, <= 5e-15 relative on kernels.
"""

from __future__ import annotations

import filecmp
import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# criterion-1 tolerances of the acceptance suite, analytic vs oracle
FIRST_MOMENT_TOL = 1e-5
SECOND_MOMENT_TOL = 1e-4
# oracle guards: hermiticity as in the acceptance suite; trace loss through
# truncation is bounded by the leakage threshold the run already enforces
HERM_DRIFT_TOL = 1e-10
# closed-form energy against the moment energy (criterion 2), Gaussian states
ENERGY_TOL = 1e-8
# Fock moments come from 4th-order finite differences of chi (error ~6e-8)
FD_TOL = 1e-6
# values that are exact algebra at t = 0, or structural copies of a column
EXACT_TOL = 1e-12
# t = 0 oracle moments carry the Fock truncation of the initial state
ORACLE_T0_TOL = 1e-9
# Robertson-Schroedinger bound det(cov) >= 1/4, rounding allowance
UNCERTAINTY_TOL = 1e-9
# Wigner transform against the closed form, and its normalisation
WIGNER_TOL = 1e-9
WIGNER_NORM_TOL = 1e-6

DIFF_FIRST = ("mean_x", "mean_p")
DIFF_SECOND = ("xx", "pp", "xp_sym", "energy")

BASE = {
    "reservoir.family": "ohmic_exp_cutoff",
    "reservoir.alpha": 0.1,
    "reservoir.wc": 5.0,
    "grid.dt": 0.01,
    "grid.t_max": 30.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: dict
    draw: Callable[[random.Random], dict]

    def config(self, seed: int) -> dict:
        """The config keys for one seed (``run.output_dir`` is added by the caller)."""
        return {**BASE, **self.fixed, **self.draw(random.Random(seed))}


def _squeezed(rng: random.Random) -> dict:
    return {"state.r": rng.uniform(0.45, 0.55), "state.phi": rng.uniform(0.0, math.pi)}


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP baseline: the oracle (3 trajectories) and thermal quadrature
        Workload(
            "coherent_T2_all",
            {
                "reservoir.temperature": 2.0,
                "run.modes": "full,norenorm,rwa,oracle",
                "state.kind": "coherent",
            },
            # x0 stays narrow: mean_p[full] already sits at 8.3e-6 of the 1e-5 bound at x0 = 2
            lambda rng: {"state.x0": rng.uniform(1.95, 2.05)},
        ),
        # non-Gaussian: per-node finite-difference moments and Wigner maps
        Workload(
            "fock2_T0_wigner",
            {
                "reservoir.temperature": 0.0,
                "run.modes": "full,norenorm,rwa",
                "state.kind": "fock",
                "state.n": 2,
                "wigner.enabled": "true",
                "wigner.times": "0,10,20,30",
            },
            # a Fock state has no continuous parameter; the coupling moves every number
            lambda rng: {"reservoir.alpha": rng.uniform(0.095, 0.105)},
        ),
        # thermal kernel quadrature alone (6001 QUADPACK calls)
        Workload(
            "squeezed_T05_quad",
            {
                "reservoir.temperature": 0.5,
                "grid.dt": 0.005,
                "run.modes": "rwa",
                "state.kind": "squeezed",
            },
            _squeezed,
        ),
        # one oracle trajectory at a larger d: nothing to batch across modes
        Workload(
            "squeezed_d40_oracle",
            {
                "reservoir.temperature": 0.0,
                "run.modes": "oracle",
                "state.kind": "squeezed",
                "oracle.dimension": 40,
            },
            _squeezed,
        ),
    )
}


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n")


# ---------------------------------------------------------------------------
# artifacts


def _modes(config: dict) -> tuple[list, list]:
    modes = config["run.modes"].split(",")
    analytic = [m for m in modes if m != "oracle"]
    oracle = (analytic or ["full"]) if "oracle" in modes else []
    return analytic, oracle


def _wigner_indices(config: dict) -> list:
    if config.get("wigner.enabled") != "true":
        return []
    dt = float(config["grid.dt"])
    return [round(float(t) / dt) for t in config["wigner.times"].split(",")]


def expected_files(config: dict) -> set:
    analytic, oracle = _modes(config)
    files = {"coefficients.csv", "run_report.txt"}
    for m in analytic:
        files |= {f"observables_{m}.csv", f"propagator_{m}.csv"}
    if analytic:
        files |= {"observables.csv", "propagator.csv"}
    if "full" in analytic:
        files.add("rotation.csv")
    for m in oracle:
        files.add(f"oracle_observables_{m}.csv")
    if oracle:
        files.add("oracle_observables.csv")
        if analytic:
            files.add("diff_report.txt")
    files |= {f"wigner_t{i}.csv" for i in _wigner_indices(config)}
    return files


def hash_artifacts(outdir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_csv(path: str) -> dict:
    """Columns of a CSV written by ``qbm.runio.write_csv``, by header name."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].strip().split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _max_abs_diff(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


# ---------------------------------------------------------------------------
# checks


def initial_moments(config: dict) -> dict:
    """Exact (mean_x, mean_p, xx, pp, xp_sym) of the configured initial state."""
    kind = config["state.kind"]
    if kind == "coherent":
        x0 = float(config.get("state.x0", 0.0))
        p0 = float(config.get("state.p0", 0.0))
        return {"mean_x": x0, "mean_p": p0, "xx": 0.5 + x0**2, "pp": 0.5 + p0**2,
                "xp_sym": 2.0 * x0 * p0}
    if kind == "squeezed":
        r, phi = float(config["state.r"]), float(config.get("state.phi", 0.0))
        c, s = math.cos(phi), math.sin(phi)
        vx, vp = 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)
        # covariance rot @ diag(vx, vp) @ rot.T with rot = [[c, s], [-s, c]]
        return {"mean_x": 0.0, "mean_p": 0.0, "xx": c * c * vx + s * s * vp,
                "pp": s * s * vx + c * c * vp, "xp_sym": 2.0 * c * s * (vp - vx)}
    if kind == "fock":
        n = int(config["state.n"])
        return {"mean_x": 0.0, "mean_p": 0.0, "xx": n + 0.5, "pp": n + 0.5, "xp_sym": 0.0}
    raise ValueError(f"no initial moments for state.kind {kind!r}")


def _check_report(outdir: str, config: dict, problems: list) -> None:
    with open(os.path.join(outdir, "run_report.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for flag in ("gamma_nonnegative True", "big_gamma_nondecreasing True"):
        if flag not in lines:
            problems.append(f"run_report.txt lacks {flag!r}")
    leak_tol = float(config.get("oracle.leakage_threshold", 1e-6))
    for mode in _modes(config)[1]:
        found = [ln for ln in lines if ln.startswith(f"oracle[{mode}] ")]
        if len(found) != 1:
            problems.append(f"run_report.txt has {len(found)} oracle[{mode}] lines")
            continue
        fields = found[0].split()[1:]
        values = dict(zip(fields[::2], map(float, fields[1::2])))
        guards = {"trace_error": leak_tol, "herm_drift": HERM_DRIFT_TOL, "max_leakage": leak_tol}
        for key, guard in guards.items():
            if not values.get(key, math.inf) <= guard:
                problems.append(f"oracle[{mode}] {key} {values.get(key)} above guard {guard:g}")


def _check_diff_report(outdir: str, config: dict, problems: list) -> None:
    with open(os.path.join(outdir, "diff_report.txt"), encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    by_mode, mode = {}, None
    for ln in lines:
        if ln.startswith("mode="):
            mode = ln[len("mode="):]
            by_mode[mode] = {}
        else:
            key, value = ln.split()
            by_mode[mode][key] = float(value)
    for mode in _modes(config)[0]:
        diffs = by_mode.get(mode, {})
        for keys, tol in ((DIFF_FIRST, FIRST_MOMENT_TOL), (DIFF_SECOND, SECOND_MOMENT_TOL)):
            for key in keys:
                if not diffs.get(key, math.inf) <= tol:
                    problems.append(f"diff_report {mode} {key} {diffs.get(key)} above {tol:g}")


def _check_observables(outdir: str, config: dict, mode: str, oracle: bool,
                       problems: list) -> None:
    """Identities of the observables CSV of one analytic or oracle mode."""
    name = f"oracle_observables_{mode}.csv" if oracle else f"observables_{mode}.csv"
    cols = read_csv(os.path.join(outdir, name))
    # moment accuracy of the source, and of its t = 0 row
    if oracle:
        tol, t0_tol = EXACT_TOL, ORACLE_T0_TOL
    elif config["state.kind"] in ("coherent", "squeezed"):
        tol = t0_tol = EXACT_TOL
    else:
        tol = t0_tol = FD_TOL

    def expect(what: str, err: float, limit: float) -> None:
        if not err <= limit:
            problems.append(f"{name}: {what} off by {err:.3g} (limit {limit:g})")

    moment_energy = [0.5 * (x + p) for x, p in zip(cols["xx"], cols["pp"])]
    closed_form = mode in ("rwa", "norenorm")
    if closed_form and not oracle:
        # closed-form energy column against the moment energy (criterion 2)
        expect("closed-form energy vs 0.5*(xx+pp)", _max_abs_diff(cols["energy"], moment_energy),
               max(tol, ENERGY_TOL))
    else:
        expect("energy vs 0.5*(xx+pp)", _max_abs_diff(cols["energy"], moment_energy), EXACT_TOL)
    if closed_form:
        limit = SECOND_MOMENT_TOL if oracle else ENERGY_TOL
        expect("energy_rwa vs energy", _max_abs_diff(cols["energy_rwa"], cols["energy"]), limit)

    reference = initial_moments(config)
    for key, value in reference.items():
        expect(f"{key} at t=0", abs(cols[key][0] - value), t0_tol)
    if reference["mean_x"] == 0.0 and reference["mean_p"] == 0.0:
        for key in ("mean_x", "mean_p"):
            expect(f"{key} of a centred state", max(map(abs, cols[key])), tol)

    det_min = min(
        (xx - mx * mx) * (pp - mp * mp) - (0.5 * xp - mx * mp) ** 2
        for mx, mp, xx, pp, xp in zip(cols["mean_x"], cols["mean_p"], cols["xx"], cols["pp"],
                                      cols["xp_sym"])
    )
    expect("uncertainty bound det(cov) >= 1/4", max(0.0, 0.25 - det_min), UNCERTAINTY_TOL)


def _check_wigner(outdir: str, config: dict, index: int, problems: list) -> None:
    name = f"wigner_t{index}.csv"
    cols = read_csv(os.path.join(outdir, name))
    q, p, w = cols["q"], cols["p"], cols["w"]
    axis = sorted(set(q))
    step = axis[1] - axis[0]
    norm = sum(w) * step * step
    if not abs(norm - 1.0) <= WIGNER_NORM_TOL:
        problems.append(f"{name}: normalisation {norm!r}")
    if not max(map(abs, w)) <= 1.0 / math.pi + WIGNER_TOL:
        problems.append(f"{name}: |W| exceeds 1/pi")
    if index == 0 and config["state.kind"] == "fock":
        # W_n(q, p) = (-1)^n / pi * exp(-r2) * L_n(2 r2), r2 = q^2 + p^2
        n = int(config["state.n"])

        def laguerre(x: float) -> float:
            prev, cur = 1.0, 1.0 - x
            if n == 0:
                return prev
            for k in range(1, n):
                prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
            return cur

        err = max(
            abs(wv - (-1) ** n / math.pi * math.exp(-(qv * qv + pv * pv))
                * laguerre(2.0 * (qv * qv + pv * pv)))
            for qv, pv, wv in zip(q, p, w)
        )
        if not err <= WIGNER_TOL:
            problems.append(f"{name}: differs from the Fock Wigner function by {err:.3g}")


def check_outputs(outdir: str, config: dict) -> list:
    """Problems found in the artifacts of one run; an empty list means correct."""
    try:
        return _check_outputs(outdir, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"]


def _check_outputs(outdir: str, config: dict) -> list:
    present = set(os.listdir(outdir))
    expected = expected_files(config)
    if present != expected:
        return [f"artifacts missing {sorted(expected - present)}, "
                f"unexpected {sorted(present - expected)}"]
    problems = []
    _check_report(outdir, config, problems)
    if "diff_report.txt" in present:
        _check_diff_report(outdir, config, problems)

    analytic, oracle = _modes(config)
    for m in analytic:
        _check_observables(outdir, config, m, False, problems)
    for m in oracle:
        _check_observables(outdir, config, m, True, problems)
    for i in _wigner_indices(config):
        _check_wigner(outdir, config, i, problems)

    # the unsuffixed files mirror the first mode of the run byte for byte
    mirrors = []
    if analytic:
        mirrors += [("observables.csv", f"observables_{analytic[0]}.csv"),
                    ("propagator.csv", f"propagator_{analytic[0]}.csv")]
    if oracle:
        mirrors.append(("oracle_observables.csv", f"oracle_observables_{oracle[0]}.csv"))
    for plain, suffixed in mirrors:
        if not filecmp.cmp(os.path.join(outdir, plain), os.path.join(outdir, suffixed),
                           shallow=False):
            problems.append(f"{plain} differs from {suffixed}")
    return problems
