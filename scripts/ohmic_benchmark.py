#!/usr/bin/env python3
"""Benchmark run: analytic pipeline against the Fock-space oracle.

Evolves a coherent and a thermal state in the ohmic exponential-cutoff
reservoir (alpha = 0.1, wc = 5) at T = 0 and T = 2, in all three analytic
modes, and prints the worst moment deviation from the brute-force
integration.  Writes per-mode observable CSVs under --outdir.
"""

import argparse
import os
import time

import numpy as np

from qbm import oracle, qcf
from qbm.coefficients import compute_coefficients
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import build_propagator
from qbm.runio import write_csv
from qbm.runner import OBSERVABLES_CSV_COLUMNS


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--wc", type=float, default=5.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--t-max", type=float, default=30.0)
    ap.add_argument("--dim", type=int, default=30)
    ap.add_argument("--outdir", default="out_benchmark")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    grid = args.dt * np.arange(int(round(args.t_max / args.dt)) + 1)
    ops = oracle.fock_operators(args.dim)
    modes = ("full", "norenorm", "rwa")
    states = {
        "coherent2": qcf.CoherentState(x0=2.0),
        "thermal1": qcf.ThermalState(nbar=1.0),
    }

    for temperature in (0.0, 2.0):
        spec = ReservoirSpec("ohmic_exp_cutoff", alpha=args.alpha, wc=args.wc,
                             temperature=temperature)
        t0 = time.monotonic()
        coeffs = compute_coefficients(tabulate_kernels(spec, grid))
        print(f"T={temperature}: coefficients in {time.monotonic() - t0:.1f}s, "
              f"gamma(t_max)={coeffs.gamma[-1]:.6f}")
        for name, state in states.items():
            rho0 = oracle.to_density_matrix(state, args.dim)
            trajs = oracle.integrate_modes(rho0, coeffs, modes, ops=ops,
                                           leakage_threshold=3e-6)
            for mode in modes:
                bundle = build_propagator(spec, grid, mode, coeffs=coeffs)
                series = qcf.observable_series(bundle, state)
                traj = trajs[mode]
                first = max(np.max(np.abs(series.mean_x - traj.mean_x)),
                            np.max(np.abs(series.mean_p - traj.mean_p)))
                second = max(np.max(np.abs(series.xx - traj.xx)),
                             np.max(np.abs(series.pp - traj.pp)),
                             np.max(np.abs(series.xp_sym - traj.xp_sym)))
                print(f"  {name:10s} {mode:9s} |d first|={first:.2e} "
                      f"|d second|={second:.2e} leak={traj.max_leakage:.1e}")
                rows = np.column_stack([
                    grid, series.mean_x, series.mean_p, series.xx, series.pp,
                    series.xp_sym, series.energy, series.energy,
                    bundle.lam, bundle.theta,
                ])
                path = os.path.join(args.outdir, f"T{temperature:g}_{name}_{mode}.csv")
                write_csv(path, OBSERVABLES_CSV_COLUMNS, rows)
    print(f"CSV artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
