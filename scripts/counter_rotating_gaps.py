#!/usr/bin/env python3
"""Counter-rotating second-moment gaps against the diffusion-matrix scalars.

The energy cannot tell the rotation approximation from the rotating-wave
one, but the individual second moments can: their differences follow the
sigma_z / sigma_x components (lambda, theta) of the diffusion matrix,

    <X^2> - <X^2>_rwa = -lambda,   <P^2> - <P^2>_rwa = +lambda,
    <XP+PX> - <XP+PX>_rwa = -2 theta.

Prints the residual of these identities from the analytic series and from
two oracle integrations, and writes gaps.csv.
"""

import argparse

import numpy as np

from qbm import oracle, qcf
from qbm.coefficients import compute_coefficients
from qbm.kernels import ReservoirSpec, tabulate_kernels
from qbm.propagator import build_propagator
from qbm.runio import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--nbar", type=float, default=1.0)
    ap.add_argument("--t-max", type=float, default=30.0)
    ap.add_argument("--out", default="gaps.csv")
    args = ap.parse_args()

    spec = ReservoirSpec("ohmic_exp_cutoff", alpha=args.alpha, wc=5.0)
    grid = 0.01 * np.arange(int(round(args.t_max / 0.01)) + 1)
    coeffs = compute_coefficients(tabulate_kernels(spec, grid))
    norenorm = build_propagator(spec, grid, "norenorm", coeffs=coeffs)
    rwa = build_propagator(spec, grid, "rwa", coeffs=coeffs)

    state = qcf.ThermalState(nbar=args.nbar)
    s_nr = qcf.observable_series(norenorm, state)
    s_rwa = qcf.observable_series(rwa, state)
    print("analytic residuals of the gap identities:")
    print(f"  xx   {np.max(np.abs((s_nr.xx - s_rwa.xx) + norenorm.lam)):.2e}")
    print(f"  pp   {np.max(np.abs((s_nr.pp - s_rwa.pp) - norenorm.lam)):.2e}")
    print(f"  corr {np.max(np.abs((s_nr.xp_sym - s_rwa.xp_sym) + 2 * norenorm.theta)):.2e}")

    rho0 = oracle.to_density_matrix(state, 30)
    trajs = oracle.integrate_modes(rho0, coeffs, ("norenorm", "rwa"))
    t_nr, t_rwa = trajs["norenorm"], trajs["rwa"]
    print("oracle residuals:")
    print(f"  xx   {np.max(np.abs((t_nr.xx - t_rwa.xx) + norenorm.lam)):.2e}")
    print(f"  pp   {np.max(np.abs((t_nr.pp - t_rwa.pp) - norenorm.lam)):.2e}")
    print(f"  corr {np.max(np.abs((t_nr.xp_sym - t_rwa.xp_sym) + 2 * norenorm.theta)):.2e}")

    write_csv(args.out, {
        "t": grid,
        "lambda": norenorm.lam,
        "theta": norenorm.theta,
        "gap_xx": s_nr.xx - s_rwa.xx,
        "gap_pp": s_nr.pp - s_rwa.pp,
        "gap_corr": s_nr.xp_sym - s_rwa.xp_sym,
    })
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
