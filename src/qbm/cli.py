"""Command-line interface.

    qbm run <config>                     execute a configured pipeline
    qbm ellipse --r R --gamma G --out F  constant-energy contour data
    qbm algebra --d D [--out F]          superoperator algebra report
    qbm --version

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import sys

from qbm import __version__
from qbm.errors import QbmError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline from a config file")
    p_run.add_argument("config", help="path to a section.key = value config file")

    p_ell = sub.add_parser("ellipse", help="emit the renormalized constant-energy contour")
    p_ell.add_argument("--r", type=float, required=True, dest="r_over_w0")
    p_ell.add_argument("--gamma", type=float, required=True, dest="gamma_over_w0")
    p_ell.add_argument("--out", default="ellipse.csv")

    p_alg = sub.add_parser("algebra", help="run the superoperator algebra suite")
    p_alg.add_argument("--d", type=int, default=30, help="Fock truncation dimension")
    p_alg.add_argument("--out", default="algebra_report.txt")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            from qbm.config import parse_config
            from qbm.runner import run

            result = run(parse_config(args.config))
            for path in result.files:
                print(path)
        elif args.command == "ellipse":
            from qbm.runner import emit_ellipse

            emit_ellipse(args.r_over_w0, args.gamma_over_w0, args.out)
            print(args.out)
        elif args.command == "algebra":
            from qbm.oracle import algebra_suite
            from qbm.runner import write_algebra_report

            report = algebra_suite(args.d)
            write_algebra_report(report, args.out)
            for line in report.lines():
                print(line)
            print(args.out)
            if not report.all_pass:
                return 2
    except QbmError as exc:
        print(f"qbm: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
