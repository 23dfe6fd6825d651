"""Command line entry point: refinement/iteration studies and matrix export.

    multifem run --case babuska --n 8 --levels 3 --tol 1e-10 --out results/
    multifem export --case ds-mixed --n 4 --out matrices/
"""
from __future__ import annotations

import argparse
import os
import sys

from .bench import CASES, CaseConfig, ConfigError, export_case, run_case


def _build_parser():
    defaults = CaseConfig()
    parser = argparse.ArgumentParser(prog="multifem")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a refinement study")
    run.add_argument("--case", choices=list(CASES), required=True)
    run.add_argument("--n", type=int, default=defaults.n, help="coarsest resolution")
    run.add_argument("--levels", type=int, default=defaults.levels)
    run.add_argument("--tol", type=float, default=defaults.tol)
    run.add_argument("--seed", type=int, default=defaults.seed,
                     help="seed of a uniform random Krylov start (default: zero start)")
    run.add_argument("--radius", type=float, default=defaults.radius)
    run.add_argument("--nquad", type=int, default=defaults.n_quad)
    run.add_argument("--out", default=".")

    exp = sub.add_parser("export", help="export system and reduction matrices")
    exp.add_argument("--case", choices=list(CASES), required=True)
    exp.add_argument("--n", type=int, default=4)
    exp.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export":
            print(f"wrote matrices to {export_case(args.case, args.n, args.out)}")
            return 0
        record = run_case(CaseConfig(
            case=args.case, n=args.n, levels=args.levels, tol=args.tol,
            seed=args.seed, radius=args.radius, n_quad=args.nquad,
        ))
    except ConfigError as exc:
        parser.error(str(exc))          # exits with code 2
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.case}.csv")
    record.write_csv(path)
    rates = record.rates()
    for row, rate in zip(record.rows, rates):
        rate_str = " ".join(f"{c}={rate[c]:.2f}" for c in record.err_columns)
        print(f"level {row['level']}: h={row['h']:.4g} dofs={row['dofs_total']} "
              f"iters={row['iters']} {rate_str} ({row['seconds']:.2f}s)")
    print(f"wrote {path}")
    if not record.ok:
        print("study failed internal assertions", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
