#!/usr/bin/env python3
"""Outlet gap between the flux-data solution and the zero-gradient closure.

Doubles the column length and reports |C(ell, t) - C_D(ell, t)| at a fixed
late time next to the production equilibrium gamma/mu, the level a long
column settles to far from the inlet.

    python3 scripts/danckwerts_error_study.py --doublings 4 --time 60
"""

import argparse
import sys

import numpy as np

from coltrans import (
    ProblemData,
    SmoothFn,
    TransportParams,
    TruncationPolicy,
    danckwerts_error,
)
from coltrans.exitflux import N_GRID


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--R", type=float, default=1.0)
    ap.add_argument("--D", type=float, default=1.0)
    ap.add_argument("--v", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=0.1)
    ap.add_argument("--gamma", type=float, default=0.2)
    ap.add_argument("--ell", type=float, default=2.0, help="shortest length")
    ap.add_argument("--doublings", type=int, default=3)
    ap.add_argument("--time", type=float, default=60.0)
    ap.add_argument("--modes", type=int, default=TruncationPolicy.n_max)
    ap.add_argument("--exit-grid", type=int, default=N_GRID)
    ap.add_argument("--out", default="danckwerts_error.csv")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    params = TransportParams(R=args.R, D=args.D, v=args.v, mu=args.mu,
                             gamma=args.gamma, ell=args.ell)
    data = ProblemData(params=params, phi=SmoothFn.constant(0.0),
                       g=SmoothFn.constant(1.0))
    policy = TruncationPolicy(n_max=args.modes)

    lengths = [args.ell * 2.0**k for k in range(args.doublings + 1)]
    rows = []
    for L in lengths:
        gap = danckwerts_error(data, args.time, L, policy=policy,
                               n_grid=args.exit_grid)
        rows.append((L, gap.e_d, gap.lower_bound))
        ref = "n/a" if gap.lower_bound is None else f"{gap.lower_bound:.6g}"
        print(f"ell = {L:10.4g}   E_D = {gap.e_d:12.6g}   gamma/mu = {ref}")

    with open(args.out, "w", newline="\n") as fh:
        fh.write("ell,E_D,gamma_over_mu\n")
        for L, e, lb in rows:
            lbtxt = "nan" if lb is None else f"{lb:.17g}"
            fh.write(f"{L:.17g},{e:.17g},{lbtxt}\n")
    print(f"wrote {len(rows)} rows to {args.out}")

    errs = [e for _, e, _ in rows]
    trend = "nondecreasing" if all(a <= b for a, b in zip(errs, errs[1:])) \
        else "not monotone"
    print(f"trend across the sweep: {trend}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
