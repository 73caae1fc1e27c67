#!/usr/bin/env python3
"""Breakthrough curve for a step injection into a clean column.

Computes the exit concentration two ways (series solution at x = ell and
the flux-form closure C_E) and writes them side by side as CSV.

    python3 scripts/run_breakthrough.py --t-end 2.0 --out breakthrough.csv
"""

import argparse
import sys

import numpy as np

from coltrans import (
    ProblemData,
    SmoothFn,
    TransportParams,
    TruncationPolicy,
    build_solution,
    eval_C,
    resolve_exit,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--R", type=float, default=1.0)
    ap.add_argument("--D", type=float, default=0.1)
    ap.add_argument("--v", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=0.0)
    ap.add_argument("--gamma", type=float, default=0.0)
    ap.add_argument("--ell", type=float, default=1.0)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--samples", type=int, default=81)
    ap.add_argument("--modes", type=int, default=160)
    ap.add_argument("--exit-grid", type=int, default=256)
    ap.add_argument("--out", default="breakthrough.csv")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    params = TransportParams(R=args.R, D=args.D, v=args.v, mu=args.mu,
                             gamma=args.gamma, ell=args.ell)
    data = ProblemData(params=params, phi=SmoothFn.constant(0.0),
                       g=SmoothFn.constant(1.0))
    data = resolve_exit(data, args.t_end, n_grid=args.exit_grid)
    sol = build_solution(data, TruncationPolicy(n_max=args.modes), args.t_end)

    ts = np.linspace(0.0, args.t_end, args.samples)
    cE = data.require_exit()
    with open(args.out, "w", newline="\n") as fh:
        fh.write("t,C_exit,C_flux_exit\n")
        for t, ce, cf in zip(ts, eval_C(sol, params.ell, ts), cE.eval(ts)):
            fh.write(f"{t:.17g},{ce:.17g},{cf:.17g}\n")

    print(f"kept modes through n = {sol.n_used}, "
          f"reported tail bound {sol.reported_tail:.3g}")
    probes = np.array([0.25, 0.5, 0.75, 1.0]) * args.t_end
    for t, ce, cf in zip(probes, eval_C(sol, params.ell, probes), cE.eval(probes)):
        print(f"t = {t:.4g}: C(ell) = {ce:.6g}, C_E = {cf:.6g}")
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
