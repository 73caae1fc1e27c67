#!/usr/bin/env python3
"""Mode-count convergence: tail bounds and solution drift as N doubles.

Builds the series solution at doubling mode caps on a loaded test problem
(initial pulse, smooth inlet pulse, decay and production all active) and
reports the a-priori tail bound next to the observed change between
consecutive builds on a probe grid.
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
    tail_bound,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-end", type=float, default=2.5)
    ap.add_argument("--start", type=int, default=10, help="smallest mode cap")
    ap.add_argument("--doublings", type=int, default=4)
    ap.add_argument("--out", default="mode_convergence.csv")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    params = TransportParams(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4)
    # 1.04 x^2 (ell - x)^2: flat at both faces, unit peak at midcolumn
    phi = SmoothFn.polynomial([0.0, 0.0, 2.0384, -2.912, 1.04])
    g = SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15)
    data = ProblemData(params=params, phi=phi, g=g)
    data = resolve_exit(data, args.t_end, n_grid=256)

    xs = np.linspace(0.0, params.ell, 41)
    ts = np.linspace(0.1, args.t_end, 9)
    caps = [args.start * 2**k for k in range(args.doublings + 1)]

    prev = None
    rows = []
    print(f"{'N':>6} {'kept':>6} {'tail bound':>14} {'drift from prev':>16}")
    for cap in caps:
        sol = build_solution(data, TruncationPolicy(n_max=cap), args.t_end)
        tb = tail_bound(sol, sol.n_used, args.t_end)
        grid = eval_C(sol, xs, ts)
        drift = np.nan if prev is None else float(np.max(np.abs(grid - prev)))
        prev = grid
        rows.append((cap, sol.n_used, tb, drift))
        dtxt = "" if np.isnan(drift) else f"{drift:16.6g}"
        print(f"{cap:6d} {sol.n_used:6d} {tb:14.6g} {dtxt}")

    with open(args.out, "w", newline="\n") as fh:
        fh.write("n_max,n_used,tail_bound,drift\n")
        for cap, used, tb, drift in rows:
            fh.write(f"{cap},{used},{tb:.17g},{drift:.17g}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
