"""Command line front end.

    coltrans solve --config run.ini --out results/ --nx 101 --nt 81
    coltrans verify --config run.ini
    coltrans compare-danckwerts --config run.ini --nt 81
    coltrans chain --config chain.ini --nt 81

Exit codes: 0 on success (verify FAILURE lines still exit 0; they are
reported, not fatal), 1 for usage mistakes, 2 for config defects, 3 when
the numerics refuse (bracketing, quadrature, overflow, bad parameters).
A flag the command does not read (`--nx` to any command but `solve`,
`--nt` to `verify`), or a prefix of a flag (`--n`, `--mod`), is a usage
mistake, and an out-of-range option or flag, or a `chain` run without
[chain] or with a measured [exit], is a config defect; both are found
before the output directory is made.

Every command builds its series in `_series`, so [exit] n_grid grids
every computed exit, `chain` segments included, and `solve` and each
segment write `breakthrough.csv` in `_write_breakthrough`: a one-segment
chain is a `solve`.

All outputs are deterministic: no timestamps, sorted JSON keys, LF line
endings, CSV cells printed with %.17g and manifest floats as Python's
shortest round-trip repr.  Running the same config twice gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    BracketingError,
    ConfigError,
    FluxTransformError,
    NumericOverflowError,
    ParameterError,
    QuadratureError,
)
from .eigensystem import DANCKWERTS, robin_eigenpair  # robin_eigenpair: the benchmark traces it
from .exitflux import exit_curve_defect, resolve_exit
from .series import _sorted_unique, build_solution, eval_C
from .verification import (
    FdGrid,
    danckwerts_comparison,
    fd_convergence_order,
    fd_solve,
    mass_balance,
    mass_balance_fd,
)

__all__ = ["main"]

_CSV_ROWS = 1024  # rows per formatted block of a CSV file


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # one spelling per flag: no prefix of one is taken for it, here
        # or in the subcommand parsers, which are of this class too
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # usage trouble is exit code 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(path: Path, payload: dict):
    """payload as strict JSON; a value that is not finite ends the run."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericOverflowError(f"{path.name}: {exc}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header: str, rows):
    """header, then each row's cells as %.17g, comma-separated.

    Rows are taken in blocks of `_CSV_ROWS` and each block is one
    %-format of its lines, written at once, so memory stays bounded.
    """
    _write_blocks(path, header, _row_blocks(rows))


def _write_grid_csv(path: Path, header: str, ts, xs, values):
    """The rows (t, x, C) of a (t, x) grid, t slowest, as `_write_csv` writes them.

    Same bytes, with each distinct t and x formatted once per file and
    only C once per cell (`_grid_blocks`).
    """
    _write_blocks(path, header, _grid_blocks(ts, xs, values))


def _write_blocks(path: Path, header: str, blocks):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for text in blocks:
            fh.write(text)


def _row_blocks(rows):
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_ROWS)):
        cells = np.asarray(block, dtype=float)
        line = ",".join(["%.17g"] * cells.shape[1]) + "\n"
        yield line * len(block) % tuple(cells.ravel().tolist())


def _grid_blocks(ts, xs, values):
    """The lines t,x,C of a (t, x) grid, in blocks of whole instants of about `_CSV_ROWS` rows.

    An instant's lines are one %-format of its C values into a template
    that holds its t and every x, each formatted once.
    """
    ts = ["%.17g" % t for t in np.asarray(ts, dtype=float).tolist()]
    tails = ["," + "%.17g" % x + ",%.17g\n" for x in np.asarray(xs, dtype=float).tolist()]
    values = np.asarray(values, dtype=float).reshape(len(ts), len(tails))
    step = max(1, _CSV_ROWS // max(1, len(tails)))
    for i in range(0, len(ts) if tails else 0, step):
        yield "".join((t + t.join(tails)) % tuple(row)
                      for t, row in zip(ts[i:i + step], values[i:i + step].tolist()))


def _say(quiet: bool, msg: str):
    if not quiet:
        print(msg)


def _series(cfg: RunConfig, data):
    """The Robin series of `data` to t_end, a computed exit gridded by [exit] n_grid."""
    data = resolve_exit(data, cfg.t_end, n_grid=cfg.exit_n_grid)
    return build_solution(data, cfg.policy, cfg.t_end)


def _write_breakthrough(path: Path, sol, ts):
    """breakthrough.csv: C at the exit face and the exit data C_E, at each t."""
    data = sol.data
    rows = zip(ts, eval_C(sol, data.params.ell, ts), data.require_exit().eval(ts))
    _write_csv(path, "t,C_exit,C_flux_exit", rows)


def _cmd_solve(cfg: RunConfig, out: Path, quiet: bool) -> int:
    sol = _series(cfg, cfg.data)
    data = sol.data
    ts = np.linspace(data.t0, cfg.t_end, cfg.nt)
    xs = np.linspace(0.0, data.params.ell, cfg.nx)

    _write_grid_csv(out / "profile.csv", "t,x,C", ts, xs, eval_C(sol, xs, ts))
    # same instants, so the coefficients come from the solution's memo
    _write_breakthrough(out / "breakthrough.csv", sol, ts)

    _write_json(out / "manifest.json", {
        "command": "solve",
        "version": __version__,
        "config": cfg.source,
        "params": dataclasses.asdict(data.params),
        "grid": {"t0": data.t0, "t_end": cfg.t_end, "nx": cfg.nx, "nt": cfg.nt},
        "exit_n_grid": cfg.exit_n_grid,
        "policy": {"n_max": cfg.policy.n_max, "tail_tol": cfg.policy.tail_tol},
        "series": {"kind": sol.kind, "n_used": sol.n_used,
                   # null: the bound left the double range (the notes say so)
                   "reported_tail": None if sol.reported_tail == np.inf
                   else sol.reported_tail,
                   "exit_computed": data.exit_computed,
                   "notes": list(sol.notes)},
        "outputs": ["breakthrough.csv", "manifest.json", "profile.csv"],
    })
    _say(quiet, f"kept modes through n = {sol.n_used}; "
                f"reported tail bound {sol.reported_tail:.3g}")
    _say(quiet, f"wrote profile.csv, breakthrough.csv, manifest.json to {out}")
    return 0


def _cmd_verify(cfg: RunConfig, out: Path, quiet: bool) -> int:
    vo = cfg.verify
    # Two stages, the oracle first: its history (fd_nt + 1 rows) is dropped
    # before the series is built and only the 17 rows the comparison reads
    # outlive it, so the history is not live under the series' evaluations,
    # where the run's memory peaks.
    data = resolve_exit(cfg.data, cfg.t_end, n_grid=cfg.exit_n_grid)
    fd = fd_solve(data, cfg.t_end, FdGrid(nx=vo.fd_nx, nt=vo.fd_nt))
    # pointwise comparison on the FD grid at a spread of time levels
    levels = _sorted_unique(np.floor(np.linspace(1, fd.t.size - 1, 17))).astype(int)
    fd_x, fd_t, fd_rows = fd.x, fd.t[levels], fd.C[levels]
    fd_bal = mass_balance_fd(fd)
    del fd
    order, e1, e2 = fd_convergence_order(data, cfg.t_end)

    sol = _series(cfg, data)  # the exit is resolved: the series takes it as is
    diffs = eval_C(sol, fd_x, fd_t) - fd_rows
    sup = float(np.max(np.abs(diffs)))
    sq = 0.0
    for diff in diffs:
        sq += float(np.sum(diff * diff))
    rms = np.sqrt(sq / diffs.size)

    series_bal = mass_balance(lambda xs, t: eval_C(sol, xs, t), data,
                              cfg.t_end, n_times=vo.n_times)

    _write_csv(out / "balance.csv", "t,residual,relative",
               zip(series_bal.times, series_bal.residual, series_bal.relative))

    checks = [
        ("series vs finite differences (max)", sup, vo.compare_tol),
        ("series vs finite differences (rms)", rms, vo.compare_tol),
        ("series mass balance (max relative)", series_bal.max_rel, vo.balance_tol),
        ("fd mass balance (max relative)", fd_bal.max_rel, vo.balance_tol * 10),
    ]
    lines = []
    for label, value, tol in checks:
        verdict = "PASS" if value <= tol else "FAIL"
        lines.append(f"{verdict}  {label}: {value:.6g} (tol {tol:.3g})")
    lines.append(f"info  fd refinement order: {order:.3f} "
                 f"(gaps {e1:.3g} -> {e2:.3g})")
    lines.append(f"info  kept modes through n = {sol.n_used}, "
                 f"reported tail bound {sol.reported_tail:.3g}")
    text = "\n".join(lines) + "\n"
    with open(out / "verify_summary.txt", "w", newline="\n") as fh:
        fh.write(text)
    _say(quiet, text.rstrip())
    _say(quiet, f"wrote balance.csv, verify_summary.txt to {out}")
    return 0


def _cmd_compare(cfg: RunConfig, out: Path, quiet: bool) -> int:
    robin = _series(cfg, cfg.data)
    data = robin.data
    danck = build_solution(data, cfg.policy, cfg.t_end, kind=DANCKWERTS)
    report = danckwerts_comparison(robin, danck)

    cE = data.require_exit()
    ell = data.params.ell
    ts = np.linspace(data.t0, cfg.t_end, cfg.nt)
    cr, cd = eval_C(robin, ell, ts), eval_C(danck, ell, ts)
    rows = zip(ts, cr, cd, cE.eval(ts), np.abs(cr - cd))
    _write_csv(out / "exit_comparison.csv",
               "t,C_exit,C_exit_danckwerts,C_flux_exit,exit_gap", rows)

    n = min(robin.n_used, danck.n_used) + 1
    _write_csv(out / "eigenvalues.csv", "n,lambda,lambda_danckwerts",
               zip(range(n), robin.lam[:n], danck.lam[:n]))

    gm = f"{report.gamma_over_mu:.6g}" if report.gamma_over_mu is not None else "n/a"
    _say(quiet, f"max sup-norm gap {report.max_sup:.6g}, "
                f"final {report.final_sup:.6g}, gamma/mu {gm}")
    _say(quiet, f"wrote exit_comparison.csv, eigenvalues.csv to {out}")
    return 0


def _chain_checks(cfg: RunConfig):
    if cfg.chain is None:
        raise ConfigError("the chain command needs a [chain] section")
    if cfg.data.exit is not None:
        raise ConfigError("the chain command computes every segment's exit; "
                          "it takes no measured [exit]")


def _cmd_chain(cfg: RunConfig, out: Path, quiet: bool) -> int:
    ts = np.linspace(cfg.data.t0, cfg.t_end, cfg.nt)
    g_in = cfg.data.g
    reports = []
    for i, L in enumerate(cfg.chain.lengths, start=1):
        params = dataclasses.replace(cfg.data.params, ell=float(L))
        sol = _series(cfg, dataclasses.replace(cfg.data, params=params, g=g_in))
        seg_dir = out / f"segment_{i}"
        seg_dir.mkdir(parents=True, exist_ok=True)
        _write_breakthrough(seg_dir / "breakthrough.csv", sol, ts)

        # interpolation defect of the memoized inlet-for-next-segment curve
        defect = exit_curve_defect(sol.data)
        reports.append((i, float(L), sol.n_used, defect))
        _say(quiet, f"segment {i}: ell = {L:g}, modes through n = {sol.n_used}, "
                    f"exit-curve interpolation defect {defect:.3g}")
        g_in = sol.data.exit

    # the last segment's curve, at the same instants, so from its memo
    _write_breakthrough(out / "breakthrough.csv", sol, ts)
    with open(out / "chain_report.txt", "w", newline="\n") as fh:
        for i, L, n_used, defect in reports:
            fh.write(f"segment {i}: ell = {L:.17g}, modes through n = {n_used}, "
                     f"exit interpolation defect = {defect:.17g}\n")
        fh.write(f"segments = {len(reports)}, combined exit written from "
                 f"segment {len(reports)}\n")
    _say(quiet, f"wrote per-segment outputs, breakthrough.csv, "
                f"chain_report.txt to {out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="coltrans",
                     description="finite-column solute transport solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, axes in [  # axes: the output samples the command writes
        ("solve", "concentration profiles and breakthrough curves", "xt"),
        ("verify", "finite-difference and mass-balance audits", ""),
        ("compare-danckwerts", "gap against the zero-gradient outlet closure", "t"),
        ("chain", "linked column segments, exit feeding the next inlet", "t"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI run file")
        p.add_argument("--out", default=None, help="output directory")
        for axis in axes:
            p.add_argument(f"--n{axis}", type=int, help=f"output {axis} samples")
        p.add_argument("--modes", type=int, default=None,
                       help="override the mode cap")
        p.add_argument("--tail-tol", type=float, default=None,
                       help="override the tail tolerance")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    return parser


def _set(options, **values):
    """options with each value that is not None replaced, through its checks."""
    return dataclasses.replace(
        options, **{k: v for k, v in values.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        policy = _set(cfg.policy, n_max=args.modes, tail_tol=args.tail_tol)
        cfg = _set(cfg, nx=vars(args).get("nx"), nt=vars(args).get("nt"), policy=policy)
        if args.command == "chain":
            _chain_checks(cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out}: {exc}", file=sys.stderr)
        return 2

    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "compare-danckwerts": _cmd_compare,
        "chain": _cmd_chain,
    }
    try:
        return handlers[args.command](cfg, out, args.quiet)
    except (ParameterError, QuadratureError, BracketingError,
            FluxTransformError, NumericOverflowError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
