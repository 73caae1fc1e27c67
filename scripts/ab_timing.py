#!/usr/bin/env python3
"""Interleaved wall-time pairs of two checkouts on the benchmark's commands.

    python3 scripts/ab_timing.py --against ../parent

For each case it writes the seed-0 run file from perfbench/workloads.py
(which is only read) and runs the command in fresh `python -m coltrans`
processes, one from this checkout and one from `--against`, for ten
pairs, the order swapped from each pair to the next.  The cases are
pulse-solve (`solve`), loaded-verify (`verify`), compare
(`compare-danckwerts` on the pulse-solve run file) and chain, the
pulse-solve run file with `[chain] lengths = 0.5 0.5 0.5`.  Every
process is pinned to the last CPU this one may use, so the two sides see
the same core.

It prints, per case, each side's median wall time with its quartiles and
its median peak resident set (VmHWM, read by the child as it ends), how
many pairs each side won, and each side's median in-process stage times:
the self time of the `cli` entry points a command reaches (config,
exit closure, series build, evaluation, FD oracle, balance, writes; a
stage's calls inside another's count for the inner one only) and the
whole of `cli.main`.  Stage times come from the child itself, which wraps
those names from outside the package before it calls `cli.main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# case -> (workload whose seed-0 run file it uses, text appended to it)
CASES = {
    "pulse-solve": ("pulse-solve", ""),
    "loaded-verify": ("loaded-verify", ""),
    "compare": ("pulse-solve", ""),
    "chain": ("pulse-solve", "\n[chain]\nlengths = 0.5 0.5 0.5\n"),
}
COMMAND = {"pulse-solve": "solve", "loaded-verify": "verify",
           "compare": "compare-danckwerts", "chain": "chain"}
PAIRS = 10

# cli name -> stage; a name a checkout lacks is skipped
STAGES = {
    "load_config": "config",
    "resolve_exit": "exit",
    "exit_curve_defect": "exit",
    "exit_concentration": "exit",  # the chain's probe in checkouts older than exit_curve_defect
    "build_solution": "build",
    "danckwerts_solve": "build",  # the Danckwerts build in checkouts older than kind=DANCKWERTS
    "eval_C": "eval",
    "danckwerts_comparison": "eval",
    "fd_solve": "fd",
    "fd_convergence_order": "fd",
    "mass_balance": "balance",
    "mass_balance_fd": "balance",
    "_write_csv": "write",
    "_write_grid_csv": "write",
    "_write_json": "write",
}
STAGE_ORDER = ["config", "exit", "build", "eval", "fd", "balance", "write", "main"]


def peak_rss_mb():
    """This process's resident high-water mark (VmHWM) in MiB, or nan off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def child(sidecar: str, argv) -> int:
    """Run `cli.main(argv)` with the stage names wrapped; write their self times
    and the process's peak RSS."""
    from coltrans import cli

    totals = dict.fromkeys(STAGE_ORDER, 0.0)
    stack = []  # [stage, start, time spent in inner stages]

    def wrap(fn, stage):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append([stage, time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                name, start, inner = stack.pop()
                spent = time.perf_counter() - start
                totals[name] += spent - inner
                if stack:
                    stack[-1][2] += spent
        return timed

    for attr, stage in STAGES.items():
        if hasattr(cli, attr):
            setattr(cli, attr, wrap(getattr(cli, attr), stage))
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        totals["main"] = time.perf_counter() - start
        totals["rss_mb"] = peak_rss_mb()
        Path(sidecar).write_text(json.dumps(totals))


def run_once(root: Path, command: str, ini: Path, out: Path, sidecar: Path):
    """(wall seconds, stage seconds and peak RSS) of one fresh process on `root`'s src/."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(sidecar),
            "--", command, "--config", str(ini), "--out", str(out), "--quiet"]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    wall = time.perf_counter() - start
    return wall, json.loads(sidecar.read_text())


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def compare(case: str, roots: dict, tmp: Path) -> list:
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    workload, extra = CASES[case]
    ini = tmp / f"{case}.ini"
    ini.write_text(workloads.ini_text(workloads.spec(workload, 0)) + extra)
    walls = {side: [] for side in roots}
    stages = {side: [] for side in roots}
    sides = list(roots)
    for i in range(PAIRS):
        for side in sides if i % 2 == 0 else sides[::-1]:
            wall, stage = run_once(roots[side], COMMAND[case], ini,
                                   tmp / f"{case}-{side}-{i}", tmp / "sidecar.json")
            walls[side].append(wall)
            stages[side].append(stage)
    this, other = sides
    wins = sum(a < b for a, b in zip(walls[this], walls[other]))
    lines = [f"{case}: {COMMAND[case]}, {PAIRS} interleaved pairs"]
    for side in sides:
        med, q1, q3 = quartiles(walls[side])
        rss = statistics.median(r["rss_mb"] for r in stages[side])
        lines.append(f"  wall {side:<8} median {med:.4f} s  (quartiles {q1:.4f}, "
                     f"{q3:.4f})  peak RSS median {rss:.1f} MiB")
    lines.append(f"  this faster in {wins} of {PAIRS} pairs")
    lines.append("  stage medians, ms   " + "".join(f"{s:>9}" for s in STAGE_ORDER))
    for side in sides:
        meds = [1e3 * statistics.median(r[s] for r in stages[side]) for s in STAGE_ORDER]
        lines.append(f"  {side:<19}" + "".join(f"{m:9.1f}" for m in meds))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[argv.index("--") + 1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="checkout to compare with")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    roots = {"this": HERE, "against": Path(args.against).resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print("\n".join(compare(case, roots, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
