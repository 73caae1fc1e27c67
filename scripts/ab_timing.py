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
how many pairs it won; each side's peak resident set (the largest VmHWM
the child read, after the import, at each stage's exit and as it ends) as
median and quartiles, its median right after the import, and how many
pairs it won; each side's median VmHWM at the exit of each stage, the
largest over the stage's calls, which shows the stage that holds the
peak; and each side's median in-process stage times:
`from coltrans import cli`, the self time of the `cli` entry points a
command reaches (config, exit closure, series build, evaluation, FD
oracle, balance, writes; a stage's calls inside another's count for the
inner one only) and the whole of `cli.main`.  Stage times and
high-water marks come from the child itself, which wraps those names
from outside the package before it calls `cli.main`.

VmHWM moves with the length of the command line and of the environment,
so each side runs its checkout through a link of the same length
(its `PYTHONPATH`) and writes to output directories whose names are of
equal length.
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
    "build_solution": "build",
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
STAGE_ORDER = ["import", "config", "exit", "build", "eval", "fd", "balance", "write", "main"]
TAGS = {"this": "t", "against": "a"}  # side -> the tag of its paths, one letter each


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
    """Time the import of `cli`, then run `cli.main(argv)` with the stage names
    wrapped; write their self times, the process's peak RSS at each stage's
    exit (`hwm_mb`, the import and `main` included), after the import, and
    the largest of those reads (`rss_mb`)."""
    start = time.perf_counter()
    from coltrans import cli

    totals = dict.fromkeys(STAGE_ORDER, 0.0)
    totals["import"] = time.perf_counter() - start
    totals["import_rss_mb"] = peak_rss_mb()
    hwm = totals["hwm_mb"] = {"import": totals["import_rss_mb"]}
    stack = []  # [stage, start, time spent in inner stages]

    def wrap(fn, stage):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append([stage, time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                hwm[stage] = max(hwm.get(stage, 0.0), peak_rss_mb())
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
        hwm["main"] = peak_rss_mb()
        # a later VmHWM read can be lower than an earlier one, so the peak
        # is the largest read: after the import, at each stage's exit, now
        totals["rss_mb"] = max(hwm.values())
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


def wins(values: dict, side: str) -> int:
    """Pairs in which `side`'s value is below the other side's; ties count for neither."""
    other = next(s for s in values if s != side)
    return sum(a < b for a, b in zip(values[side], values[other]))


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
                                   tmp / f"{case}-{TAGS[side]}-{i}", tmp / "sidecar.json")
            walls[side].append(wall)
            stages[side].append(stage)
    rss = {side: [r["rss_mb"] for r in stages[side]] for side in sides}
    lines = [f"{case}: {COMMAND[case]}, {PAIRS} interleaved pairs"]
    for side in sides:
        med, q1, q3 = quartiles(walls[side])
        lines.append(f"  wall {side:<8} median {med:.4f} s  (quartiles {q1:.4f}, {q3:.4f})  "
                     f"faster in {wins(walls, side)} of {PAIRS} pairs")
    for side in sides:
        med, q1, q3 = quartiles(rss[side])
        imported = statistics.median(r["import_rss_mb"] for r in stages[side])
        lines.append(f"  peak RSS {side:<8} median {med:.2f} MiB  (quartiles {q1:.2f}, "
                     f"{q3:.2f})  after import {imported:.2f}  "
                     f"lower in {wins(rss, side)} of {PAIRS} pairs")
    lines.append("  stage high-water, MiB" + "".join(f"{s:>9}" for s in STAGE_ORDER))
    for side in sides:
        meds = [statistics.median(r["hwm_mb"].get(s, float("nan")) for r in stages[side])
                for s in STAGE_ORDER]
        lines.append(f"  {side:<21}" + "".join(f"{m:9.2f}" for m in meds))
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
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        roots = {"this": tmp / TAGS["this"], "against": tmp / TAGS["against"]}
        roots["this"].symlink_to(HERE, target_is_directory=True)
        roots["against"].symlink_to(Path(args.against).resolve(), target_is_directory=True)
        for case in CASES:
            print("\n".join(compare(case, roots, tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
