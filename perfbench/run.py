#!/usr/bin/env python3
"""Command benchmark for coltrans, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--save F]  # table
    python3 perfbench/run.py --all --quick          # each workload once each way
    python3 perfbench/run.py --self-test            # the checks catch faults

Run from the repository root.  Each repetition starts one fresh
`coltrans` process (through child.py, which is `python -m coltrans` plus a
hook that notes when `load_config` returns) and repeats while another
repetition of typical length fits in S seconds, with at least MIN_REPS
repetitions; metrics are medians over repetitions.  A fixed probe, a
series-like numpy evaluation, is timed before the first repetition and
after each one, and a repetition's `wall_probes` is its wall time over the
mean of the two probes beside it.  The benchmark and its
commands are pinned to one CPU, so the probe sees the speed the command
saw.  Outputs go to a temporary directory inside the checkout and are
checked against cached references (checks.py) after each repetition,
outside the timed region.

--trace 0 prints the end-to-end metrics: wall_probes, setup_s, peak_rss_mb
and digits.  --trace 1 alternates traced and untraced repetitions and prints
the per-layer metrics, where a layer's self time is its spans' time minus
that of their child spans.  The last stdout line is the JSON result; the
line before it records the environment and every repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# passes of one probe: 0.3-0.7 s on a shared 2-CPU Intel Xeon host
PROBE_PASSES = 1500
REP_TIMEOUT_S = 120.0
# stop starting repetitions past this point so a run ends well inside 180 s
RUN_BUDGET_S = 110.0
TMP_DIR = ".perfbench_tmp"
CACHE_DIR = ".perfbench_cache"

# metric names and units, and the default run length, come from the spec
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# span layer -> self-time metric; time outside every span is cli.self_s
_SELF_METRIC = {
    "exitflux": "exitflux.self_s",
    "eigensystem.inner_product": "eigensystem.inner_product_s",
    "eigensystem.pairs": "eigensystem.pairs_s",
    "series.build": "series.build_s",
    "series.eval": "series.eval_s",
    "verification.fd": "verification.fd_s",
    "verification.balance": "verification.balance_s",
    "cli.config": "cli.config_s",
    "cli.write": "cli.write_s",
}
# layer self times must add up to the traced wall time to this share
SUM_TOL = 1e-6


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": _nproc(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_to_one_cpu():
    """Run this process and every command it starts on one CPU.

    On a shared host each CPU's speed drifts by its own tens of percent
    within seconds, so a probe run on another CPU than the command would
    not see the speed the command saw.  Returns the CPU, or None.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def probe() -> float:
    """Wall time of a fixed amount of work: a 201-mode sine series summed
    on a 101-point grid, PROBE_PASSES times, without BLAS.

    Of the probes tried, this one followed both workloads' wall time most
    closely: QUADPACK on a Python integrand, which is most of pulse-solve,
    followed it less well.
    """
    import numpy as np

    xs = np.linspace(0.0, 1.0, 101)
    ks = np.arange(1, 202)
    weights = np.cos(0.1 * ks)
    t0 = time.monotonic()
    for k in range(PROBE_PASSES):
        (np.sin(np.outer(xs, ks) * (1.0 + k * 1e-4)) * weights).sum()
    return time.monotonic() - t0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    n = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = n
    return env


class Workload:
    """One generated run file plus its cached reference outputs."""

    def __init__(self, root: Path, name: str, seed: int, tmp: Path):
        self.cfg = workloads.spec(name, seed)
        self.command = self.cfg["command"]
        self.ini = tmp / f"{name}-{seed}.ini"
        self.ini.write_text(workloads.ini_text(self.cfg))
        self.ref = checks.load_reference(name, self.cfg, self.ini,
                                         root / CACHE_DIR)


def run_once(root: Path, env: dict, wl: Workload, tmp: Path, rep: int, *,
             trace: bool, extra=()) -> dict:
    """Run the command once in a fresh process, then check its outputs."""
    out = tmp / f"out-{rep}"
    sidecar = tmp / f"side-{rep}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(sidecar)]
    argv += (["--trace"] if trace else []) + list(extra)
    argv += ["--", wl.command, "--config", str(wl.ini), "--out", str(out),
             "--quiet"]
    with open(tmp / f"err-{rep}.txt", "w") as err:
        t_start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        except BaseException:
            # interrupted or terminated: leave no command running behind
            proc.kill()
            proc.wait()
            raise
        t_end = time.monotonic()
    rec = {"rc": proc.returncode, "wall_s": t_end - t_start}
    side = {}
    if sidecar.exists():
        side = json.loads(sidecar.read_text())
    if side.get("t_config") is not None:
        rec["setup_s"] = side["t_config"] - t_start
    if side.get("peak_rss_kb") is not None:
        rec["peak_rss_mb"] = side["peak_rss_kb"] / 1024.0
    verdict = checks.check(wl.command, out, proc.returncode, wl.ref)
    rec.update(ok=verdict["ok"], digits=verdict["digits"],
               reason=verdict["reason"], errors=verdict["errors"])
    if not verdict["ok"] and proc.returncode != 0:
        rec["reason"] += ": " + (tmp / f"err-{rep}.txt").read_text()[-300:]
    if trace and verdict["ok"]:
        rec["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*")
                                   if f.is_file())
        rec["layers"] = layer_metrics(side, t_start, t_end, rec)
    shutil.rmtree(out, ignore_errors=True)
    return rec


def layer_metrics(side: dict, t_start: float, t_end: float, rec: dict) -> dict:
    """Self times and counts of one traced repetition.

    Sets rec["ok"] False when the spans do not nest inside the process or
    the self times fail to add up to the traced wall time.
    """
    spans = side.get("spans") or []
    counts = side.get("counts") or {}
    wall = t_end - t_start
    child_time = [0.0] * len(spans)
    top = 0.0
    for layer, s0, s1, parent in spans:
        if parent >= 0:
            child_time[parent] += s1 - s0
        else:
            top += s1 - s0
    m = {k: 0.0 for k in PER_LAYER}
    nested = all(t_start <= s0 <= s1 <= t_end for _, s0, s1, _ in spans)
    for i, (layer, s0, s1, _) in enumerate(spans):
        own = (s1 - s0) - child_time[i]
        nested = nested and own >= -1e-9
        m[_SELF_METRIC[layer]] += own
        if layer == "eigensystem.pairs":
            m["eigensystem.pairs"] += 1
        elif layer == "series.eval":
            m["series.eval_calls"] += 1
    m["cli.self_s"] = wall - top
    for key in ("exitflux.quad_calls", "exitflux.quad_warn",
                "eigensystem.quad_calls", "series.modes", "series.eval_points"):
        m[key] = float(counts.get(key, 0))
    m["cli.bytes_written"] = float(rec["bytes_written"])
    m["trace.wall_s"] = wall
    total = sum(m[k] for k in _SELF_METRIC.values()) + m["cli.self_s"]
    if not nested or abs(total - wall) > SUM_TOL * wall:
        rec["ok"] = False
        rec["reason"] = (f"trace inconsistent: nested={nested}, self-time sum "
                         f"{total:.6f} s against wall {wall:.6f} s")
    return m


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool,
            *, max_reps=None, extra=()) -> dict:
    """Repeat one workload for `seconds` of command time and summarise."""
    env = child_env(root)
    (root / TMP_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / TMP_DIR))
    try:
        wl = Workload(root, name, seed, tmp)
        # compile bytecode and warm the file cache outside the timed region
        subprocess.run([sys.executable, "-c", "import coltrans.cli"], cwd=root,
                       env=env, check=True, timeout=REP_TIMEOUT_S)
        probe()
        started = time.monotonic()
        reps = []
        before = probe()
        spent = before
        min_reps = MIN_REPS if max_reps is None else min(MIN_REPS, max_reps)
        # a repetition starts only if one of typical length, with its probe,
        # still fits, so a run measures about `seconds` and never runs far
        # past it
        while ((len(reps) < min_reps
                or spent + _median([r["wall_s"] + r["probe_after_s"]
                                    for r in reps]) <= seconds)
               and (max_reps is None or len(reps) < max_reps)
               and time.monotonic() - started < RUN_BUDGET_S):
            # traced runs alternate with untraced ones, which give the
            # baseline for the tracing overhead
            traced = trace and len(reps) % 2 == 0
            rec = run_once(root, env, wl, tmp, len(reps), trace=traced,
                           extra=extra)
            after = probe()
            rec.update(traced=traced, probe_before_s=before,
                       probe_after_s=after,
                       wall_probes=2.0 * rec["wall_s"] / (before + after))
            reps.append(rec)
            spent += rec["wall_s"] + after
            before = after
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return summarise(reps)


def summarise(reps: list) -> dict:
    """Medians over repetitions: end-to-end metrics from the untraced ones,
    per-layer metrics from the traced ones, where there are any."""
    failed = sum(not r["ok"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    metrics = {}
    for key in ("wall_probes", "wall_s", "setup_s", "peak_rss_mb"):
        metrics[key] = _median([r[key] for r in plain if key in r])
    # outputs are deterministic, so the worst repetition is the one to report
    metrics["digits"] = min(r["digits"] for r in reps)
    if traced:
        for key in PER_LAYER:
            if key != "trace.overhead_s":
                metrics[key] = _median([r["layers"][key] for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics,
            "reps": [{k: v for k, v in r.items() if k != "layers"}
                     for r in reps]}


def print_result(env: dict, result: dict, units: dict):
    """The environment, the median wall time in seconds and the
    repetitions, then the result as the last line."""
    print(json.dumps({"environment": env,
                      "wall_s": result["metrics"]["wall_s"],
                      "reps": result["reps"]}))
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = {}
    for key, unit in units.items():
        value = result["metrics"].get(key, float("nan"))
        if value != value:
            # no sample: every repetition of that kind failed
            value = 0.0
            out["correct"] = False
        out["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(out))


def run_all(root: Path, env: dict, seed: int, seconds: float, quick: bool,
            save: Path | None) -> int:
    """Every workload, traced and untraced repetitions alternating, printed
    as one table of every metric with its unit."""
    results = {}
    for name in workloads.NAMES:
        res = measure(root, name, seed, seconds, True,
                      max_reps=2 if quick else None)
        res["metrics"]["fail_frac"] = res["failed"] / res["attempted"]
        results[name] = res
    units = {"fail_frac": "share", "wall_s": "s", **END_TO_END, **PER_LAYER}
    print(json.dumps({"environment": env}))
    width = max(len(k) for k in units)
    for name, res in results.items():
        for key, unit in units.items():
            value = res["metrics"].get(key, float("nan"))
            print(f"{name:14s} {key:{width}s} {value:14.6g} {unit}")
    if save is not None:
        save.write_text(json.dumps(
            {"environment": env, "seed": seed, "seconds": seconds,
             "units": units, "results": results}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test(root: Path) -> int:
    """The benchmark's checks must flag a failed and a subtly wrong run."""
    cases = [("clean run", ()), ("non-zero exit", ("--exit-code", "3")),
             ("exit curve scaled by 1+1e-6", ("--scale-exit", "1.000001"))]
    results = {}
    for label, extra in cases:
        res = measure(root, "pulse-solve", 0, 0.0, False, max_reps=1,
                      extra=extra)
        results[label] = res
        print(f"{label}: failed {res['failed']}/{res['attempted']}, digits "
              f"{res['metrics']['digits']:.3f}, "
              f"reason {res['reps'][0]['reason'] or '-'}")
    traced = measure(root, "pulse-solve", 0, 0.0, True, max_reps=1)
    base = results["clean run"]["metrics"]["digits"]
    verdicts = [
        ("clean run passes", results["clean run"]["failed"] == 0),
        ("traced run passes and its self times add up", traced["failed"] == 0),
    ]
    for label, _ in cases[1:]:
        res = results[label]
        verdicts.append((f"{label} counts as failed", res["failed"] == 1))
        verdicts.append((f"{label} lowers digits",
                         res["metrics"]["digits"] < base))
    for label, good in verdicts:
        print(f"{'PASS' if good else 'FAIL'}  {label}")
    return 0 if all(good for _, good in verdicts) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--save", type=Path, default=None,
                    help="with --all, also write the results as JSON")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "coltrans" / "cli.py").is_file():
        print("perfbench: run from a coltrans checkout (no src/coltrans here)",
              file=sys.stderr)
        return 2
    # the references in checks.py use the checkout's own package
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    env["pinned_cpu"] = pin_to_one_cpu()
    if args.self_test:
        return self_test(root)
    if args.all:
        return run_all(root, env, args.seed, args.seconds, args.quick,
                       args.save)
    if args.workload is None:
        ap.error("--workload, --all or --self-test is required")
    result = measure(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print_result(env, result,
                 PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
