"""Launcher for one `coltrans` command, run in a fresh process by run.py.

    python3 child.py SIDECAR [--trace] [--scale-exit F] [--exit-code N] -- ARGS...

Runs `coltrans.cli.main(ARGS)` exactly as `python -m coltrans ARGS` would
and writes a JSON sidecar with the moment `load_config` returned (the end
of set-up).  With --trace it also wraps each layer's public entry points
from outside the package, keeps spans in memory and writes them to the
sidecar when the command ends.  Spans are [layer, start, end, parent] on
the system-wide monotonic clock, so the parent can place them against the
process start it measured itself.

--scale-exit and --exit-code break the run on purpose; they exist only for
run.py's self-test of its own output checks.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer): the names cli imports that the benchmark's
# commands reach, plus the entry points series and verification reach
# through their own imports
_TRACED = (
    ("cli", "load_config", "cli.config"),
    ("cli", "_write_csv", "cli.write"),
    ("cli", "_write_json", "cli.write"),
    ("cli", "resolve_exit", "exitflux"),
    ("cli", "robin_eigenpair", "eigensystem.pairs"),
    ("series", "robin_eigenpair", "eigensystem.pairs"),
    ("series", "inner_product", "eigensystem.inner_product"),
    ("cli", "build_solution", "series.build"),
    ("verification", "build_solution", "series.build"),
    ("cli", "eval_C", "series.eval"),
    ("verification", "eval_C", "series.eval"),
    ("cli", "fd_solve", "verification.fd"),
    ("cli", "fd_convergence_order", "verification.fd"),
    ("cli", "mass_balance", "verification.balance"),
    ("cli", "mass_balance_fd", "verification.balance"),
)


def _eval_points(args, out):
    import numpy as np

    return "series.eval_points", int(np.size(args[1]))


def _modes(args, out):
    return "series.modes", len(out.pairs)


# layer -> what its calls add to a counter
_COUNTED = {"series.eval": _eval_points, "series.build": _modes}


class Tracer:
    """Span and counter recorder; one per process, passed to the wrappers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, module, attr, layer):
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack
        count = _COUNTED.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, time.monotonic(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.monotonic()
            if count is not None:
                self.bump(*count(args, out))
            return out

        setattr(module, attr, traced)

    def count_quad(self, module, layer):
        """Count QUADPACK calls, and calls that came back with a warning."""
        quad = module.quad

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.bump(f"{layer}.quad_calls")
            # full_output=1 appends a message only when QUADPACK complains
            if kwargs.get("full_output") and len(out) > 3:
                self.bump(f"{layer}.quad_warn")
            return out

        module.quad = counted


def _peak_rss_kb():
    """This process's resident high-water mark since exec, in KiB.

    The rusage maxrss a parent reads also counts the memory of the parent
    the child was forked from, so the child reports its own VmHWM.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv) -> int:
    sidecar = argv[0]
    split = argv.index("--")
    opts, cmd = argv[1:split], argv[split + 1:]
    trace = "--trace" in opts
    scale_exit = None
    if "--scale-exit" in opts:
        scale_exit = float(opts[opts.index("--scale-exit") + 1])
    if "--exit-code" in opts:
        return int(opts[opts.index("--exit-code") + 1])

    from coltrans import cli, eigensystem, exitflux, series, verification

    modules = {"cli": cli, "series": series, "verification": verification}
    record = {"t_config": None}
    tracer = Tracer() if trace else None
    if tracer is not None:
        for mod, attr, layer in _TRACED:
            tracer.wrap(modules[mod], attr, layer)
        tracer.count_quad(exitflux, "exitflux")
        tracer.count_quad(eigensystem, "eigensystem")

    loader = cli.load_config

    def load_config(path):
        cfg = loader(path)
        record["t_config"] = time.monotonic()
        return cfg

    cli.load_config = load_config

    if scale_exit is not None:
        exact = exitflux.exit_concentration

        def scaled(hp, t):
            return exact(hp, t) * scale_exit

        exitflux.exit_concentration = scaled

    try:
        return cli.main(cmd)
    finally:
        record["peak_rss_kb"] = _peak_rss_kb()
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = tracer.counts
        with open(sidecar, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
