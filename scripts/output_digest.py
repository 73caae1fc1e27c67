#!/usr/bin/env python3
"""SHA-256 of every file the CLI writes for the benchmark's seed-0 configs.

For each workload in perfbench/workloads.py it writes the seed-0 run file,
runs the workload's own command (`solve` or `verify`) and
`compare-danckwerts` on it in fresh `python -m coltrans` processes, and
prints one line per output file:

    <sha256>  <workload>/<command>/<file>

pulse-solve also runs `chain` on its run file with a [chain] section
appended here, which splits the column into two halves; the segments'
files are listed as <workload>/chain/segment_<i>/<file>.

A change meant to leave the numbers alone can show it by running this on
both checkouts and diffing the two listings:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --root ../parent > old.txt
    diff old.txt new.txt

`--root` names the checkout whose `src/` is run; the run files always come
from this checkout's `perfbench/workloads.py`, which is only read.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402

# workload -> [chain] section appended to its seed-0 run file for `chain`
CHAIN = {"pulse-solve": "\n[chain]\nlengths = 0.5 0.5\n"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(HERE),
                    help="checkout whose src/ is run (default: this one)")
    ap.add_argument("--workload", action="append", choices=workloads.NAMES,
                    help="limit to these workloads (repeatable)")
    return ap.parse_args(argv)


def run(root: Path, command: str, ini: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-m", "coltrans", command, "--config", str(ini),
         "--out", str(out), "--quiet"],
        env=env, check=True,
    )


def main(argv=None):
    args = parse_args(argv)
    root = Path(args.root).resolve()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in args.workload or workloads.NAMES:
            cfg = workloads.spec(name, 0)
            text = workloads.ini_text(cfg)
            runs = [(cfg["command"], text), ("compare-danckwerts", text)]
            if name in CHAIN:
                runs.append(("chain", text + CHAIN[name]))
            for command, ini_text in runs:
                ini = tmp / f"{name}-{command}.ini"
                ini.write_text(ini_text)
                out = tmp / name / command
                run(root, command, ini, out)
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    rel = path.relative_to(out).as_posix()
                    lines.append(f"{digest}  {name}/{command}/{rel}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
