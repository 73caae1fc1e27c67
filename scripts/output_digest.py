#!/usr/bin/env python3
"""SHA-256 of every file the CLI writes for the benchmark's seed-0 configs.

For each workload in perfbench/workloads.py it writes the seed-0 run file,
runs the workload's own command (`solve` or `verify`) and
`compare-danckwerts` on it in fresh `python -m coltrans` processes, and
prints one line per output file:

    <sha256>  <workload>/<command>/<file>

pulse-solve also runs `verify` on its run file, the README config with a
computed exit, whose audits FAIL, and `chain` with a [chain] section
appended here, which splits the column into two halves; the segments'
files are listed as <workload>/chain/segment_<i>/<file>.

A change meant to leave the numbers alone can show it by running this on
both checkouts and diffing the two listings:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --root ../parent > old.txt
    diff old.txt new.txt

A change that moves values at rounding level shows by how much with
`--against`, which runs both checkouts and prints, in place of each
digest, `identical`, or the largest |difference| between the numbers of
the two files relative to the largest |value| in the `--against` file
(`text differs` when the text around the numbers differs, `on one side
only` when only one checkout writes the file):

    python3 scripts/output_digest.py --against ../parent

Under a `text differs` line it prints the first line where the two files
differ, as `- line <n>: ...` from the `--against` checkout and
`+ line <n>: ...` from this one.

With `--against` the exit status is 1 when any file reads `text differs`
or `on one side only`, so the comparison can serve as a gate; it is 0
when every file is identical or differs in its numbers only.

`--root` names the checkout whose `src/` is run; the run files always come
from this checkout's `perfbench/workloads.py`, which is only read.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402

# workload -> further (command, text appended to its seed-0 run file) runs
EXTRA = {"pulse-solve": [("verify", ""),
                         ("chain", "\n[chain]\nlengths = 0.5 0.5\n")]}

# a decimal number, split out of the text around it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# `difference` verdicts that no rounding explains: --against exits 1 on them
MISMATCH = ("text differs", "on one side only")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(HERE),
                    help="checkout whose src/ is run (default: this one)")
    ap.add_argument("--against", default=None,
                    help="checkout to compare with, value by value")
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


def outputs(root: Path, names, tmp: Path) -> dict:
    """{"<workload>/<command>/<file>": bytes} for every file the runs write."""
    tmp.mkdir()
    files = {}
    for name in names:
        cfg = workloads.spec(name, 0)
        text = workloads.ini_text(cfg)
        runs = [(cfg["command"], text), ("compare-danckwerts", text)]
        runs += [(command, text + extra) for command, extra in EXTRA.get(name, [])]
        for command, ini_text in runs:
            ini = tmp / f"{name}-{command}.ini"
            ini.write_text(ini_text)
            out = tmp / name / command
            run(root, command, ini, out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                files[f"{name}/{command}/{path.relative_to(out).as_posix()}"] = \
                    path.read_bytes()
    return files


def difference(old: bytes, new: bytes) -> str:
    """`identical`, or the largest |new - old| over the largest |old|."""
    if old is None or new is None:
        return "on one side only"
    if old == new:
        return "identical"
    a, b = NUMBER.split(old.decode()), NUMBER.split(new.decode())
    if len(a) != len(b) or a[::2] != b[::2]:
        return "text differs"
    pairs = [(float(x), float(y)) for x, y in zip(a[1::2], b[1::2])]
    scale = max(abs(x) for x, _ in pairs) or 1.0
    return f"{max(abs(y - x) for x, y in pairs) / scale:.3e}"


def first_differing_lines(old: bytes, new: bytes) -> list:
    """The first line that differs between the two files, from each side."""
    a, b = old.decode().split("\n"), new.decode().split("\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"    {sign} line {i + 1}: {lines[i] if i < len(lines) else '(end of file)'}"
            for sign, lines in (("-", a), ("+", b))]


def main(argv=None):
    args = parse_args(argv)
    names = args.workload or workloads.NAMES
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = outputs(Path(args.root).resolve(), names, tmp / "new")
        status = 0
        if args.against is None:
            lines = [f"{hashlib.sha256(data).hexdigest()}  {key}"
                     for key, data in files.items()]
        else:
            ref = outputs(Path(args.against).resolve(), names, tmp / "old")
            keys = list(ref) + [key for key in files if key not in ref]
            verdicts = [difference(ref.get(key), files.get(key)) for key in keys]
            lines = []
            for verdict, key in zip(verdicts, keys):
                lines.append(f"{verdict}  {key}")
                if verdict == "text differs":
                    lines += first_differing_lines(ref[key], files[key])
            status = int(any(verdict in MISMATCH for verdict in verdicts))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
