"""scripts/ab_timing.py: the child's peak is the largest VmHWM it read, and each
stage it wraps is a name of `coltrans.cli`."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import coltrans

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_timing.py"

TINY_RUN = """\
[params]
D = 0.1
v = 1.0
ell = 1.0

[grid]
t_end = 1.5

[g]
kind = constant
value = 1.0

[exit]
n_grid = 64

[policy]
n_max = 40
"""


def load_ab_timing():
    """scripts/ab_timing.py as a module."""
    spec = importlib.util.spec_from_file_location("ab_timing", SCRIPT)
    ab_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_timing)
    return ab_timing


def test_child_reports_the_largest_high_water_it_read(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_RUN)
    sidecar = tmp_path / "sidecar.json"
    src = str(Path(coltrans.__file__).resolve().parents[1])
    subprocess.run([sys.executable, str(SCRIPT), "--child", str(sidecar), "--", "verify",
                    "--config", str(ini), "--out", str(tmp_path / "out"), "--quiet"],
                   check=True, env=dict(os.environ, PYTHONPATH=src))
    totals = json.loads(sidecar.read_text())
    hwm = totals["hwm_mb"]
    assert {"import", "config", "fd", "build", "balance", "main"} <= set(hwm)
    assert totals["rss_mb"] == max(hwm.values())


def test_child_keeps_an_earlier_high_water_that_a_later_read_undercuts(
        tmp_path, monkeypatch):
    """VmHWM can read lower later in the same process; here every read is
    lower than the one before, so the peak is the read after the import."""
    import itertools

    from coltrans import cli

    ab_timing = load_ab_timing()
    for attr in ab_timing.STAGES:  # the child wraps these; restore them after
        if hasattr(cli, attr):
            monkeypatch.setattr(cli, attr, getattr(cli, attr))
    reads = itertools.count()
    monkeypatch.setattr(ab_timing, "peak_rss_mb", lambda: 40.0 - next(reads))
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_RUN)
    sidecar = tmp_path / "sidecar.json"
    assert ab_timing.child(str(sidecar), ["verify", "--config", str(ini), "--out",
                                          str(tmp_path / "out"), "--quiet"]) == 0
    totals = json.loads(sidecar.read_text())
    assert totals["import_rss_mb"] == totals["rss_mb"] == 40.0
    assert totals["hwm_mb"]["main"] < 40.0


def test_every_stage_is_a_name_of_this_cli():
    """A stage whose name `cli` lacks would be skipped silently, and time nothing."""
    from coltrans import cli

    assert [name for name in load_ab_timing().STAGES if not hasattr(cli, name)] == []
