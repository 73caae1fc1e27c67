"""Run-file loading: defaults for omitted sections, explicit overrides."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from coltrans import ConfigError, ParameterError, TruncationPolicy
from coltrans.config import ChainOptions, RunConfig, VerifyOptions, load_config

MINIMAL_INI = """\
[params]
D = 0.1
v = 1.0
ell = 1.0

[grid]
t_end = 1.5
"""

OPTIONAL_SECTIONS = """
[policy]
n_max = 40
tail_tol = 1e-6

[verify]
fd_nx = 101
fd_nt = 200
balance_tol = 1e-3
compare_tol = 1e-2
n_times = 9

[output]
dir = results
"""


def test_omitted_sections_take_the_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI)
    cfg = load_config(path)
    assert cfg.policy == TruncationPolicy()
    assert cfg.verify == VerifyOptions()
    assert cfg.out_dir == "out"


def test_explicit_sections_override_the_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI + OPTIONAL_SECTIONS)
    cfg = load_config(path)
    assert cfg.policy == TruncationPolicy(n_max=40, tail_tol=1e-6)
    assert cfg.verify == VerifyOptions(fd_nx=101, fd_nt=200, balance_tol=1e-3,
                                       compare_tol=1e-2, n_times=9)
    assert cfg.out_dir == "results"


def test_unset_sizes_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI + "\n[exit]\nkind = computed\n"
                    "\n[chain]\nlengths = 0.5 0.5\n")
    cfg = load_config(path)
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert (cfg.nx, cfg.nt) == (defaults["nx"], defaults["nt"])
    assert cfg.exit_n_grid == defaults["exit_n_grid"]
    assert cfg.chain == ChainOptions(lengths=(0.5, 0.5))


# (run-file line, what the message names): each of these used to load, and
# then passed, failed or crashed at run time
VERIFY_DEFECTS = [("n_times = 0", "n_times"), ("n_times = -1", "n_times"),
                  ("fd_nx = 3", "nx"), ("fd_nt = 0", "nt"), ("fd_nt = 3", "fd_nt"),
                  ("balance_tol = -1", "balance_tol"),
                  ("compare_tol = 0", "compare_tol")]


@pytest.mark.parametrize("line, names", VERIFY_DEFECTS)
def test_out_of_range_verify_options_are_config_errors(tmp_path, line, names):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI + f"\n[verify]\n{line}\n")
    with pytest.raises(ConfigError, match=r"^\[verify\]: .*" + names):
        load_config(path)


def test_verify_options_check_their_own_ranges():
    VerifyOptions(fd_nx=5, fd_nt=4, n_times=1)
    for bad in ({"fd_nx": 4}, {"fd_nx": 202}, {"fd_nt": 0}, {"fd_nt": 3}, {"n_times": 0},
                {"balance_tol": 0.0}, {"compare_tol": float("nan")},
                {"balance_tol": float("inf")}):
        with pytest.raises(ParameterError):
            VerifyOptions(**bad)


def test_benchmark_run_files_load(tmp_path):
    # every key the benchmark writes is one the loader reads
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        for seed in (0, 1):
            run = tmp_path / f"{name}-{seed}.ini"
            run.write_text(workloads.ini_text(workloads.spec(name, seed)))
            load_config(run)


def test_table_sections_load(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI + "\n[g]\nkind = table\nknots = 0 0.5 1.5\n"
                    "values = 0, 1, 0.25\n")
    g = load_config(path).data.g
    assert g.knots == (0.0, 0.5, 1.5)
    np.testing.assert_array_equal(g.eval(np.array([0.0, 0.5, 1.5, 2.0])),
                                  [0.0, 1.0, 0.25, 0.25])


# (knots, values, what the message names): each a table the loader refuses;
# a count mismatch used to crash in the interpolant's set-up or at run time
TABLE_DEFECTS = [("0 1 2", "0 1", "one value per knot"),
                 ("0 1", "0 1 2", "one value per knot"),
                 ("0", "1", "at least two knots"),
                 ("0 1 1", "0 1 2", "strictly increasing"),
                 ("0 1 x", "0 1 2", "expected numbers")]


@pytest.mark.parametrize("knots, values, message", TABLE_DEFECTS)
def test_malformed_tables_are_config_errors(tmp_path, knots, values, message):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL_INI + f"\n[g]\nkind = table\nknots = {knots}\n"
                    f"values = {values}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize("section", ["params", "grid"])
def test_missing_required_sections_are_config_errors(tmp_path, section):
    head, rest = MINIMAL_INI.split("\n[grid]\n")
    text = {"params": "[grid]\n" + rest, "grid": head}[section]
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^missing \[{section}\] section$"):
        load_config(path)


def test_measured_exit_takes_no_n_grid(tmp_path):
    path = tmp_path / "run.ini"
    measured = "\n[exit]\nkind = gaussian\nlevel = 0.4\ncenter = 1.0\nwidth = 0.4\n"
    path.write_text(MINIMAL_INI + measured)
    assert load_config(path).data.exit is not None
    path.write_text(MINIMAL_INI + measured + "n_grid = 9\n")
    with pytest.raises(ConfigError, match=r"^\[exit\] n_grid .* measured exit"):
        load_config(path)
