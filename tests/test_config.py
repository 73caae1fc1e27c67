"""Run-file loading: defaults for omitted sections, explicit overrides."""

import importlib.util
from dataclasses import fields
from pathlib import Path

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
