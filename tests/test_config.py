"""Run-file loading: defaults for omitted sections, explicit overrides."""

from coltrans import TruncationPolicy
from coltrans.config import VerifyOptions, load_config

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
