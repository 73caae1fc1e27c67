"""Command line behavior: outputs, manifests, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import coltrans
from coltrans import TransportParams, robin_eigenpair
from coltrans import cli
from coltrans.cli import main
from coltrans.config import load_config
from coltrans.exitflux import exit_curve_defect, resolve_exit
from reference import danckwerts_pair

BASE_INI = """\
[params]
D = 0.1
v = 1.0
ell = 1.0

[grid]
t_end = 1.5
nx = 21
nt = 17

[g]
kind = constant
value = 1.0

[exit]
kind = computed
n_grid = 64

[policy]
n_max = 40
tail_tol = 1e-8
"""


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return lines[0], rows


# -- solve --------------------------------------------------------------------

def test_solve_outputs_and_manifest(tmp_path):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "res"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet"]) == 0

    header, rows = read_rows(out / "profile.csv")
    assert header == "t,x,C"
    assert len(rows) == 17 * 21

    header, bt = read_rows(out / "breakthrough.csv")
    assert header == "t,C_exit,C_flux_exit"
    assert len(bt) == 17
    assert bt[0][0] == 0.0 and bt[-1][0] == 1.5

    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve"
    assert man["version"] == coltrans.__version__
    assert man["config"] == BASE_INI
    assert man["params"] == {"R": 1.0, "D": 0.1, "v": 1.0, "mu": 0.0,
                             "gamma": 0.0, "ell": 1.0}
    assert man["grid"] == {"t0": 0.0, "t_end": 1.5, "nx": 21, "nt": 17}
    assert man["exit_n_grid"] == 64
    assert man["policy"]["n_max"] == 40
    assert man["series"]["kind"] == "robin"
    assert man["series"]["exit_computed"] is True
    assert 0 < man["series"]["n_used"] <= 40
    assert man["outputs"] == ["breakthrough.csv", "manifest.json",
                              "profile.csv"]


def test_solve_is_deterministic(tmp_path):
    ini = write_ini(tmp_path, BASE_INI)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", ini, "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    for fname in ("profile.csv", "breakthrough.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_flag_overrides_reach_manifest(tmp_path):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "res"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet",
                 "--nx", "7", "--nt", "5", "--modes", "12",
                 "--tail-tol", "1e-6"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["grid"]["nx"] == 7 and man["grid"]["nt"] == 5
    assert man["policy"]["n_max"] == 12
    assert man["policy"]["tail_tol"] == 1e-6
    _, rows = read_rows(out / "profile.csv")
    assert len(rows) == 7 * 5


def test_solve_reports_progress(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "res"
    assert main(["solve", "--config", ini, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kept modes" in text and "manifest.json" in text
    assert main(["solve", "--config", ini, "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# -- verify -------------------------------------------------------------------

VERIFY_INI = BASE_INI + """
[verify]
fd_nx = 61
fd_nt = 60
n_times = 9
"""


def test_verify_writes_summary(tmp_path):
    ini = write_ini(tmp_path, VERIFY_INI)
    out = tmp_path / "res"
    assert main(["verify", "--config", ini, "--out", str(out), "--quiet"]) == 0
    text = (out / "verify_summary.txt").read_text()
    lines = text.splitlines()
    verdicts = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    infos = [ln for ln in lines if ln.startswith("info")]
    assert len(verdicts) == 4
    assert len(infos) == 2
    assert any("refinement order" in ln for ln in infos)
    header, rows = read_rows(out / "balance.csv")
    assert header == "t,residual,relative"
    assert len(rows) == 9


def test_verify_failures_still_exit_zero(tmp_path):
    ini = write_ini(tmp_path, VERIFY_INI)
    out = tmp_path / "res"
    assert main(["verify", "--config", ini, "--out", str(out), "--quiet",
                 "--modes", "2"]) == 0
    text = (out / "verify_summary.txt").read_text()
    assert "FAIL" in text


def test_verify_drops_the_oracle_before_the_series(tmp_path, monkeypatch):
    """The CN history and the refinement ladder are done with, and the
    history gone, when the series is built: the two are never live at once."""
    real_fd_solve, real_order, real_build = (
        cli.fd_solve, cli.fd_convergence_order, cli.build_solution)
    oracle, ladder, built = [], [], []

    def fd_solve(*args, **kwargs):
        result = real_fd_solve(*args, **kwargs)
        oracle.append(weakref.ref(result))
        return result

    def fd_convergence_order(*args, **kwargs):
        ladder.append(True)
        return real_order(*args, **kwargs)

    def build_solution(*args, **kwargs):
        assert len(oracle) == 1 and oracle[0]() is None
        assert ladder == [True]
        built.append(True)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(cli, "fd_solve", fd_solve)
    monkeypatch.setattr(cli, "fd_convergence_order", fd_convergence_order)
    monkeypatch.setattr(cli, "build_solution", build_solution)
    ini = write_ini(tmp_path, VERIFY_INI)
    assert main(["verify", "--config", ini, "--out", str(tmp_path / "res"), "--quiet"]) == 0
    assert len(oracle) == 1 and built == [True]


# -- compare-danckwerts -------------------------------------------------------

def test_compare_outputs(tmp_path):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "res"
    assert main(["compare-danckwerts", "--config", ini, "--out", str(out),
                 "--quiet"]) == 0

    header, rows = read_rows(out / "exit_comparison.csv")
    assert header == "t,C_exit,C_exit_danckwerts,C_flux_exit,exit_gap"
    assert len(rows) == 17
    for t, cr, cd, ce, gap in rows:
        assert gap == pytest.approx(abs(cr - cd), rel=1e-12, abs=1e-15)

    header, eig = read_rows(out / "eigenvalues.csv")
    assert header == "n,lambda,lambda_danckwerts"
    n0 = eig[0]
    assert n0[0] == 0.0
    assert n0[1] == pytest.approx(-25.0)      # -r^2 with r = v/(2D) = 5
    assert 0.0 < n0[2] < np.pi ** 2          # slow root lambda_D0, ell = 1
    for n, lam, lam_d in eig[1:]:
        assert lam == pytest.approx((n * np.pi) ** 2, rel=1e-12)
        assert (n * np.pi) ** 2 < lam_d < ((n + 1) * np.pi) ** 2


def test_eigenvalues_are_the_solutions_own(tmp_path):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "res"
    assert main(["compare-danckwerts", "--config", ini, "--out", str(out),
                 "--quiet"]) == 0
    _, eig = read_rows(out / "eigenvalues.csv")
    p = TransportParams(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.0, ell=1.0)
    assert len(eig) == 41
    for n, lam, lam_d in eig:
        assert lam == robin_eigenpair(int(n), p).lam
        assert lam_d == danckwerts_pair(int(n), p).lam


# -- chain --------------------------------------------------------------------

CHAIN_INI = BASE_INI + """
[chain]
lengths = 1.0
"""


def test_nt_sets_the_rows_of_compare_and_chain(tmp_path):
    ini = write_ini(tmp_path, CHAIN_INI.replace("lengths = 1.0", "lengths = 0.5 0.5"))
    cmp, ch = tmp_path / "cmp", tmp_path / "ch"
    for command, out in (("compare-danckwerts", cmp), ("chain", ch)):
        assert main([command, "--config", ini, "--out", str(out), "--quiet",
                     "--nt", "7"]) == 0
    for csv in (cmp / "exit_comparison.csv", ch / "segment_1" / "breakthrough.csv",
                ch / "segment_2" / "breakthrough.csv", ch / "breakthrough.csv"):
        assert len(read_rows(csv)[1]) == 7


def test_single_segment_chain_matches_solve(tmp_path):
    ini = write_ini(tmp_path, CHAIN_INI)
    sv = tmp_path / "sv"
    ch = tmp_path / "ch"
    assert main(["solve", "--config", ini, "--out", str(sv), "--quiet"]) == 0
    assert main(["chain", "--config", ini, "--out", str(ch), "--quiet"]) == 0
    solo = (sv / "breakthrough.csv").read_bytes()
    assert (ch / "segment_1" / "breakthrough.csv").read_bytes() == solo
    assert (ch / "breakthrough.csv").read_bytes() == solo
    report = (ch / "chain_report.txt").read_text()
    assert "segments = 1" in report
    assert "defect" in report


def test_two_segment_chain_runs(tmp_path):
    ini = write_ini(tmp_path, CHAIN_INI.replace("lengths = 1.0",
                                                "lengths = 0.5 0.5"))
    out = tmp_path / "res"
    assert main(["chain", "--config", ini, "--out", str(out), "--quiet"]) == 0
    for seg in ("segment_1", "segment_2"):
        assert (out / seg / "breakthrough.csv").exists()
    _, rows = read_rows(out / "breakthrough.csv")
    assert len(rows) == 17
    assert all(np.isfinite(c) for row in rows for c in row)


def test_exit_n_grid_grids_every_chain_segment(tmp_path):
    """[exit] n_grid used to be ignored by chain, which read its own [chain] n_grid."""
    two = CHAIN_INI.replace("lengths = 1.0", "lengths = 0.5 0.5")
    outs = {}
    for n in (16, 64):
        ini = write_ini(tmp_path, two.replace("n_grid = 64", f"n_grid = {n}"),
                        f"run{n}.ini")
        outs[n] = tmp_path / f"res{n}"
        assert main(["chain", "--config", ini, "--out", str(outs[n]),
                     "--quiet"]) == 0
    for seg in ("segment_1", "segment_2"):
        coarse = (outs[16] / seg / "breakthrough.csv").read_bytes()
        assert coarse != (outs[64] / seg / "breakthrough.csv").read_bytes()


def test_chain_report_defects_are_exitflux_defects(tmp_path):
    """Each segment's reported defect is `exit_curve_defect` of its resolved data."""
    ini = write_ini(tmp_path, CHAIN_INI.replace("lengths = 1.0", "lengths = 0.5 0.3 0.5"))
    out = tmp_path / "res"
    assert main(["chain", "--config", ini, "--out", str(out), "--quiet"]) == 0
    lines = (out / "chain_report.txt").read_text().splitlines()[:-1]
    reported = [float(line.rsplit("defect = ", 1)[1]) for line in lines]
    cfg = load_config(ini)
    want, g_in = [], cfg.data.g
    for L in cfg.chain.lengths:
        params = dataclasses.replace(cfg.data.params, ell=L)
        data = resolve_exit(dataclasses.replace(cfg.data, params=params, g=g_in),
                            cfg.t_end, n_grid=cfg.exit_n_grid)
        want.append(exit_curve_defect(data))
        g_in = data.exit
    assert reported == want and len(want) == 3 and all(d > 0.0 for d in want)


def test_chain_needs_its_section(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "o"
    assert main(["chain", "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert "chain" in capsys.readouterr().err
    assert not out.exists()


MEASURED_INI = BASE_INI.replace(
    "[exit]\nkind = computed\nn_grid = 64\n",
    "[exit]\nkind = gaussian\nlevel = 0.4\ncenter = 1.0\nwidth = 0.4\n")


def test_chain_refuses_a_measured_exit(tmp_path, capsys):
    """Each segment's exit is computed; a measured one used to be dropped silently."""
    ini = write_ini(tmp_path, MEASURED_INI + "\n[chain]\nlengths = 0.7 0.7\n")
    out = tmp_path / "o"
    assert main(["chain", "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: the chain command ")
    assert not out.exists()


# -- failure modes ------------------------------------------------------------

def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1


# each of these used to be accepted and then ignored
@pytest.mark.parametrize("command, flag", [("verify", "--nx"), ("verify", "--nt"),
                                           ("compare-danckwerts", "--nx"),
                                           ("chain", "--nx")])
def test_a_flag_the_command_does_not_read_exits_one_and_writes_nothing(
        tmp_path, capsys, command, flag):
    ini = write_ini(tmp_path, CHAIN_INI)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", ini, "--out", str(out), "--quiet", flag, "7"])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# prefixes of a flag used to run as the flag: --n as --nt where --nx is absent
@pytest.mark.parametrize("command, flags", [("compare-danckwerts", "--n 7"),
                                            ("chain", "--n 7"),
                                            ("solve", "--mod 12 --tail 1e-6"),
                                            ("verify", "--quie")])
def test_a_prefix_of_a_flag_exits_one_and_writes_nothing(tmp_path, capsys, command, flags):
    ini = write_ini(tmp_path, CHAIN_INI)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", ini, "--out", str(out), *flags.split()])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flags}" in capsys.readouterr().err
    assert not out.exists()


def test_config_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["solve", "--config", missing, "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err

    bad_sec = write_ini(tmp_path, BASE_INI + "\n[wrong]\nx = 1\n", "s.ini")
    assert main(["solve", "--config", bad_sec, "--quiet"]) == 2

    bad_par = write_ini(tmp_path, BASE_INI.replace("D = 0.1", "D = -1.0"),
                        "p.ini")
    assert main(["solve", "--config", bad_par, "--quiet"]) == 2

    no_tend = write_ini(tmp_path, BASE_INI.replace("t_end = 1.5", ""),
                        "t.ini")
    assert main(["solve", "--config", no_tend, "--quiet"]) == 2
    out = tmp_path / "o"
    bad_flag = write_ini(tmp_path, BASE_INI, "f.ini")
    assert main(["solve", "--config", bad_flag, "--out", str(out),
                 "--nx", "1", "--quiet"]) == 2


# each of these used to exit 0 with a PASS or FAIL line, exit 1 with a
# numpy traceback, or exit 3 as a numeric failure
@pytest.mark.parametrize("line", ["n_times = 0", "n_times = -1", "fd_nx = 3",
                                  "fd_nt = 0", "fd_nt = 3", "balance_tol = -1",
                                  "compare_tol = 0"])
def test_out_of_range_verify_options_exit_two(tmp_path, capsys, line):
    ini = write_ini(tmp_path, BASE_INI + f"\n[verify]\n{line}\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", ini, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [verify]: ")
    assert "Traceback" not in err
    assert not out.exists()


def with_lines(text, section, lines):
    """text with `lines` added to [section], which is made when missing."""
    head = f"[{section}]\n"
    if head in text:
        return text.replace(head, head + lines + "\n")
    return text + "\n" + head + lines + "\n"


# (section, its lines, the key that no one reads): each of these used to
# run on the defaults, the typo or stray key silently ignored
UNKNOWN_KEYS = [
    ("params", "vel = 2.0", "vel"),
    ("grid", "n_x = 5", "n_x"),
    ("phi", "kind = constant\nlevel = 1.0", "level"),
    ("g", "start = 0.1", "start"),          # [g] is constant here
    ("exit", "value = 0.5", "value"),       # a computed exit reads no curve
    ("policy", "nmax = 10", "nmax"),
    ("verify", "ntimes = 0", "ntimes"),
    ("chain", "lengths = 1.0\ngrid = 64", "grid"),
    ("chain", "lengths = 1.0\nn_grid = 64", "n_grid"),   # [exit] n_grid serves chain
    ("output", "directory = res", "directory"),
]


@pytest.mark.parametrize("section, lines, key", UNKNOWN_KEYS)
def test_unknown_keys_exit_two_and_write_nothing(tmp_path, capsys, section,
                                                 lines, key):
    ini = write_ini(tmp_path, with_lines(BASE_INI, section, lines))
    out = tmp_path / "o"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: [{section}] unknown key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "compare-danckwerts"])
def test_measured_exit_with_n_grid_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                 command):
    """n_grid grids a computed exit; with a measured one it used to load and do nothing."""
    ini = write_ini(tmp_path, with_lines(MEASURED_INI, "exit", "n_grid = 9"))
    out = tmp_path / "o"
    assert main([command, "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: [exit] n_grid ")
    assert not out.exists()


# (run file, the start of what the message says after "config error: "):
# load-time defects that no other test reaches
CONFIG_DEFECTS = {
    "unparsable number": (BASE_INI.replace("D = 0.1", "D = abc"),
                          "[params] D: cannot parse 'abc'"),
    "unparsable lengths": (with_lines(BASE_INI, "chain", "lengths = a"),
                           "expected numbers, got 'a'"),
    "polynomial without coeffs": (
        BASE_INI.replace("kind = constant\nvalue = 1.0", "kind = polynomial\ncoeffs ="),
        "[g] polynomial needs coeffs"),
    "unknown function kind": (BASE_INI.replace("kind = constant", "kind = spline"),
                              "[g] unknown kind 'spline'"),
    "t_end not above t0": (BASE_INI.replace("[grid]\n", "[grid]\nt0 = 1.5\n"),
                           "[grid] t_end must be finite and exceed t0"),
    "exit grid below 8": (BASE_INI.replace("n_grid = 64", "n_grid = 7"),
                          "[exit] n_grid must be at least 8"),
    "zero length": (with_lines(BASE_INI, "chain", "lengths = 0"),
                    "[chain]: lengths must be positive"),
    "no section header": ("D = 0.1\n" + BASE_INI, "cannot read "),
    "gaussian of zero width": (
        BASE_INI.replace("kind = constant\nvalue = 1.0",
                         "kind = gaussian\ncenter = 0.5\nwidth = 0"),
        "[g]: gaussian width must be positive"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_DEFECTS))
def test_config_defects_exit_two_and_write_nothing(tmp_path, capsys, case):
    text, message = CONFIG_DEFECTS[case]
    ini = write_ini(tmp_path, text)
    out = tmp_path / "o"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message)
    assert not out.exists()


# `args.x or cfg.x` used to drop a 0 and run on the file's value; a nan
# tail tolerance passed the policy's check
@pytest.mark.parametrize("flags", [["--modes", "0"], ["--nx", "0"], ["--nt", "0"],
                                   ["--modes", "0", "--nx", "0"],
                                   ["--tail-tol", "0"], ["--tail-tol", "nan"]])
def test_out_of_range_flags_exit_two_and_write_nothing(tmp_path, capsys, flags):
    ini = write_ini(tmp_path, BASE_INI)
    out = tmp_path / "o"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet",
                 *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


# (run file, the start of what the message says after "numeric failure: ")
NUMERIC_FAILURES = {
    "fast column": (BASE_INI.replace("v = 1.0", "v = 60.0"), "exp(s (t_end - t0)) overflows"),
    "data near the double range": (BASE_INI.replace("value = 1.0", "value = 1e300"),
                                   "base-square integral left the double range"),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_FAILURES))
def test_numeric_failures_exit_three(tmp_path, capsys, case):
    text, message = NUMERIC_FAILURES[case]
    ini = write_ini(tmp_path, text)
    with np.errstate(all="ignore"):
        rc = main(["solve", "--config", ini, "--out", str(tmp_path / "o"),
                   "--quiet"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric failure: " + message)


# (run file, the start of its one stderr line): overflows told without numpy warnings
OVERFLOWING_RUNS = {
    "computed exit at r ell = 750": (
        BASE_INI.replace("D = 0.1", "D = 1e-3").replace("ell = 1.0", "ell = 1.5"),
        "exp(750) overflows: r ell = v ell / (2 D) = 750 "),
    "measured exit at r ell = 375": (
        BASE_INI.replace("D = 0.1", "D = 2e-3").replace("ell = 1.0", "ell = 1.5")
        .replace("kind = computed\nn_grid = 64", "kind = constant\nvalue = 0.0"),
        "exp(750) overflows: r ell = v ell / (2 D) = 375 "),
    "data near the double range": (BASE_INI.replace("value = 1.0", "value = 1e300"),
                                   "base-square integral left the double range"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_RUNS))
def test_overflowing_runs_print_one_line(tmp_path, case):
    """In a fresh interpreter, as a user runs it: exit 3 and one line of stderr."""
    text, message = OVERFLOWING_RUNS[case]
    ini = write_ini(tmp_path, text)
    src = str(Path(coltrans.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "coltrans", "solve", "--config", ini,
                          "--out", str(tmp_path / "o"), "--quiet"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert out.returncode == 3
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: " + message), lines


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


# mu = 345 makes s (t_end - t0) = 695: the march stays in range, e^{2 s t} does not
TAIL_PAST_RANGE_INI = BASE_INI.replace("ell = 1.0", "mu = 345\nell = 1.0").replace(
    "t_end = 1.5", "t_end = 2")


def test_tail_bound_past_the_double_range_is_written_as_null(tmp_path):
    """In a fresh interpreter: exit 0, no warning, and a manifest that strict
    JSON reads, its reported tail null and the note saying inf."""
    ini = write_ini(tmp_path, TAIL_PAST_RANGE_INI)
    src = str(Path(coltrans.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "coltrans", "solve", "--config", ini,
                          "--out", str(tmp_path / "o"), "--quiet"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    series = _strict_json((tmp_path / "o" / "manifest.json").read_text())["series"]
    assert series["reported_tail"] is None
    assert series["notes"] == ["tail target 1e-08 unreachable at n_max = 40; "
                               "achieved inf"]


def test_unforced_tail_past_the_double_range_is_written_as_a_number(tmp_path):
    """The same run unforced (phi = 1, g = C_E = 0): e^{2 s t} overflows but
    multiplies no forcing, so the manifest holds a finite tail and 8 modes."""
    text = (TAIL_PAST_RANGE_INI.replace("value = 1.0", "value = 0.0")
            .replace("kind = computed\nn_grid = 64", "kind = constant\nvalue = 0.0")
            + "\n[phi]\nkind = constant\nvalue = 1.0\n")
    ini = write_ini(tmp_path, text)
    src = str(Path(coltrans.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "coltrans", "solve", "--config", ini,
                          "--out", str(tmp_path / "o"), "--quiet"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    series = _strict_json((tmp_path / "o" / "manifest.json").read_text())["series"]
    assert series["n_used"] == 8 and series["notes"] == []
    assert 0.0 < series["reported_tail"] <= 1e-8


def test_non_finite_manifest_value_exits_three(tmp_path, capsys, monkeypatch):
    """A value that is not finite, and not the overflowed tail bound, ends
    the run with one error line in place of a manifest strict JSON refuses."""
    from coltrans import series
    monkeypatch.setattr(series, "_tail_bound_core", lambda *args: float("nan"))
    ini = write_ini(tmp_path, BASE_INI)
    rc = main(["solve", "--config", ini, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric failure: manifest.json: ")
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_out_below_a_regular_file_exits_two(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    (tmp_path / "plain").write_text("")
    out = tmp_path / "plain" / "o"
    assert main(["solve", "--config", ini, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot create {out}: ")


README_INI = """\
[params]
R = 1.0
D = 0.1
v = 1.0
mu = 0.0
gamma = 0.0
ell = 1.0

[grid]
t0 = 0.0
t_end = 2.0
nx = 101
nt = 81

[phi]
kind = constant
value = 0.0

[g]
kind = pulse
start = 0.1
stop = 0.6
level = 1.0

[exit]
kind = computed
n_grid = 512
"""

LOADED_INI = """\
[params]
R = 1.2
D = 0.6
v = 1.1
mu = 0.4
gamma = 0.3
ell = 1.4

[grid]
t0 = 0.0
t_end = 2.5

[phi]
kind = polynomial
coeffs = 0.0, 0.0, 2.0384, -2.912, 1.04

[g]
kind = pulse
start = 0.1
stop = 0.9
level = 1.0
ramp = 0.15

[exit]
kind = gaussian
level = 0.4
center = 1.6
width = 0.4
"""


def shifted(text, delta):
    """The run file with t0, t_end, the pulse edges and the exit centre moved by delta."""
    lines = []
    for line in text.splitlines():
        key, eq, value = line.partition(" = ")
        if eq and key in ("t0", "t_end", "start", "stop", "center"):
            line = f"{key} = {float(value) + delta!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _verdicts(path):
    """(verdict, label, value) of each PASS/FAIL line of verify_summary.txt."""
    out = []
    for line in path.read_text().splitlines():
        verdict, _, rest = line.partition("  ")
        if verdict in ("PASS", "FAIL"):
            label, _, value = rest.partition(": ")
            out.append((verdict, label, float(value.split()[0])))
    return out


_SHIFT_CSVS = {"solve": ["profile.csv", "breakthrough.csv"], "verify": ["balance.csv"],
               "compare-danckwerts": ["exit_comparison.csv"],
               "chain": ["segment_1/breakthrough.csv", "segment_2/breakthrough.csv",
                         "breakthrough.csv"]}


@pytest.mark.parametrize("command", sorted(_SHIFT_CSVS))
def test_shifting_t0_and_the_data_shifts_only_the_output_times(tmp_path, command):
    """The README run moved 300 later writes the same concentrations, at
    times 300 later, and verify gives the same verdicts."""
    chain = "\n[chain]\nlengths = 0.5 0.5\n" if command == "chain" else ""
    flags = ["--modes", "40", "--quiet"] + ([] if command == "verify" else ["--nt", "9"])
    outs = []
    for delta in (0.0, 300.0):
        ini = write_ini(tmp_path, shifted(README_INI, delta) + chain, f"run{delta:g}.ini")
        outs.append(tmp_path / f"o{delta:g}")
        assert main([command, "--config", ini, "--out", str(outs[-1])] + flags) == 0
    for name in _SHIFT_CSVS[command]:
        (h0, rows0), (h1, rows1) = (read_rows(out / name) for out in outs)
        rows0, rows1 = np.array(rows0), np.array(rows1)
        assert h0 == h1 and rows0.shape == rows1.shape
        assert np.max(np.abs(rows1[:, 0] - (rows0[:, 0] + 300.0))) <= 1e-12
        values = slice(2, None) if name == "profile.csv" else slice(1, None)
        assert np.max(np.abs(rows1[:, values] - rows0[:, values])) <= 1e-9
    if command == "compare-danckwerts":
        assert ((outs[0] / "eigenvalues.csv").read_bytes()
                == (outs[1] / "eigenvalues.csv").read_bytes())
    if command == "verify":
        (v0, v1) = (_verdicts(out / "verify_summary.txt") for out in outs)
        assert len(v0) == 4 and [v[:2] for v in v0] == [v[:2] for v in v1]
        assert all(abs(a[2] - b[2]) <= 1e-9 for a, b in zip(v0, v1))


def test_loaded_run_a_hundred_earlier_keeps_every_mode(tmp_path):
    """Its tail bound does not depend on t0, so n_max decides, as at t0 = 0."""
    ini = write_ini(tmp_path, shifted(LOADED_INI, -100.0))
    assert main(["solve", "--config", ini, "--out", str(tmp_path / "o"), "--quiet",
                 "--nx", "3", "--nt", "3"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["grid"]["t0"] == -100.0 and manifest["series"]["n_used"] == 200


_LOADED_MODULES = """\
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def modules_after(tmp_path_factory):
    """action -> the modules a fresh interpreter holds after it: the import
    of `coltrans.cli`, or that and a command on the README run file (for
    `chain`, split into two segments).  Each action runs once per module."""
    tmp = tmp_path_factory.mktemp("fresh")
    readme = write_ini(tmp, README_INI)
    chain = write_ini(tmp, README_INI + "\n[chain]\nlengths = 0.5 0.5\n", "chain.ini")
    src = str(Path(coltrans.__file__).resolve().parents[1])
    seen = {}

    def after(action):
        if action not in seen:
            lines = ["from coltrans import cli"]
            if action != "import":
                argv = [action, "--config", chain if action == "chain" else readme,
                        "--out", str(tmp / action), "--quiet"]
                lines.append(f"assert cli.main({argv!r}) == 0")
            code = _LOADED_MODULES.format(body="\n".join(lines))
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONPATH=src))
            seen[action] = json.loads(out.stdout.splitlines()[-1])
        return seen[action]

    return after


# scipy: numpy is the only runtime dependency.  numpy.ma: np.unique imports
# it on its first call, about 20 ms of a solve.  numpy.polynomial: nine
# modules and about 1 MiB of peak memory, for two quadrature rules and a
# Horner sum.
@pytest.mark.parametrize("action", ["import", "solve", "verify",
                                    "compare-danckwerts", "chain"])
@pytest.mark.parametrize("prefix", ["scipy", "numpy.ma", "numpy.polynomial"])
def test_a_fresh_run_loads_no_module_it_does_not_need(modules_after, prefix, action):
    parts = prefix.split(".")
    assert [m for m in modules_after(action) if m.split(".")[:len(parts)] == parts] == []


# -- CSV writer ---------------------------------------------------------------

def per_cell_csv(path, header, rows):
    """The writer the block writer replaced: one f-string per cell."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(c):.17g}" for c in row) + "\n")


def _csv_cases():
    """case -> the columns of a table."""
    rng = np.random.default_rng(7)
    lam = np.cumsum(rng.uniform(0.5, 9.0, 9))
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2e-308,
            1e300, 0.1, 1.0 / 3.0, 12345678901234567.0, 2 ** 53 + 1, -7]
    edge_rows = [tuple(edge[i:i + 3]) for i in range(len(edge) - 2)]
    edge_rows.append((np.float64(-0.0), np.float32(0.1), np.int64(-3)))
    # 2,501 rows: two full blocks of the default size and a part
    ts, xs = np.linspace(0.0, 2.0, 41), np.linspace(0.0, 1.0, 61)
    scale = 10.0 ** rng.integers(-20, 20, (ts.size, xs.size))
    grid = rng.standard_normal((ts.size, xs.size)) * scale
    return {
        "edge-values": list(zip(*edge_rows)),
        "eigenvalues": (np.arange(lam.size), lam, lam * 1.01),
        "no-rows": ([], [], []),
        "profile-rows": (np.repeat(ts, xs.size), np.tile(xs, ts.size), grid.ravel()),
    }


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("case", sorted(_csv_cases()))
def test_csv_writer_matches_the_per_cell_writer(tmp_path, monkeypatch, case, block):
    """A table's bytes equal the per-cell writer's, whatever the block size."""
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_ROWS", block)
    columns = _csv_cases()[case]
    cli._write_csv(tmp_path / "new.csv", "a,b,c", *cli._table(*columns))
    per_cell_csv(tmp_path / "old.csv", "a,b,c", zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _grid_cases():
    rng = np.random.default_rng(11)
    ts, xs = np.linspace(0.0, 2.0, 41), np.linspace(0.0, 1.0, 61)
    grid = rng.standard_normal((ts.size, xs.size)) * 10.0 ** rng.integers(-20, 20, (41, 61))
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0])
    return {
        "random": (ts, xs, grid),
        "edge-values": (edge[:3], edge, np.array([np.roll(edge, k) for k in range(3)])),
        "one-x": (ts, np.array([-0.0]), grid[:, :1]),
        "one-t": (np.array([5e-324]), xs, grid[:1]),
        "one-cell": (np.array([1e300]), np.array([-0.0]), np.array([[-0.0]])),
    }


@pytest.mark.parametrize("block", [None, 1, 7, 1 << 20])
@pytest.mark.parametrize("case", sorted(_grid_cases()))
def test_grid_writer_matches_the_row_writer(tmp_path, monkeypatch, case, block):
    """profile.csv's lines (t, x, C) of a (t, x) grid are the per-cell writer's bytes."""
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_ROWS", block)
    ts, xs, grid = _grid_cases()[case]
    cli._write_csv(tmp_path / "grid.csv", "t,x,C", *cli._grid(ts, xs), grid)
    rows = ((t, x, c) for t, row in zip(ts, grid) for x, c in zip(xs, row))
    per_cell_csv(tmp_path / "rows.csv", "t,x,C", rows)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("command", ["solve", "verify", "compare-danckwerts", "chain"])
def test_every_csv_goes_through_the_one_writer(tmp_path, monkeypatch, command):
    """Each CSV a command writes is written by `cli._write_csv`, the layer
    the benchmark's tracer times as cli.write."""
    written = []
    write = cli._write_csv

    def traced(path, *args):
        written.append(Path(path).relative_to(out).as_posix())
        return write(path, *args)

    monkeypatch.setattr(cli, "_write_csv", traced)
    ini = write_ini(tmp_path, VERIFY_INI + "\n[chain]\nlengths = 0.5 0.5\n")
    out = tmp_path / "res"
    assert main([command, "--config", ini, "--out", str(out), "--quiet"]) == 0
    csvs = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))
    assert csvs and sorted(written) == csvs
