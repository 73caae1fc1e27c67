"""Acceptance criteria: one test per contract line, stated tolerances."""

import json
import time

import numpy as np
import pytest
from scipy.special import erfc

from coltrans import (
    DANCKWERTS,
    FdGrid,
    SmoothFn,
    TransportParams,
    TruncationPolicy,
    build_solution,
    danckwerts_error,
    eval_C,
    eval_C_x,
    exit_concentration,
    fd_convergence_order,
    fd_solve,
    inner_product,
    mass_balance,
    resolve_exit,
    robin_eigenpair,
    spectrum,
    tail_bound,
)
from coltrans.cli import main
from coltrans.eigensystem import _danckwerts_residual
from coltrans.exitflux import HalfLineProblem
from conftest import half_wave_points, make_data
from reference import eval_phi

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


def test_criterion_1_eigensystem_residuals_orthogonality_norms():
    started = time.monotonic()
    p = TransportParams(R=1.0, D=0.5, v=1.0, mu=0.0, gamma=0.0, ell=1.0)
    r, ell = p.r, p.ell
    pairs = [robin_eigenpair(n, p) for n in range(26)]

    for pair in pairs:
        v0, d0 = eval_phi(pair, 0.0, r)
        ve, de = eval_phi(pair, ell, r)
        assert abs(d0 - r * v0) <= 1e-10
        assert abs(de - r * ve) <= 1e-10

    assert pairs[0].norm == pytest.approx(
        (np.exp(2.0 * r * ell) - 1.0) / (2.0 * r), rel=1e-10)
    for n in range(1, 26):
        lam = pairs[n].lam
        assert pairs[n].norm == pytest.approx(
            (r * r + lam) * ell / (2.0 * lam), rel=1e-10)

    def fn(pair):
        return lambda x: eval_phi(pair, x, r)[0]

    for i in range(26):
        for j in range(i + 1, 26):
            cuts = sorted(set(half_wave_points(pairs[i], p))
                          | set(half_wave_points(pairs[j], p)))
            got = inner_product(fn(pairs[i]), fn(pairs[j]), 0.0, ell,
                                points=cuts)
            norm = np.sqrt(pairs[i].norm * pairs[j].norm)
            assert abs(got) / norm <= 1e-8

    assert time.monotonic() - started < 5.0


def test_criterion_2_danckwerts_roots_bracketed_and_asymptotic():
    started = time.monotonic()
    failures = []
    for r in (0.5, 1.0, 5.0):
        for ell in (1.0, 2.0):
            p = TransportParams(R=1.0, D=1.0 / (2.0 * r), v=1.0, mu=0.0,
                                gamma=0.0, ell=ell)
            for n in range(1, 21):
                lam = spectrum(DANCKWERTS, n, p)[0]
                assert (n * np.pi / ell) ** 2 < lam < ((n + 1) * np.pi / ell) ** 2
                kappa = np.sqrt(lam)
                scale = kappa * kappa + r * r + 2.0 * r * kappa
                assert abs(_danckwerts_residual(kappa, r, ell)) <= 1e-9 * scale
            ratio = spectrum(DANCKWERTS, 20, p)[0] * ell ** 2 / (20 ** 2 * np.pi ** 2)
            # the tangent equation's roots obey ratio = 1 + 4a/N^2
            # - (4a^2 + 4a^3/3)/N^4 + O(N^-6) with a = r ell, N = n pi
            a, N = r * ell, 20 * np.pi
            upper = 4.0 * a / N ** 2
            lower = upper - (4.0 * a ** 2 + 4.0 * a ** 3 / 3.0) / N ** 4
            if not lower <= ratio - 1.0 <= upper:
                failures.append((r, ell, ratio, lower, upper))
    assert time.monotonic() - started < 10.0
    assert not failures, (
        "asymptotic ratio leaves the two-term window at n = 20 for "
        + ", ".join(f"(r={r}, ell={ell}): ratio - 1 = {q - 1.0:.6g} "
                    f"not in [{lo:.6g}, {hi:.6g}]"
                    for r, ell, q, lo, hi in failures))


def test_criterion_3_zero_data_and_equilibrium_limits(equilibrium_data):
    started = time.monotonic()

    zero = make_data(exit=SmoothFn.constant(0.0))
    pol = TruncationPolicy(n_max=80, tail_tol=1e-8)
    sol0 = build_solution(zero, pol, 2.0)
    xs = np.linspace(0.0, 1.0, 33)
    assert max(np.max(np.abs(eval_C(sol0, xs, t))) for t in (0.3, 1.0, 2.0)) == 0.0
    fd0 = fd_solve(zero, 2.0, FdGrid(nx=81, nt=80))
    assert np.max(np.abs(fd0.C)) == 0.0
    hp0 = HalfLineProblem.from_data(make_data())
    assert max(abs(exit_concentration(hp0, t)) for t in (0.5, 1.5)) <= 1e-6

    eq = equilibrium_data
    sole = build_solution(eq, TruncationPolicy(n_max=160, tail_tol=1e-8), 3.0)
    xe = np.linspace(0.0, eq.params.ell, 33)
    gm = eq.params.gamma / eq.params.mu
    assert max(np.max(np.abs(eval_C(sole, xe, t) - gm))
               for t in (0.5, 1.5, 3.0)) <= 1e-6
    fde = fd_solve(eq, 2.0, FdGrid(nx=101, nt=100))
    assert np.max(np.abs(fde.C - gm)) <= 1e-6
    hpe = HalfLineProblem.from_data(eq)
    assert max(abs(exit_concentration(hpe, t) - gm) for t in (0.5, 2.0)) <= 1e-6

    assert time.monotonic() - started < 30.0


def test_criterion_4_smoke_series_vs_oracle(smoke_data, smoke_solution):
    started = time.monotonic()
    fd = fd_solve(smoke_data, 2.0, FdGrid(nx=101, nt=400))
    levels = range(0, fd.t.size, 4)          # 101 time levels, 101 nodes
    num = 0.0
    den = 0.0
    for k in levels:
        diff = eval_C(smoke_solution, fd.x, fd.t[k]) - fd.C[k]
        num += float(np.sum(diff * diff))
        den += float(np.sum(fd.C[k] * fd.C[k]))
    rel = np.sqrt(num / den)
    assert rel <= 1e-3

    p = smoke_data.params
    hp = HalfLineProblem.from_data(smoke_data)
    worst = 0.0
    for t in np.linspace(0.1, 2.0, 20):
        sq = 2.0 * np.sqrt(p.D * t / p.R)
        pair = 0.5 * (erfc((p.ell - p.v * t / p.R) / sq)
                      + np.exp(p.v * p.ell / p.D)
                      * erfc((p.ell + p.v * t / p.R) / sq))
        worst = max(worst, abs(exit_concentration(hp, float(t)) - float(pair)))
    assert worst <= 1e-6

    assert time.monotonic() - started < 120.0


def test_criterion_5_balance_and_boundary_identities(smoke_data, smoke_solution):
    rep = mass_balance(lambda xs, t: eval_C(smoke_solution, xs, t),
                       smoke_data, 2.0)
    span = rep.times[-1] - rep.times[0]
    integrated = np.trapezoid(np.abs(rep.residual), rep.times) / (rep.scale * span)
    assert integrated <= 1e-4
    assert rep.max_rel <= 1e-4

    p = smoke_data.params
    cE = smoke_data.require_exit()
    for t in (0.4, 1.1, 1.9):
        c0 = eval_C(smoke_solution, np.array([0.0]), t)[0]
        cx0 = eval_C_x(smoke_solution, np.array([0.0]), t)[0]
        ce = eval_C(smoke_solution, np.array([p.ell]), t)[0]
        cxe = eval_C_x(smoke_solution, np.array([p.ell]), t)[0]
        scale = p.v * (1.0 + abs(c0) + abs(ce))
        assert abs(p.v * c0 - p.D * cx0 - p.v * smoke_data.g.eval(t)) <= 1e-9 * scale
        assert abs(p.v * ce - p.D * cxe - p.v * cE.eval(t)) <= 1e-9 * scale


def test_criterion_6_tail_halving_and_fd_order(loaded_solution):
    # a pure quadratic tail sums to ~1/N, so doubling N can shave the
    # reported bound by at best 0.5 (1 + 1/(4N)); hold the bound to that
    tails = [tail_bound(loaded_solution, N, 2.5) for N in (20, 40, 80)]
    assert tails[0] > tails[1] > tails[2] > 0.0
    assert tails[1] / tails[0] <= 0.5 * (1.0 + 1.0 / (4.0 * 20.0))
    assert tails[2] / tails[1] <= 0.5 * (1.0 + 1.0 / (4.0 * 40.0))

    data = make_data(mu=0.3, g=SmoothFn.smooth_pulse(0.2, 1.6, 1.0, ramp=0.3))
    data = resolve_exit(data, 2.0, n_grid=128)
    order, e1, e2 = fd_convergence_order(data, 2.0)
    assert e1 > e2 > 0.0
    assert 1.8 < order < 2.2


def test_criterion_7_danckwerts_error_approaches_reference():
    started = time.monotonic()
    data = make_data(R=1.0, D=1.0, v=1.0, mu=0.1, gamma=0.2, ell=2.0,
                     g=SmoothFn.constant(1.0))
    sweep = [(L, danckwerts_error(data, 60.0, L).e_d)
             for L in (2.0, 4.0, 8.0, 16.0)]
    errors = [e for _, e in sweep]
    assert all(a <= b * (1.0 + 1e-9) for a, b in zip(errors, errors[1:])), (
        f"outlet gap not nondecreasing over the length sweep: {sweep}")
    assert time.monotonic() - started < 300.0
    reference = 2.0                            # gamma / mu
    assert abs(errors[-1] - reference) <= 0.2 * reference, (
        "outlet gap does not settle within 20 percent of gamma/mu: "
        + ", ".join(f"ell={L:g}: {e:.6g}" for L, e in sweep))


def test_criterion_8_chain_composition(smoke_data):
    started = time.monotonic()
    n_grid = 256
    full = resolve_exit(make_data(g=SmoothFn.constant(1.0)), 2.0,
                        n_grid=n_grid)
    full_curve = full.require_exit()

    # single-run tolerance: the memoized curve's own interpolation defect
    hp = HalfLineProblem.from_data(full)
    knots = np.asarray(full_curve.knots)
    probes = 0.5 * (knots[:-1] + knots[1:])
    probes = probes[:: max(1, probes.size // 24)]
    defect = max(abs(float(full_curve.eval(tp)) - exit_concentration(hp, float(tp)))
                 for tp in probes)

    seg1 = resolve_exit(make_data(ell=0.5, g=SmoothFn.constant(1.0)), 2.0,
                        n_grid=n_grid)
    seg2 = resolve_exit(make_data(ell=0.5, g=seg1.require_exit()), 2.0,
                        n_grid=n_grid)
    curve2 = seg2.require_exit()

    ts = np.linspace(0.05, 2.0, 40)
    gap = max(abs(float(curve2.eval(t)) - float(full_curve.eval(t)))
              for t in ts)
    assert gap <= 5.0 * defect
    assert time.monotonic() - started < 120.0


def test_criterion_9_byte_identical_reruns(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(BASE_INI)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["solve", "--config", str(ini), "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    for fname in ("profile.csv", "breakthrough.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    man = json.loads((outs[0] / "manifest.json").read_text())
    assert man["version"] and man["config"] == BASE_INI
