"""Finite-difference oracle, balance audits, Danckwerts comparison."""

from dataclasses import replace

import numpy as np
import pytest

from coltrans import (
    DANCKWERTS,
    ROBIN,
    FdGrid,
    ParameterError,
    ProblemData,
    SmoothFn,
    TruncationPolicy,
    build_solution,
    danckwerts_comparison,
    danckwerts_error,
    eval_C,
    eval_C_x,
    fd_convergence_order,
    fd_solve,
    mass_balance,
    mass_balance_fd,
    resolve_exit,
)
from coltrans.verification import DanckwertsGap
from conftest import l2_grid_norm, make_data, traced_peak

INITIAL_PULSE = SmoothFn.polynomial([0.0, 0.0, 2.0384, -2.912, 1.04])


def decay_problem(t_end=3.0):
    data = make_data(phi=INITIAL_PULSE)
    return resolve_exit(data, t_end, n_grid=128)


# -- Crank-Nicolson oracle ----------------------------------------------------

def test_fd_grid_validation():
    with pytest.raises(ParameterError):
        FdGrid(nx=4)
    with pytest.raises(ParameterError):
        FdGrid(nt=0)


def test_fd_zero_data_stays_zero():
    data = make_data(exit=SmoothFn.constant(0.0))
    res = fd_solve(data, 2.0, FdGrid(nx=41, nt=40))
    assert np.all(res.C == 0.0)
    assert res.C.shape == (41, 41)


def test_fd_preserves_equilibrium(equilibrium_data):
    res = fd_solve(equilibrium_data, 2.0, FdGrid(nx=101, nt=100))
    assert np.max(np.abs(res.C - 2.0)) <= 1e-10


def test_fd_validation():
    with pytest.raises(ParameterError, match="resolve_exit"):
        fd_solve(make_data(g=SmoothFn.constant(1.0)), 1.0)
    with pytest.raises(ParameterError):
        fd_solve(make_data(exit=SmoothFn.constant(0.0)), 0.0)
    with pytest.raises(ParameterError, match="closure"):
        fd_solve(make_data(exit=SmoothFn.constant(0.0)), 1.0, kind="neumann")


def test_fd_matches_series(loaded_data, loaded_solution):
    res = fd_solve(loaded_data, 2.5, FdGrid(nx=201, nt=800))
    want = eval_C(loaded_solution, res.x, 2.5)
    rel = l2_grid_norm(res.C[-1] - want, res.x) / l2_grid_norm(want, res.x)
    assert rel <= 1e-3


def test_fd_convergence_order():
    data = make_data(mu=0.3, g=SmoothFn.smooth_pulse(0.2, 1.6, 1.0, ramp=0.3))
    data = resolve_exit(data, 2.0, n_grid=128)
    order, e1, e2 = fd_convergence_order(data, 2.0)
    assert e1 > e2 > 0.0
    assert 1.8 < order < 2.2


def test_fd_convergence_order_of_data_that_stay_zero():
    data = make_data(exit=SmoothFn.constant(0.0))
    assert fd_convergence_order(data, 2.0, FdGrid(nx=9, nt=4)) == (np.inf, 0.0, 0.0)


def test_refinement_ladder_keeps_only_the_rows_it_reads(loaded_data):
    """Each solve's history goes before the next starts: the finest, 257 x 257
    (0.50 MiB), and the two final rows before it; the 129 x 129 one kept as
    well (0.13 MiB more) breaks 0.65 MiB."""
    (order, _, _), peak = traced_peak(lambda: fd_convergence_order(loaded_data, 2.5))
    assert np.isfinite(order)
    assert peak < 0.65


def reference_fd_solve(data, t_end, grid, kind):
    """fd_solve as a per-step scipy.linalg.solve_banded loop with scalar loads."""
    from scipy.linalg import solve_banded
    from coltrans.verification import _operator_diagonals

    p = data.params
    nx, nt = grid.nx, grid.nt
    x = np.linspace(0.0, p.ell, nx)
    h = x[1] - x[0]
    t = np.linspace(data.t0, float(t_end), nt + 1)
    dt = t[1] - t[0]
    lower, main, upper, _, _ = _operator_diagonals(data, h, nx, t, kind)
    two_vRh = 2.0 * p.v / (p.R * h)
    v2DR = p.v * p.v / (p.D * p.R)

    def load(t):
        q = np.full(nx, p.gamma / p.R)
        q[0] += float(data.g.eval(t)) * (two_vRh + v2DR)
        if kind == ROBIN:
            q[-1] += float(data.require_exit().eval(t)) * (v2DR - two_vRh)
        return q

    ab = np.zeros((3, nx))
    ab[0, 1:] = -0.5 * dt * upper
    ab[1, :] = 1.0 - 0.5 * dt * main
    ab[2, :-1] = -0.5 * dt * lower
    C = np.empty((nt + 1, nx))
    C[0] = np.asarray(data.phi.eval(x), dtype=float)
    q_prev = load(t[0])
    for k in range(nt):
        ck = C[k]
        rhs = ck.copy()
        rhs += 0.5 * dt * (main * ck)
        rhs[:-1] += 0.5 * dt * upper * ck[1:]
        rhs[1:] += 0.5 * dt * lower * ck[:-1]
        q_next = load(t[k + 1])
        rhs += 0.5 * dt * (q_prev + q_next)
        C[k + 1] = solve_banded((1, 1), ab, rhs)
        q_prev = q_next
    return C


def coarse_peclet_data(D, mu=0.0, gamma=0.0):
    """A column whose coarse grids make dgtsv interchange interior rows."""
    return make_data(D=D, mu=mu, gamma=gamma, phi=INITIAL_PULSE,
                     g=SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15),
                     exit=SmoothFn.exp_pulse(level=0.8, center=1.2, width=0.5))


def readme_data():
    """The README column: pulse inlet, exit computed on a 512-point grid."""
    data = make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0))
    return resolve_exit(data, 2.0, n_grid=512)


@pytest.mark.parametrize("case", [
    "loaded-robin", "loaded-danckwerts", "readme", "d0.01-nx5", "d0.01-nx9",
    "d0.02-nx11",
])
def test_fd_solve_matches_lapack_gtsv(case, request):
    """Bit for bit the values of a banded LAPACK solve of every step."""
    data, t_end, grid, kind = {
        "loaded-robin": lambda: (request.getfixturevalue("loaded_data"), 2.5,
                                 FdGrid(nx=201, nt=400), ROBIN),
        "loaded-danckwerts": lambda: (request.getfixturevalue("loaded_data"), 2.5,
                                      FdGrid(nx=201, nt=400), DANCKWERTS),
        "readme": lambda: (readme_data(), 2.0, FdGrid(nx=65, nt=64), ROBIN),
        # dgtsv interchanges rows 1-2 and rows 1-3 on these two grids
        "d0.01-nx5": lambda: (coarse_peclet_data(0.01), 10.0,
                              FdGrid(nx=5, nt=1), ROBIN),
        "d0.01-nx9": lambda: (coarse_peclet_data(0.01), 4.0,
                              FdGrid(nx=9, nt=2), ROBIN),
        # gamma / R = 0.7 is no power of two, so the loads' sum order shows
        "d0.02-nx11": lambda: (coarse_peclet_data(0.02, mu=0.2, gamma=0.7), 2.0,
                               FdGrid(nx=11, nt=4), ROBIN),
    }[case]()
    got = fd_solve(data, t_end, grid, kind=kind).C
    assert np.array_equal(got, reference_fd_solve(data, t_end, grid, kind))


@pytest.mark.parametrize("dominant", [True, False])
def test_gtsv_factors_match_solve_banded(dominant):
    from scipy.linalg import solve_banded
    from coltrans.verification import _gtsv_factor, _gtsv_solve

    rng = np.random.default_rng(7)
    swapped = 0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        dl, du = rng.uniform(-1.0, 1.0, size=(2, n - 1))
        if dominant:
            d = rng.choice([-1.0, 1.0], size=n) * rng.uniform(2.0, 3.0, size=n)
        else:
            d = rng.normal(size=n)
        b = rng.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        lu = _gtsv_factor(dl, d, du)
        swapped += any(lu.swap)
        got = np.array(_gtsv_solve(lu, b.tolist()))
        assert got.tobytes() == solve_banded((1, 1), ab, b).tobytes()
    assert (swapped == 0) == dominant


# (dl, d, du, the row the elimination stops at)
SINGULAR = {
    "first row": ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0], 0),
    "last row": ([1.0], [1.0, 1.0], [1.0], 1),
}


@pytest.mark.parametrize("case", sorted(SINGULAR))
def test_singular_tridiagonal_is_refused(case):
    from coltrans.verification import _gtsv_factor

    dl, d, du, row = SINGULAR[case]
    with pytest.raises(ParameterError, match=f"singular at row {row}$"):
        _gtsv_factor(dl, d, du)


# -- balance audits -----------------------------------------------------------

def test_balance_zero_books():
    data = make_data(exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=20, tail_tol=1e-8), 2.0)
    rep = mass_balance(lambda xs, t: eval_C(sol, xs, t), data, 2.0)
    assert rep.max_abs == 0.0
    assert rep.max_rel == 0.0
    assert rep.scale == 0.0


def test_balance_smoke(smoke_data, smoke_solution):
    rep = mass_balance(lambda xs, t: eval_C(smoke_solution, xs, t),
                       smoke_data, 2.0)
    assert rep.max_rel <= 1e-4
    assert rep.scale > 0.0
    assert rep.times.size == 33


def test_balance_equilibrium(equilibrium_data):
    sol = build_solution(equilibrium_data,
                         TruncationPolicy(n_max=160, tail_tol=1e-8), 3.0)
    rep = mass_balance(lambda xs, t: eval_C(sol, xs, t), equilibrium_data, 3.0)
    assert rep.max_rel <= 1e-6


def test_balance_fd_books(smoke_data):
    res = fd_solve(smoke_data, 2.0, FdGrid(nx=201, nt=400))
    rep = mass_balance_fd(res)
    assert rep.max_rel <= 1e-3


def test_balance_validation(smoke_data, smoke_solution):
    fn = lambda xs, t: eval_C(smoke_solution, xs, t)
    with pytest.raises(ParameterError, match="stencil"):
        mass_balance(fn, smoke_data, 2.0, times=[0.0, 1.0])
    with pytest.raises(ParameterError, match="odd"):
        mass_balance(fn, smoke_data, 2.0, nx=256)
    res = fd_solve(smoke_data, 2.0, FdGrid(nx=100, nt=40))
    with pytest.raises(ParameterError, match="odd"):
        mass_balance_fd(res)
    with pytest.raises(ParameterError, match="at least 3"):
        mass_balance(fn, smoke_data, 2.0, nx=1)
    for n in (0, -1):
        with pytest.raises(ParameterError, match="n_times"):
            mass_balance(fn, smoke_data, 2.0, n_times=n)
    with pytest.raises(ParameterError, match="instant"):
        mass_balance(fn, smoke_data, 2.0, times=[])
    res = fd_solve(smoke_data, 2.0, FdGrid(nx=21, nt=3))
    with pytest.raises(ParameterError, match="instant"):
        mass_balance_fd(res)


@pytest.mark.parametrize("nx", [-1, -257, 0, 2])
def test_balance_refuses_bad_nx_before_sampling(smoke_data, nx):
    """A node count Simpson's rule cannot take is refused, not left to np.linspace."""
    def never(xs, t):
        raise AssertionError("sampled before nx was checked")

    with pytest.raises(ParameterError, match="odd node count, at least 3"):
        mass_balance(never, smoke_data, 2.0, nx=nx)


def test_both_audits_keep_one_set_of_books(loaded_data):
    """mass_balance over the FD levels gives mass_balance_fd's residuals, bit for bit."""
    fd = fd_solve(loaded_data, 2.5, FdGrid(nx=65, nt=2000))
    dt = fd.t[1] - fd.t[0]
    assert dt == 2.5 / 2000.0   # the series audit's stencil step
    levels = lambda xs, t: fd.C[np.rint((t - fd.t[0]) / dt).astype(int)]
    k = np.array([3, 250, 1001, 1996])
    rep = mass_balance(levels, loaded_data, 2.5, times=fd.t[k], nx=65)
    books = mass_balance_fd(fd)
    np.testing.assert_array_equal(rep.residual, books.residual[k - 2])

# -- Danckwerts closure comparison --------------------------------------------

def test_danckwerts_solve_basics():
    # no exit curve is needed: the closure feeds back its own outlet value
    data = make_data(g=SmoothFn.constant(1.0))
    sol = build_solution(data, TruncationPolicy(n_max=60, tail_tol=1e-8), 2.0,
                         kind=DANCKWERTS)
    assert sol.pairs[0].n == 0
    p = data.params
    for t in (0.5, 1.0, 2.0):
        cx = eval_C_x(sol, np.array([p.ell]), t)[0]
        assert abs(cx) <= 1e-9
        c0 = eval_C(sol, np.array([0.0]), t)[0]
        cx0 = eval_C_x(sol, np.array([0.0]), t)[0]
        assert abs(p.v * c0 - p.D * cx0 - p.v * 1.0) <= 1e-9


def test_danckwerts_decay_to_zero():
    # the slow mode leaves about 1.35e-8 at the outlet; the zero-gradient
    # oracle's own refinement gap sets the tolerance
    data = make_data(phi=INITIAL_PULSE)
    sol = build_solution(data, TruncationPolicy(n_max=60, tail_tol=1e-8), 6.0,
                         kind=DANCKWERTS)
    coarse, fine = (fd_solve(data, 6.0, FdGrid(nx=nx, nt=nt),
                             kind=DANCKWERTS).C[-1, -1]
                    for nx, nt in ((201, 3000), (401, 6000)))
    got = eval_C(sol, np.array([1.0]), 6.0)[0]
    assert abs(got - fine) <= abs(fine - coarse)


def test_unforced_mismatch_identity():
    """Without forcing the audit residual is exactly the outlet books' gap."""
    data = decay_problem()
    sol = build_solution(data, TruncationPolicy(n_max=160, tail_tol=1e-8), 3.0,
                         kind=DANCKWERTS)
    rep = mass_balance(lambda xs, t: eval_C(sol, xs, t), data, 3.0)
    # v (C_E - C_D(ell, .)): what a balance against the true exit sees
    p, cE = sol.data.params, sol.data.require_exit()
    mm = p.v * (cE.eval(rep.times) - eval_C(sol, p.ell, rep.times))
    assert np.max(np.abs(rep.residual - mm)) <= 1e-5
    assert np.max(np.abs(mm)) > 1e-2


def test_forced_run_flags_imbalance(smoke_data, smoke_solution):
    """The closure's books diverge wildly from the real exit data's books."""
    danck = build_solution(smoke_data,
                           TruncationPolicy(n_max=120, tail_tol=1e-8), 2.0,
                           kind=DANCKWERTS)
    bal_r = mass_balance(lambda xs, t: eval_C(smoke_solution, xs, t),
                         smoke_data, 2.0)
    bal_d = mass_balance(lambda xs, t: eval_C(danck, xs, t), smoke_data, 2.0)
    assert bal_d.max_rel >= 100.0 * bal_r.max_rel


def test_comparison_report(smoke_data, smoke_solution):
    danck = build_solution(smoke_data,
                           TruncationPolicy(n_max=80, tail_tol=1e-8), 2.0,
                           kind=DANCKWERTS)
    rep = danckwerts_comparison(smoke_solution, danck)
    assert rep.times.size == 40
    assert rep.max_sup >= rep.sup_diff[-1] > 0.0
    assert rep.final_sup == rep.sup_diff[-1]
    assert rep.gamma_over_mu is None


def test_comparison_validation(smoke_data, smoke_solution):
    pol = TruncationPolicy(n_max=8, tail_tol=1e-8)
    danck = build_solution(smoke_data, pol, 0.5, kind=DANCKWERTS)
    with pytest.raises(ParameterError, match="first"):
        danckwerts_comparison(danck, smoke_solution)
    other = make_data(D=0.25, g=SmoothFn.constant(1.0),
                      exit=SmoothFn.constant(0.0))
    with pytest.raises(ParameterError, match="share"):
        danckwerts_comparison(build_solution(other, pol, 0.5), danck)


def test_danckwerts_gap_with_decay(loaded_data):
    gap = danckwerts_error(loaded_data, 2.0, 2.0,
                           policy=TruncationPolicy(n_max=80, tail_tol=1e-8),
                           n_grid=64)
    e, lb = gap
    assert e == gap.e_d >= 0.0
    assert lb == pytest.approx(0.3 / 0.4)
    assert gap.meets_lower_bound() is (e >= 0.8 * lb)
    # the same gap from the two FD oracles on the stretched column
    p = replace(loaded_data.params, ell=2.0)
    stretched = resolve_exit(ProblemData(params=p, phi=loaded_data.phi,
                                         g=loaded_data.g), 2.0, n_grid=64)
    fd_gaps = []
    for nx, nt in ((201, 400), (401, 800)):
        grid = FdGrid(nx=nx, nt=nt)
        robin = fd_solve(stretched, 2.0, grid).C[-1, -1]
        danck = fd_solve(stretched, 2.0, grid, kind=DANCKWERTS).C[-1, -1]
        fd_gaps.append(abs(robin - danck))
    assert abs(e - fd_gaps[1]) <= abs(fd_gaps[1] - fd_gaps[0])


@pytest.mark.parametrize("ell,n_max", [(2.0, 200), (16.0, 800)])
def test_danckwerts_series_matches_zero_gradient_oracle(ell, n_max):
    # criterion 7's column; at ell = 16 the outlet converges like N^-3
    # (errors 1.8e-3, 2.1e-4, 2.6e-5 at N = 100, 200, 400), so the long
    # column keeps enough modes to sit inside the oracle's own error
    data = make_data(R=1.0, D=1.0, v=1.0, mu=0.1, gamma=0.2, ell=ell,
                     g=SmoothFn.constant(1.0))
    sol = build_solution(data, TruncationPolicy(n_max=n_max), 60.0, kind=DANCKWERTS)
    nx = int(10 * ell) + 1
    coarse, fine = (fd_solve(data, 60.0, FdGrid(nx=m, nt=600 * k),
                             kind=DANCKWERTS)
                    for k, m in ((1, nx), (2, 2 * nx - 1)))
    fine_c = fine.C[-1, ::2]
    got = eval_C(sol, coarse.x, 60.0)
    assert np.max(np.abs(got - fine_c)) <= np.max(np.abs(fine_c - coarse.C[-1]))
    # maximum principle: 0 <= C <= max(g, gamma/mu) = 2 at the outlet
    outlet = [eval_C(sol, np.array([ell]), t)[0]
              for t in np.linspace(0.0, 60.0, 31)[1:]]
    assert 0.0 <= min(outlet) and max(outlet) <= 2.0


@pytest.mark.parametrize("case", [
    dict(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)),           # README pulse
    dict(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4,   # loaded problem
         phi=INITIAL_PULSE, g=SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15)),
    dict(mu=0.5, gamma=1.0),                                # phi = g = 0, gamma/mu = 2
    dict(phi=SmoothFn.constant(0.5), g=SmoothFn.constant(1.0)),
], ids=["readme-pulse", "loaded", "production", "step-onto-half"])
def test_danckwerts_series_obeys_maximum_principle(case):
    # With C_x(ell) = 0 the outlet adds no data, so C stays between
    # min(0, inf phi, inf g) and max(sup phi, sup g, gamma/mu); the series
    # may overshoot by its truncation error (worst -3.1e-5, README pulse).
    # The flux-data family has no such cap: with measured exit data its
    # FD oracle reaches 7.35 for g = C_E = 1, phi = 0 and r ell = 5.
    data = make_data(**case)
    p = data.params
    t_end = 3.0
    sol = build_solution(data, TruncationPolicy(n_max=120), t_end, kind=DANCKWERTS)
    xs = np.linspace(0.0, p.ell, 81)
    C = np.array([eval_C(sol, xs, t) for t in np.linspace(0.05, t_end, 40)])
    phi = data.phi.eval(xs)
    g = data.g.eval(np.linspace(data.t0, t_end, 3001))
    lo = min(0.0, phi.min(), g.min())
    hi = max(phi.max(), g.max(), p.gamma / p.mu if p.mu > 0.0 else -np.inf)
    assert lo - 1e-4 <= C.min() and C.max() <= hi + 1e-4


def test_danckwerts_gap_without_decay(smoke_data):
    gap = danckwerts_error(smoke_data, 1.0, 1.0,
                           policy=TruncationPolicy(n_max=40, tail_tol=1e-8),
                           n_grid=64)
    assert gap.lower_bound is None
    assert gap.meets_lower_bound() is None
    assert gap.e_d >= 0.0


def test_danckwerts_gap_reference_level():
    assert DanckwertsGap(0.5, 0.0).meets_lower_bound() is True
    assert DanckwertsGap(1.5, 2.0).meets_lower_bound() is False
    assert DanckwertsGap(1.7, 2.0).meets_lower_bound() is True
