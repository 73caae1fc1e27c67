"""Series solution: coefficients, bounds, tails, evaluation, large-t limit."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coltrans import (
    NumericOverflowError,
    ParameterError,
    QuadratureError,
    SmoothFn,
    TruncationPolicy,
    build_solution,
    coefficient_bound,
    eval_C,
    eval_C_x,
    eval_large_t,
    inner_product,
    lift_H,
    project_forcing,
    resolve_exit,
    robin_eigenpair,
    tail_bound,
)
from coltrans.eigensystem import DANCKWERTS, ROBIN, _phi_matrices
from coltrans.model import forcing_weights
from conftest import half_wave_points, l2_grid_norm, make_data, traced_peak
from reference import danckwerts_pair, eval_phi, eval_w, forcing_F, initial_w


def pure_decay_data():
    """phi = e^{r x} phi_2 with quiet boundaries: one mode, no forcing."""
    r, kappa = 1.0, 2.0 * np.pi

    def phi2(x):
        return np.cos(kappa * x) + (r / kappa) * np.sin(kappa * x)

    def pf(x):
        return np.exp(r * x) * phi2(x)

    def pd(x):
        return r * pf(x) + np.exp(r * x) * (
            -kappa * np.sin(kappa * x) + r * np.cos(kappa * x))

    data = make_data(D=0.5, v=1.0, phi=SmoothFn.from_callable(pf, pd),
                     exit=SmoothFn.constant(0.0))
    return data, phi2, (0.5 / 1.0) * kappa ** 2


# -- exact special cases ------------------------------------------------------

def test_zero_data_stays_zero():
    data = make_data(exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=40, tail_tol=1e-8), 2.0)
    xs = np.linspace(0.0, 1.0, 17)
    for t in (0.0, 0.7, 2.0):
        assert np.max(np.abs(eval_C(sol, xs, t))) == 0.0
        assert np.max(np.abs(eval_w(sol, xs, t))) == 0.0
        assert np.max(np.abs(eval_C_x(sol, xs, t))) == 0.0
    assert sol.reported_tail == 0.0


def test_equilibrium_is_preserved(equilibrium_data):
    sol = build_solution(equilibrium_data,
                         TruncationPolicy(n_max=160, tail_tol=1e-8), 3.0)
    xs = np.linspace(0.0, equilibrium_data.params.ell, 41)
    for t in (0.0, 0.4, 1.7, 3.0):
        assert np.max(np.abs(eval_C(sol, xs, t) - 2.0)) <= 1e-6


def test_single_mode_decays_exactly():
    data, phi2, beta2 = pure_decay_data()
    sol = build_solution(data, TruncationPolicy(n_max=24, tail_tol=1e-8), 0.5)
    assert float(sol.T0[2]) == pytest.approx(1.0, rel=1e-13)
    others = max(abs(float(sol.T0[n]))
                 for n in range(sol.n_used + 1) if n != 2)
    assert others <= 1e-10
    for t in (0.05, 0.1, 0.4):
        assert float(sol.coefficients(t)[2]) == pytest.approx(
            np.exp(-beta2 * t), rel=1e-12)
    xs = np.linspace(0.0, 1.0, 21)
    want = np.exp(-beta2 * 0.1) * phi2(xs)
    assert np.max(np.abs(eval_w(sol, xs, 0.1) - want)) <= 1e-10
    # no forcing, smooth data: the tail target is actually reachable here
    assert sol.reported_tail <= 1e-8
    assert sol.n_used < 24


# -- forcing projection -------------------------------------------------------

def test_project_forcing_zero_data():
    data = make_data(exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=12, tail_tol=1e-8), 1.0)
    taus = np.linspace(0.0, 1.0, 7)
    for n in range(0, sol.n_used + 1, 3):
        assert np.max(np.abs(project_forcing(sol, n, taus))) == 0.0


def test_project_forcing_against_quadrature():
    data = make_data(D=0.5, v=1.0, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=40, tail_tol=1e-8), 1.0)
    p = data.params
    pref = np.pi ** 2 * p.D / (p.ell ** 2 * p.R) + p.s

    def F(x):
        return -pref * np.cos(np.pi * x / p.ell) - p.s

    for n in (0, 1, 2, 7, 15):
        pair = robin_eigenpair(n, p)
        quadv = inner_product(
            F, lambda x: eval_phi(pair, x, p.r)[0], 0.0, p.ell,
            points=half_wave_points(pair, p)) / pair.norm
        mine = project_forcing(sol, n, 0.5)
        assert mine == pytest.approx(quadv, rel=1e-9, abs=1e-12)


def test_forcing_reconstruction_converges(loaded_data, loaded_solution):
    p = loaded_data.params
    xs = np.linspace(0.0, p.ell, 801)
    F, _, _ = forcing_F(loaded_data, xs, 0.5)
    vals = np.array([eval_phi(pair, xs, p.r)[0]
                     for pair in loaded_solution.pairs])
    fn = np.array([project_forcing(loaded_solution, n, 0.5)
                   for n in range(loaded_solution.n_used + 1)])
    errs = [l2_grid_norm(F - fn[:N + 1] @ vals[:N + 1], xs)
            for N in (10, 40, 120)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.25 * errs[1]


# -- initial projection -------------------------------------------------------

def test_initial_coefficients_bessel_gap(loaded_data, loaded_solution):
    p = loaded_data.params
    w0sq = inner_product(lambda x: initial_w(loaded_data, x),
                         lambda x: initial_w(loaded_data, x),
                         0.0, p.ell, abs_tol=1e-12)
    gaps = []
    for N in (5, 20, 80):
        part = sum(float(loaded_solution.T0[n]) ** 2
                   * loaded_solution.norms[n]
                   for n in range(N + 1))
        gaps.append(w0sq - part)
    assert all(gap >= -1e-10 for gap in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_initial_profile_recovered_with_more_modes(loaded_data):
    xs = np.linspace(0.0, loaded_data.params.ell, 801)
    target = loaded_data.phi.eval(xs)
    errs = []
    for nm in (20, 80, 160):
        sol = build_solution(loaded_data,
                             TruncationPolicy(n_max=nm, tail_tol=1e-8), 2.5)
        errs.append(l2_grid_norm(eval_C(sol, xs, 0.0) - target, xs))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-6


def loaded_variant(phi, t0=0.0):
    """loaded_data's column and inlet with a measured exit and another phi."""
    return make_data(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4, phi=phi,
                     g=SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15),
                     exit=SmoothFn.exp_pulse(0.4, 1.6, 0.4), t0=t0)


def reference_initial_coefficient(sol, n):
    """T_n(t0) by one adaptive quad per half-wave of mode n and per phi knot."""
    data, pair = sol.lift_data, sol.pairs[n]
    p = data.params
    # H(., t0) is A + B cos(pi x / ell), fixed by its values at the faces
    h0, hl = lift_H(data, np.array([0.0, p.ell]), data.t0)

    def w0(x):
        H = 0.5 * (h0 + hl) + 0.5 * (h0 - hl) * np.cos(np.pi * x / p.ell)
        return np.exp(-p.r * x) * data.phi.eval(x) - H

    pts = half_wave_points(pair, p) + tuple(
        k for k in data.phi.knots if 0.0 < k < p.ell)
    raw = inner_product(w0, lambda x: eval_phi(pair, x, p.r)[0], 0.0, p.ell,
                        points=pts)
    return np.exp(p.s * data.t0) * raw / pair.norm


_LOADED_PHI = SmoothFn.polynomial([0.0, 0.0, 2.0384, -2.912, 1.04])
_TABLE_X = np.linspace(0.0, 1.4, 256)
# name: (phi, n_max, t0, stride of the modes checked against the reference)
_PROJECTION_CASES = {
    "loaded": (_LOADED_PHI, 160, 0.0, 8),
    "table-256-knots": (SmoothFn.from_table(
        _TABLE_X, np.sin(3.0 * _TABLE_X) ** 2 + 0.3 * _TABLE_X), 40, 0.0, 10),
    # narrower than the half-wave panels at n_max = 8, so it needs halving
    "gaussian-width-0.01": (SmoothFn.exp_pulse(1.0, 0.437, 0.01), 8, 0.0, 1),
    "late-start": (_LOADED_PHI, 60, 0.5, 5),
}


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
@pytest.mark.parametrize("case", list(_PROJECTION_CASES))
def test_initial_projection_matches_per_mode_quadrature(case, kind):
    phi, n_max, t0, stride = _PROJECTION_CASES[case]
    sol = build_solution(loaded_variant(phi, t0), TruncationPolicy(n_max=n_max),
                         2.5, kind=kind)
    assert sol.n_used == n_max
    for n in sorted({*range(0, n_max + 1, stride), n_max}):
        assert abs(float(sol.T0[n])
                   - reference_initial_coefficient(sol, n)) <= 1e-13


def count_quad_calls(monkeypatch):
    """Record the (a, b) of every `coltrans.eigensystem.quad` call."""
    import coltrans.eigensystem as eigensystem

    calls = []
    quad = eigensystem.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(eigensystem, "quad", counted)
    return calls


def test_initial_projection_makes_no_quadpack_call(loaded_data, monkeypatch):
    calls = count_quad_calls(monkeypatch)
    build_solution(loaded_data, TruncationPolicy(n_max=160, tail_tol=1e-8), 2.5)
    assert len(calls) == 0


def test_base_square_integral_on_a_table_phi_makes_no_quadpack_call(monkeypatch):
    """The 256-knot table once cost one QUADPACK call per knot gap."""
    phi, n_max = _PROJECTION_CASES["table-256-knots"][:2]
    data = loaded_variant(phi)
    calls = count_quad_calls(monkeypatch)
    sol = build_solution(data, TruncationPolicy(n_max=n_max), 2.5)
    assert len(calls) == 0
    monkeypatch.undo()
    p = data.params

    def base(x):
        return np.exp(-p.r * x) * phi.eval(x) - lift_H(data, x, data.t0)

    ref = inner_product(base, base, 0.0, p.ell, points=phi.knots[1:-1],
                        abs_tol=1e-12)
    assert abs(sol._base_sq - ref) <= 1e-12 * ref


def test_undeclared_jump_in_phi_is_refused():
    def step(x):
        return np.where(np.asarray(x) < 0.3137, 1.0, 0.0)

    def flat(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    # outside SmoothFn's C^1 contract: the panels never settle
    undeclared = loaded_variant(SmoothFn.from_callable(step, flat))
    with pytest.raises(QuadratureError, match="halvings"):
        build_solution(undeclared, TruncationPolicy(n_max=20), 1.0)
    # a panel edge at the jump settles at once
    declared = loaded_variant(SmoothFn.from_callable(step, flat, knots=(0.3137,)))
    sol = build_solution(declared, TruncationPolicy(n_max=20), 1.0)
    assert abs(float(sol.T0[7])
               - reference_initial_coefficient(sol, 7)) <= 1e-13


def direct_initial_coefficients(sol, monkeypatch):
    """T0 with each panel's node sums taken as f @ _phi_matrices(x) directly,
    on the factored rule's own nodes x = m + half xi_j and settle loop."""
    import coltrans.series as series

    data = sol.lift_data
    r = data.params.r

    def direct(sol, lo, hi, half):
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * series._GL_X
        f = half[:, None] * series._GL_W * np.exp(-r * x) * data.phi.eval(x)
        return f.ravel() @ _phi_matrices(sol.lam, x.ravel(), r)[0]

    with monkeypatch.context() as m:
        m.setattr(series, "_projected", direct)
        return series._initial_coefficients(sol)


@pytest.mark.parametrize("n_max", [200, 800])
@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
@pytest.mark.parametrize("case", ["loaded", "table-256-knots"])
def test_factored_projection_matches_the_direct_product(case, kind, n_max,
                                                        monkeypatch):
    phi = _PROJECTION_CASES[case][0]
    sol = build_solution(loaded_variant(phi), TruncationPolicy(n_max=n_max),
                         2.5, kind=kind)
    want = direct_initial_coefficients(sol, monkeypatch)
    assert np.max(np.abs(sol.T0 - want)) <= 1e-14 * np.max(np.abs(want))


def recorded_panels(data, pieces):
    """The (lo, hi, half) of the first pass of `_settled`."""
    import coltrans.series as series

    passes = []
    series._settled(data, pieces,
                    lambda *panels: passes.append(panels) or np.zeros(1), "test")
    return passes[0]


def test_knot_free_phi_keeps_the_linspace_cuts(loaded_data):
    import coltrans.series as series

    p, pieces = loaded_data.params, 160
    lo, hi, half = recorded_panels(loaded_data, pieces)
    assert _bits(np.r_[lo, hi[-1]]) == _bits(np.linspace(0.0, p.ell, pieces + 1))
    assert _bits(half) == _bits(np.full(pieces, 0.5 * p.ell / pieces))
    # the base-square integral equals the flat-node value of the halving loop
    cuts, prev = np.linspace(0.0, p.ell, pieces + 1), None
    while True:
        x, wts = series._gl_nodes(cuts[:-1], cuts[1:])
        H0 = lift_H(loaded_data, x, loaded_data.t0)
        val = wts @ (np.exp(-p.r * x) * loaded_data.phi.eval(x) - H0) ** 2
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            break
        prev, cuts = val, np.sort(np.r_[cuts, 0.5 * (cuts[1:] + cuts[:-1])])
    sol = build_solution(loaded_data, TruncationPolicy(n_max=pieces), 2.5)
    assert _bits(sol._base_sq) == _bits(val)


def test_knotted_phi_gets_equal_panels_between_its_knots():
    knots = (0.3137, 0.35, 0.9)
    data = loaded_variant(SmoothFn.from_callable(_LOADED_PHI.eval,
                                                 _LOADED_PHI.deriv, knots))
    ell, pieces = data.params.ell, 40
    lo, hi, half = recorded_panels(data, pieces)
    ends = np.r_[0.0, knots, ell]
    assert _bits(np.r_[lo, hi[-1]][np.isin(np.r_[lo, hi[-1]], ends)]) == _bits(ends)
    for a, b in zip(ends[:-1], ends[1:]):
        inside = (lo >= a) & (hi <= b)
        count = int(np.ceil((b - a) / ell * pieces))
        assert inside.sum() == count
        assert np.all(half[inside] == 0.5 * (b - a) / count)
        assert np.allclose(hi[inside] - lo[inside], (b - a) / count,
                           rtol=0.0, atol=1e-15)
    assert np.all(lo[1:] == hi[:-1])


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_knots_a_hair_apart_give_a_finite_projection(kind):
    knots = (0.61, 0.61 + 1e-12)
    data = loaded_variant(SmoothFn.from_callable(_LOADED_PHI.eval,
                                                 _LOADED_PHI.deriv, knots))
    sol = build_solution(data, TruncationPolicy(n_max=40), 2.5, kind=kind)
    lo, hi, _ = recorded_panels(data, 40)
    assert np.any(hi - lo < 2e-12)  # the hair is a panel of its own
    assert np.all(np.isfinite(sol.T0))
    for n in (0, 1, 7, 23, 40):
        assert abs(float(sol.T0[n])
                   - reference_initial_coefficient(sol, n)) <= 1e-13


@pytest.mark.parametrize("case", ["loaded", "table-256-knots"])
def test_projection_is_independent_of_the_panel_block_size(case, monkeypatch):
    import coltrans.series as series

    phi, n_max = _PROJECTION_CASES[case][:2]
    sol = build_solution(loaded_variant(phi), TruncationPolicy(n_max=n_max), 2.5)
    monkeypatch.setattr(series, "_PANELS", 1)  # one panel per block
    one = series._initial_coefficients(sol)
    monkeypatch.setattr(series, "_PANELS", 1 << 40)  # every panel in one block
    every = series._initial_coefficients(sol)
    scale = np.max(np.abs(sol.T0))
    assert np.max(np.abs(one - sol.T0)) <= 1e-15 * scale
    assert np.max(np.abs(every - sol.T0)) <= 1e-15 * scale


# -- coefficient evolution ----------------------------------------------------

def test_coefficient_against_ivp_oracle(loaded_data, loaded_solution):
    p = loaded_data.params
    sol = loaded_solution
    for n in (0, 1, 5):
        beta = (p.D / p.R) * sol.lam[n]

        def rhs(tau, T, beta=beta, n=n):
            return -beta * T + np.exp(p.s * tau) * project_forcing(sol, n, tau)

        out = solve_ivp(rhs, (0.0, 2.5), [float(sol.T0[n])],
                        rtol=1e-11, atol=1e-14, max_step=0.05)
        assert float(sol.coefficients(2.5)[n]) == pytest.approx(
            float(out.y[0, -1]), rel=1e-6, abs=1e-10)


def test_coefficient_continuity_at_start(loaded_solution):
    for n in (0, 1, 4):
        T0 = float(loaded_solution.T0[n])
        assert float(loaded_solution.coefficients(1e-12)[n]) == pytest.approx(
            T0, rel=1e-8, abs=1e-12)


def test_negative_mode_rate_identity():
    """s + (D/R) lambda_0 = mu / R: the slow mode relaxes at the decay rate."""
    for (R, D, v, mu) in [(1.0, 0.1, 1.0, 0.0), (1.5, 0.8, 1.2, 0.5),
                          (2.0, 0.3, 0.7, 1.3)]:
        from coltrans import TransportParams
        p = TransportParams(R=R, D=D, v=v, mu=mu, gamma=0.0, ell=1.0)
        lam0 = robin_eigenpair(0, p).lam
        assert p.s + (p.D / p.R) * lam0 == pytest.approx(mu / R, abs=1e-14)


def test_coefficient_dyadic_decay(loaded_solution):
    mags = [abs(float(loaded_solution.coefficients(2.5)[n])) for n in range(129)]
    for k in (2, 3, 4, 5):
        mk = max(mags[2 ** k:2 ** (k + 1)])
        mk1 = max(mags[2 ** (k + 1):2 ** (k + 2)])
        assert mk1 <= 0.5 * mk + 1e-250


def test_coefficient_memo_holds_one_instant(loaded_data):
    sol = build_solution(loaded_data, TruncationPolicy(n_max=40), 2.5)
    ts = np.linspace(0.05, 2.45, 200)
    first = sol.coefficients(ts[7]).copy()
    for t in ts:
        T = sol.coefficients(t)
    assert sol._memo[0] == ts[-1] and sol._memo[1] is T
    assert sol.coefficients(ts[-1]) is T           # a repeat is a memo hit
    again = sol.coefficients(ts[7])                # evicted, so recomputed
    assert again.tobytes() == first.tobytes()
    assert sol.coefficients(ts[7]) is again


# -- batched time axis --------------------------------------------------------

def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_batched_rows_equal_scalar_calls(loaded_data, kind):
    sol = build_solution(loaded_data, TruncationPolicy(n_max=60), 2.5, kind=kind)
    dense = sol._dense_times
    exit_knot = loaded_data.exit.knots[37]
    # t0, dense-grid points, an inlet knot, an exit-table knot, off-grid
    # instants, one past t_end; unsorted, with repeats
    ts = np.array([1.3, sol.t0, dense[5], 0.25, exit_knot, 2.5, 0.8137,
                   dense[200], 1.3, sol.t0, 2.6, 0.25])
    xs = np.linspace(0.0, loaded_data.params.ell, 9)
    rows, slopes = eval_C(sol, xs, ts), eval_C_x(sol, xs, ts)
    outlet = eval_C(sol, loaded_data.params.ell, ts)
    assert rows.shape == slopes.shape == (ts.size, xs.size)
    assert outlet.shape == ts.shape
    for t, row, slope, c_out in zip(ts, rows, slopes, outlet):
        assert _bits(row) == _bits(eval_C(sol, xs, t))
        assert _bits(slope) == _bits(eval_C_x(sol, xs, t))
        assert _bits(c_out) == _bits(eval_C(sol, loaded_data.params.ell, t))
    T = sol.coefficients(ts)
    assert T.shape == (len(sol.pairs), ts.size)
    assert _bits(T[:, 3]) == _bits(sol.coefficients(ts[3]))


def test_empty_x_gives_empty_rows(loaded_data):
    sol = build_solution(loaded_data, TruncationPolicy(n_max=20), 2.5)
    xs, ts = np.array([]), np.array([0.5, 1.0, 2.0])
    for evaluate in (eval_w, eval_C, eval_C_x):
        assert evaluate(sol, xs, ts).shape == (3, 0)
    assert eval_large_t(sol, xs, 2.0).shape == (0,)


def test_march_and_evaluation_are_independent_of_the_block_size(loaded_data,
                                                               monkeypatch):
    import coltrans.series as series

    policy = TruncationPolicy(n_max=40)
    ts, xs = np.linspace(0.0, 2.5, 7), np.linspace(0.0, 1.4, 5)
    ref = build_solution(loaded_data, policy, 2.5)
    want = eval_C(ref, xs, ts)
    monkeypatch.setattr(series, "_BLOCK", 1)  # one step, one instant per block
    monkeypatch.setattr(series, "_PASS", 1)
    monkeypatch.setattr(series, "_POINTS", 1)
    tiny = build_solution(loaded_data, policy, 2.5)
    assert _bits(tiny._dense_times) == _bits(ref._dense_times)
    assert _bits(tiny._dense_T) == _bits(ref._dense_T)
    assert _bits(eval_C(tiny, xs, ts)) == _bits(want)
    # and the recurrence over increments equals marching one step at a time
    dense, dense_T = ref._dense_times, ref._dense_T
    for k in range(1, dense.size, 37):
        one = series._march(ref, dense_T[:, k - 1:k], dense[k - 1:k], dense[k:k + 1])
        assert _bits(one[:, 0]) == _bits(dense_T[:, k])


def test_march_rows_are_independent_of_large_blocks(loaded_data, monkeypatch):
    """At 201 modes and hundreds of steps per block, a product shared by
    steps would round differently from each step's own product."""
    import coltrans.series as series

    sol = build_solution(loaded_data, TruncationPolicy(n_max=200), 2.5)
    dense = sol._dense_times
    monkeypatch.setattr(series, "_BLOCK", 1 << 20)
    monkeypatch.setattr(series, "_PASS", 1 << 16)
    big = series._march(sol, None, dense[:-1], dense[1:])
    monkeypatch.setattr(series, "_BLOCK", 1)
    monkeypatch.setattr(series, "_PASS", 1)
    assert _bits(series._march(sol, None, dense[:-1], dense[1:])) == _bits(big)


def test_batched_instant_before_t0_is_refused(smoke_solution):
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ParameterError, match="precedes"):
        eval_C(smoke_solution, xs, np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ParameterError, match="precedes"):
        smoke_solution.coefficients(np.array([1.0, -1e-3]))


def test_batched_overflow_guard():
    data = make_data(v=2.0, D=0.1, exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=20, tail_tol=1e-8), 2.0)
    with pytest.raises(NumericOverflowError, match="t = 71"):
        eval_C(sol, np.linspace(0.0, 1.0, 5), np.array([0.5, 71.0, 1.5]))


_GL12 = np.polynomial.legendre.leggauss(12)


def reference_increments(sol, t_from, t_to):
    """Forcing integrals of each step by one fused exponent per mode and node.

    Each step is cut at the data knots inside it and dyadically toward
    t_to, halving until beta_max times the panel width is at most 4, and
    integrates exp(s tau - beta_n (t_to - tau)) f_n(tau) on 12-point panels.
    """
    s, beta = sol.data.params.s, sol.beta
    beta_max = float(np.max(beta, initial=0.0))
    cols = []
    for lo, hi in zip(t_from, t_to):
        cuts = {lo, hi}
        cuts.update(k for k in sol._knots if lo < k < hi)
        delta, levels = hi - lo, 0
        while beta_max * delta > 4.0 and levels < 80:
            delta *= 0.5
            cuts.add(hi - delta)
            levels += 1
        cuts = np.array(sorted(cuts))
        mids, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        tau = (mids[:, None] + half[:, None] * _GL12[0]).ravel()
        wts = (half[:, None] * _GL12[1]).ravel()
        a, b, c = forcing_weights(sol.lift_data, tau)
        f = (np.outer(sol.moments[0], a) + np.outer(sol.moments[1], b)
             + np.outer(sol.moments[2], c)) / sol.norms[:, None]
        cols.append((f * np.exp(s * tau - beta[:, None] * (hi - tau))) @ wts)
    return np.array(cols).T


def assert_close_per_instant(got, want, rel=1e-13):
    """Each column within rel of that column's largest |value|."""
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= rel * scale)


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_march_matches_the_fused_per_node_rule(loaded_data, kind, monkeypatch):
    import coltrans.series as series

    sol = build_solution(loaded_data, TruncationPolicy(n_max=60), 2.5, kind=kind)
    dense, beta = sol._dense_times, sol.beta
    # the dense grid: T0, then the decay recurrence over reference increments
    want = reference_increments(sol, np.r_[dense[0], dense[:-1]], dense)
    want[:, 0] = sol.T0
    for k in range(1, dense.size):
        want[:, k] += want[:, k - 1] * np.exp(-beta * (dense[k] - dense[k - 1]))
    assert_close_per_instant(sol._dense_T, want)
    # off-grid instants and instants past t_end, marched from the grid
    ts = np.array([1e-4, 0.8137, 1.3, 2.6, 4.0])
    k = np.searchsorted(dense, ts, side="right") - 1
    T = want[:, k] * np.exp(-beta[:, None] * (ts - dense[k]))
    assert_close_per_instant(sol.coefficients(ts),
                             T + reference_increments(sol, dense[k], ts))
    # eval_large_t's single step across the inlet knots; over 2,100 time
    # units the Robin negative mode's e^{-beta_0 d} alone would overflow
    steps = []
    march = series._march

    def recorded(sol, T_from, t_from, t_to):
        T = march(sol, T_from, t_from, t_to)
        steps.append((t_from, t_to, T))
        return T

    monkeypatch.setattr(series, "_march", recorded)
    xs = np.linspace(0.0, loaded_data.params.ell, 5)
    eval_large_t(sol, xs, 2.0)
    eval_large_t(sol, xs, 2.0, tau_min=-2098.0)
    assert len(steps) == 2
    for t_from, t_to, T in steps:
        assert np.sum((sol._knots > t_from[0]) & (sol._knots < t_to[0])) >= 4
        assert_close_per_instant(T, reference_increments(sol, t_from, t_to))


def test_width_moments_are_made_once_and_do_not_depend_on_the_call(loaded_data,
                                                                     monkeypatch):
    """W(w) of a dense step is bit-equal in a march of 500 steps and of one."""
    import coltrans.series as series

    sol = build_solution(loaded_data, TruncationPolicy(n_max=60), 2.5)
    dense = sol._dense_times
    made = {}
    width_moments = series._width_moments

    def recorded(edges, d, kernel, kappa, ws, prefix):
        out = width_moments(edges, d, kernel, kappa, ws, prefix)
        for w, W in zip(ws.tolist(), out):
            made.setdefault(w, []).append(W.copy())
        return out

    monkeypatch.setattr(series, "_width_moments", recorded)
    series._march(sol, None, dense[:500], dense[1:501])
    assert len(made) < 100 and all(len(Ws) == 1 for Ws in made.values())
    for k in (0, 137, 499):
        series._march(sol, None, dense[k:k + 1], dense[k + 1:k + 2])
        first, again = made[float(dense[k + 1] - dense[k])]
        assert _bits(first) == _bits(again)


def test_long_step_is_the_sum_of_its_pieces(loaded_data):
    """A step across the inlet knots and past t_end, against each of its pieces
    marched as a step of its own and decayed over the piece's offset."""
    import coltrans.series as series

    sol = build_solution(loaded_data, TruncationPolicy(n_max=60), 2.5)
    t_from, t_to = 0.05, 6.0
    _, off, wid = series._pieces(sol, np.array([t_from]), np.array([t_to]))
    assert off.size >= 12 and off[0] == 0.0
    assert np.sum((sol._knots > t_from) & (sol._knots < t_to)) >= 4
    whole = series._march(sol, None, [t_from], [t_to])
    parts = sum(np.exp(-sol.beta * o)[:, None]
                * series._march(sol, None, [t_to - o - w], [t_to - o])
                for o, w in zip(off.tolist(), wid.tolist()))
    assert_close_per_instant(whole, parts)


def _loaded_verify_data():
    """The loaded-verify benchmark problem: measured Gaussian exit."""
    phi = SmoothFn.polynomial([0.0, 0.0, 2.0384, -2.912, 1.04])
    return make_data(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4, phi=phi,
                     g=SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15),
                     exit=SmoothFn.exp_pulse(0.4, 1.6, 0.4))


def test_march_memory_stays_within_its_blocks():
    """The build and the 165 mass-balance instants of `verify` on the loaded
    problem peak no higher than the per-node march did (1.62 and 1.21 MiB)."""
    sol, build_peak = traced_peak(
        lambda: build_solution(_loaded_verify_data(), TruncationPolicy(), 2.5))
    ht = 2.5 / 2000.0
    times = np.linspace(2.5 * ht, 2.5 - 2.5 * ht, 33)
    instants = (times[:, None] + np.arange(-2, 3) * ht).ravel()
    _, eval_peak = traced_peak(lambda: sol.coefficients(instants))
    assert build_peak <= 1.7 and eval_peak <= 1.3


def test_large_t_with_a_fast_negative_mode_is_finite():
    """|beta_0| gap = 2,763: decaying a zero initial state once gave 0 inf."""
    data = make_data(v=2.0, D=0.1, mu=0.1, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.3))
    sol = build_solution(data, TruncationPolicy(n_max=40), 2.0)
    xs = np.linspace(0.0, 1.0, 9)
    now = eval_large_t(sol, xs, 2.0)
    assert np.all(np.isfinite(now))
    # constant data: the long-time limit is steady
    assert np.max(np.abs(eval_large_t(sol, xs, 3.0) - now)) <= 1e-9


def reference_tail_bound_core(p, kind, t0, ff, base_sq, tail_tol, N, t):
    """`_tail_bound_core` with its window summed term by term; (bound, window end)."""
    r, ell, s = p.r, p.ell, p.s
    dr = p.D / p.R
    e2st = np.exp(2.0 * s * t)
    norm_floor = 0.25 * ell if kind == DANCKWERTS else 0.5 * ell
    total, M = 0.0, N
    for n in range(N + 1, N + 2001):
        lam = (n * np.pi / ell) ** 2
        beta = dr * lam
        norm = (r * r + lam) * ell / (2.0 * lam) if kind == ROBIN else norm_floor
        term1 = e2st * ff / (2.0 * (s + beta) * norm)
        term2 = np.exp(2.0 * beta * (t0 - t) + 2.0 * s * t0) * base_sq / norm
        total += (term1 + term2) * (1.0 + r / np.sqrt(lam))
        M = n
        if term1 + term2 < 1e-4 * tail_tol / max(1, n):
            break
    B = dr * (np.pi / ell) ** 2
    A = e2st * ff / (2.0 * norm_floor)
    rem1 = A * (1.0 + r * ell / (M * np.pi)) * (
        np.pi / 2.0 - np.arctan(M * np.sqrt(B / s))) / np.sqrt(s * B)
    lamM = ((M + 1) * np.pi / ell) ** 2
    rem2 = (np.exp(2.0 * dr * lamM * (t0 - t) + 2.0 * s * t0) * base_sq
            / norm_floor * (1.0 + r * ell / np.pi) * 2.0)
    return float(total + rem1 + rem2), M


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_tail_window_sums_as_the_term_loop(loaded_data, kind):
    from coltrans import TransportParams
    from coltrans.series import _tail_bound_core

    cases = [(loaded_data.params, N, t, ff, tol) for N in (8, 40, 200)
             for t in (0.3, 2.5) for ff, tol in ((0.7, 1e-8), (0.0, 1e-8), (0.7, 1e3))]
    # a Robin case whose bound moves in the last bit if lambda_n is squared
    # as x * x rather than by pow, as Python's float ** does
    long = TransportParams(R=1.2, D=0.6, v=0.5, mu=1.0, gamma=0.0, ell=4.0)
    cases.append((long, 128, 1.0, 1.7, 1e-8))
    windows = set()
    for p, N, t, ff, tol in cases:
        want, M = reference_tail_bound_core(p, kind, 0.0, ff, 0.02, tol, N, t)
        got = _tail_bound_core(p, kind, 0.0, ff, 0.02, tol, N, t)
        assert _bits(got) == _bits(want)
        windows.add(M - N)
    assert 2000 in windows and len(windows) > 1   # full and broken-off windows


def reference_mode_moments(pair, params):
    """The per-mode scalar form of series._mode_moments, kept as its reference."""
    r, ell = params.r, params.ell
    p = np.pi / ell

    if pair.kind == ROBIN and pair.n == 0:
        Ie = ell
        Ic = -r * (np.exp(r * ell) + 1.0) / (r * r + p * p)
        I1 = (np.exp(r * ell) - 1.0) / r
        return Ie, Ic, I1

    kappa = np.sqrt(pair.lam)

    def S(q):
        return ell * np.sinc(q * ell / np.pi)

    def V(q):
        return 0.5 * ell * ell * q * np.sinc(q * ell / (2.0 * np.pi)) ** 2

    sin_l, cos_l = np.sin(kappa * ell), np.cos(kappa * ell)
    Ie = (
        np.exp(-r * ell) * ((kappa - r * r / kappa) * sin_l - 2.0 * r * cos_l)
        + 2.0 * r
    ) / (r * r + kappa * kappa)
    Ic = 0.5 * (S(p - kappa) + S(p + kappa)) + (r / kappa) * 0.5 * (
        V(kappa + p) + V(kappa - p)
    )
    I1 = S(kappa) + (r / kappa) * V(kappa)
    return float(Ie), float(Ic), float(I1)


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_mode_moments_in_one_pass_match_the_per_mode_form(kind):
    from coltrans import TransportParams
    from coltrans.model import _mode_moments

    pair_of = robin_eigenpair if kind == ROBIN else danckwerts_pair
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = TransportParams(R=rng.uniform(0.5, 2.0), D=rng.uniform(0.05, 1.0),
                            v=rng.uniform(0.1, 3.0), mu=rng.uniform(0.0, 1.0),
                            gamma=0.0, ell=rng.uniform(0.2, 8.0))
        pairs = [pair_of(n, p) for n in range(61)]
        want = np.array([reference_mode_moments(q, p) for q in pairs]).T
        got = _mode_moments(kind, np.array([q.lam for q in pairs]), p)
        assert got.shape == want.shape == (3, 61)
        if kind == ROBIN:
            assert [_bits(v) for v in got.ravel()] == [_bits(v) for v in want.ravel()]
        else:
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_negative_mode_refuses_r_ell_beyond_the_double_range():
    """The Robin n = 0 norm takes e^{2 r ell} and its moments e^{r ell}; each
    is refused with r ell named, and numpy does not warn first."""
    from coltrans import TransportParams
    from coltrans.model import _mode_moments

    norm_over = TransportParams(D=2e-3, v=1.0, ell=1.5)  # r ell = 375
    moments_over = TransportParams(D=1e-3, v=1.0, ell=1.5)  # r ell = 750
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="= 375 is too large"):
            robin_eigenpair(0, norm_over)
        with pytest.raises(NumericOverflowError, match="= 750 is too large"):
            _mode_moments(ROBIN, np.array([-moments_over.r ** 2]), moments_over)
        assert robin_eigenpair(1, norm_over).norm > 0.0  # n >= 1 takes no e^{r ell}


# -- a-priori bounds ----------------------------------------------------------

def test_coefficient_bound_contains_coefficient(loaded_solution):
    # Schwarz split: |T| <= sqrt(t1) + sqrt(t2) <= sqrt(2 (t1 + t2))
    for n in (0, 1, 3, 10):
        for t in (0.7, 2.0):
            Tn = abs(float(loaded_solution.coefficients(t)[n]))
            B = coefficient_bound(loaded_solution, n, t)
            assert Tn <= np.sqrt(2.0 * B) * (1.0 + 1e-12)


def test_coefficient_bound_zero_data():
    data = make_data(exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=12, tail_tol=1e-8), 1.0)
    assert coefficient_bound(sol, 3, 0.8) == 0.0


def test_bounds_past_the_double_range_read_inf_without_warnings():
    """s t_end = 695 keeps the march in range while e^{2 s t} overflows: the
    tail and coefficient bounds read inf, quietly, and say so in the notes;
    earlier instants keep their finite bounds."""
    data = make_data(D=0.1, v=1.0, mu=345.0, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = build_solution(data, TruncationPolicy(n_max=40), 2.0)
        assert sol.reported_tail == np.inf
        assert sol.notes[-1].endswith("achieved inf")
        assert tail_bound(sol, sol.n_used, 2.0) == np.inf
        assert coefficient_bound(sol, 5, 2.0) == np.inf
        assert np.isfinite(tail_bound(sol, sol.n_used, 0.5))
        assert np.isfinite(coefficient_bound(sol, 5, 0.5))


def test_unforced_bounds_stay_finite_past_the_double_range():
    """The same column with phi = 1 and g = C_E = 0 has int int F^2 = 0, so
    e^{2 s t}, which overflows, multiplies nothing: the bounds stay finite
    and the tail target is met at the first candidate."""
    data = make_data(D=0.1, v=1.0, mu=345.0, phi=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = build_solution(data, TruncationPolicy(n_max=40), 2.0)
        assert sol.n_used == 8 and sol.notes == ()
        assert 0.0 < sol.reported_tail <= sol.policy.tail_tol
        assert tail_bound(sol, sol.n_used, 2.0) == sol.reported_tail
        assert 0.0 < coefficient_bound(sol, 5, 2.0) < np.inf


def test_coefficient_bound_decreases_dyadically(loaded_solution):
    bs = [coefficient_bound(loaded_solution, n, 2.0) for n in range(129)]
    blocks = [max(bs[2 ** k:2 ** (k + 1)]) for k in range(2, 7)]
    assert all(a > b for a, b in zip(blocks, blocks[1:]))


# mu = 0 and R = 1, so rho_0 = 2 (s + beta_0) is 0 in exact arithmetic;
# rounded, it is 0, +8.9e-16 and -8.9e-16 for these three columns
@pytest.mark.parametrize("D, v, sign", [(0.1, 1.0, 0.0),
                                        (0.11944723618090453, 1.3, 1.0),
                                        (0.11944723618090453, 1.0, -1.0)])
def test_zero_rate_bound_is_the_schwarz_limit(D, v, sign):
    """At mu = 0 the n = 0 bound is the Schwarz formula's rho -> 0 limit,
    e^{2 s t} (t - t0) int int F^2 / <phi_0, phi_0> plus the initial term,
    however rho_0 rounds, and sqrt(2 B) contains |T_0|."""
    data = resolve_exit(make_data(D=D, v=v, g=SmoothFn.constant(1.0)), 2.0, n_grid=256)
    sol = build_solution(data, TruncationPolicy(n_max=160), 2.0)
    s, beta, norm = data.params.s, sol.beta[0], sol.norms[0]
    assert np.sign(2.0 * (s + beta)) == sign  # the rounding this case covers
    for t in (0.3, 0.7, 1.5, 2.0):
        initial = np.exp(-2.0 * beta * t) * sol._base_sq / norm
        want = np.exp(2.0 * s * t) * t * float(sol._ff_cum(t)) / norm + initial
        B = coefficient_bound(sol, 0, t)
        assert B == pytest.approx(want, rel=1e-12, abs=0.0)
        assert abs(float(sol.coefficients(t)[0])) <= np.sqrt(2.0 * B)


@pytest.mark.parametrize("name", ["smoke_solution", "loaded_solution"])
def test_tail_bound_contains_the_tail(request, name):
    """tail_bound(N) >= (1/2) sum_{N < n <= n_used} T_n^2 (1 + r / sqrt(lambda_n)):
    each of its terms is at least a coefficient bound, which holds T_n^2 / 2."""
    sol = request.getfixturevalue(name)
    r = sol.data.params.r
    lam = sol.lam
    for N in (20, 80):
        for t in (0.7, 2.0):
            T = sol.coefficients(t)[N + 1:]
            tail = 0.5 * np.sum(T * T * (1.0 + r / np.sqrt(lam[N + 1:])))
            assert tail <= tail_bound(sol, N, t)


def test_tail_bound_halves_with_doubling(loaded_solution):
    tails = [tail_bound(loaded_solution, N, 2.5) for N in (20, 40, 80)]
    assert tails[0] > tails[1] > tails[2]
    assert tails[1] <= 0.55 * tails[0]
    assert tails[2] <= 0.55 * tails[1]


def test_unreachable_tail_is_reported(loaded_solution):
    assert loaded_solution.reported_tail > 1e-8
    assert any("unreachable" in note for note in loaded_solution.notes)


# -- residuals of the assembled solution --------------------------------------

def test_flux_boundary_identities(loaded_data, loaded_solution):
    """Both flux conditions hold at truncation precision by construction."""
    p = loaded_data.params
    for t in (0.8, 2.2):
        c0 = eval_C(loaded_solution, np.array([0.0]), t)[0]
        cx0 = eval_C_x(loaded_solution, np.array([0.0]), t)[0]
        ce = eval_C(loaded_solution, np.array([p.ell]), t)[0]
        cxe = eval_C_x(loaded_solution, np.array([p.ell]), t)[0]
        scale = p.v * (1.0 + abs(c0) + abs(ce))
        inlet = p.v * c0 - p.D * cx0 - p.v * loaded_data.g.eval(t)
        outlet = p.v * ce - p.D * cxe - p.v * loaded_data.exit.eval(t)
        assert abs(inlet) <= 1e-9 * scale
        assert abs(outlet) <= 1e-9 * scale


def test_interior_residual_shrinks_with_modes(smoke_data):
    """The equation defect is the unprojected forcing tail; more modes, less."""
    p = smoke_data.params

    def residual(sol, x, t, h, ht):
        Ct = (eval_C(sol, np.array([x]), t + ht)[0]
              - eval_C(sol, np.array([x]), t - ht)[0]) / (2.0 * ht)
        row = [eval_C(sol, np.array([q]), t)[0] for q in (x - h, x, x + h)]
        Cxx = (row[2] - 2.0 * row[1] + row[0]) / (h * h)
        Cx = (row[2] - row[0]) / (2.0 * h)
        return p.R * Ct - p.D * Cxx + p.v * Cx + p.mu * row[1] - p.gamma

    def rich(sol, x, t):
        r1 = residual(sol, x, t, 2e-3, 2e-4)
        r2 = residual(sol, x, t, 1e-3, 1e-4)
        return (4.0 * r2 - r1) / 3.0

    coarse = build_solution(smoke_data,
                            TruncationPolicy(n_max=40, tail_tol=1e-8), 2.0)
    fine = build_solution(smoke_data,
                          TruncationPolicy(n_max=160, tail_tol=1e-8), 2.0)
    pts = [(0.3, 0.8), (0.5, 1.0), (0.7, 1.6)]
    rc = max(abs(rich(coarse, x, t)) for x, t in pts)
    rf = max(abs(rich(fine, x, t)) for x, t in pts)
    assert rf <= 0.5 * rc
    assert rf <= 0.02


def test_step_response_is_monotone(smoke_solution):
    # skip t = 0 itself: the projected initial state rings at truncation level
    ts = np.linspace(0.05, 2.0, 40)
    vals = [eval_C(smoke_solution, np.array([0.5]), t)[0] for t in ts]
    assert min(np.diff(vals)) >= -1e-6
    assert -1e-6 <= min(vals) and max(vals) <= 1.05


# -- long-horizon evaluation --------------------------------------------------

def test_large_t_reaches_equilibrium(equilibrium_data):
    sol = build_solution(equilibrium_data,
                         TruncationPolicy(n_max=160, tail_tol=1e-8), 3.0)
    xs = np.linspace(0.0, equilibrium_data.params.ell, 21)
    assert np.max(np.abs(eval_large_t(sol, xs, 2.0) - 2.0)) <= 1e-6


def test_large_t_periodic_regime():
    g = SmoothFn.from_callable(
        lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * np.asarray(t)),
        lambda t: np.pi * np.cos(2.0 * np.pi * np.asarray(t)))
    data = make_data(D=0.5, v=1.0, g=g)
    sol = build_solution(data, TruncationPolicy(n_max=60, tail_tol=1e-8),
                         8.0, kind=DANCKWERTS)
    xs = np.linspace(0.0, 1.0, 9)
    a = eval_large_t(sol, xs, 6.0)
    b = eval_large_t(sol, xs, 7.0)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_solution_forgets_the_starting_time():
    g = SmoothFn.from_callable(
        lambda t: 1.0 + 0.5 * np.sin(np.asarray(t)),
        lambda t: 0.5 * np.cos(np.asarray(t)))
    sols = {}
    for t0 in (0.0, -4.0, -8.0):
        d = make_data(D=0.5, v=1.0, mu=2.0, g=g,
                      exit=SmoothFn.constant(0.3), t0=t0)
        sols[t0] = build_solution(
            d, TruncationPolicy(n_max=80, tail_tol=1e-8), 3.0)
    xs = np.linspace(0.0, 1.0, 9)
    c0 = eval_C(sols[0.0], xs, 3.0)
    c4 = eval_C(sols[-4.0], xs, 3.0)
    c8 = eval_C(sols[-8.0], xs, 3.0)
    d1 = np.max(np.abs(c4 - c0))
    d2 = np.max(np.abs(c8 - c4))
    assert d2 <= 0.1 * d1
    lt = eval_large_t(sols[-8.0], xs, 3.0)
    assert np.max(np.abs(lt - c8)) <= 1e-8


def test_large_t_needs_horizon_without_decay(smoke_solution):
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ParameterError, match="tau_min"):
        eval_large_t(smoke_solution, xs, 1.5)
    out = eval_large_t(smoke_solution, xs, 1.5, tau_min=0.0)
    assert np.all(np.isfinite(out))
    with pytest.raises(ParameterError):
        eval_large_t(smoke_solution, xs, 1.5, tau_min=1.5)


# -- guards -------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ParameterError):
        TruncationPolicy(n_max=0)
    with pytest.raises(ParameterError):
        TruncationPolicy(tail_tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_policy_refuses_a_tail_tolerance_that_is_not_a_number(tol):
    # nan used to pass and reach the manifest as NaN; inf stopped at n = 8
    with pytest.raises(ParameterError, match="tail_tol"):
        TruncationPolicy(tail_tol=tol)


def test_build_validation(smoke_data):
    with pytest.raises(ParameterError, match="kind"):
        build_solution(smoke_data, TruncationPolicy(), 1.0, kind="neumann")
    with pytest.raises(ParameterError):
        build_solution(smoke_data, TruncationPolicy(), 0.0)
    unresolved = make_data(g=SmoothFn.constant(1.0))
    with pytest.raises(ParameterError, match="exit"):
        build_solution(unresolved, TruncationPolicy(), 1.0)


def test_mode_index_guards(smoke_solution):
    with pytest.raises(ParameterError, match="not kept"):
        project_forcing(smoke_solution, 10_000, 1.0)
    with pytest.raises(ParameterError, match="not kept"):
        project_forcing(smoke_solution, -1, 1.0)
    with pytest.raises(ParameterError, match="precedes"):
        smoke_solution.coefficients(-0.5)


def test_overflow_guards():
    with pytest.raises(NumericOverflowError):
        data = make_data(v=60.0, D=0.1, exit=SmoothFn.constant(0.0))
        build_solution(data, TruncationPolicy(n_max=20, tail_tol=1e-8), 1.0)
    data = make_data(v=2.0, D=0.1, exit=SmoothFn.constant(0.0))
    sol = build_solution(data, TruncationPolicy(n_max=20, tail_tol=1e-8), 2.0)
    with pytest.raises(NumericOverflowError):
        eval_C(sol, np.linspace(0.0, 1.0, 5), 71.0)


def _step_solution(level=1.0, **params):
    data = make_data(g=SmoothFn.constant(level), exit=SmoothFn.constant(0.0), **params)
    return build_solution(data, TruncationPolicy(n_max=20), 2.0)


# (call, its NumericOverflowError's message): overflows that no other test reaches
OVERFLOWS = {
    "base square of data near the double range": (
        lambda: _step_solution(level=1e300), "base-square integral left the double range"),
    "coefficients at r ell = 750": (lambda: _step_solution(D=1e-3, ell=1.5),
                                    r"exp\(1500\) overflows: r ell = v ell / \(2 D\) = 750 "),
    "coefficients of large data at s t_end = 685": (
        lambda: _step_solution(level=1e100, mu=340.0), "series coefficients left the double range"),
    "evaluation far outside the column": (lambda: eval_C(_step_solution(), 200.0, 1.0),
                                          "series evaluation overflowed at t = 1"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflows_are_reported_as_overflows(case):
    call, message = OVERFLOWS[case]
    with np.errstate(all="ignore"), pytest.raises(NumericOverflowError, match=message):
        call()


def test_scalar_and_array_shapes(smoke_solution):
    v = eval_C(smoke_solution, 0.5, 1.0)
    assert isinstance(v, float)
    arr = eval_C(smoke_solution, np.linspace(0.0, 1.0, 7), 1.0)
    assert arr.shape == (7,)
    assert arr[3] == pytest.approx(v, rel=1e-12)


# -- the build's dense march grid ---------------------------------------------

def _pulse_solve_data(ell=1.0, g=None):
    """The pulse-solve column (or a length of it), exit computed on 512 instants."""
    g = SmoothFn.smooth_pulse(0.1, 0.6, 1.0) if g is None else g
    return resolve_exit(make_data(ell=ell, g=g), 2.0, n_grid=512)


def _dense_times(data, t_end):
    return build_solution(data, TruncationPolicy(n_max=20), t_end)._dense_times


@pytest.mark.parametrize("t0", [0.0, 0.37])
def test_knot_free_dense_grid_is_the_linspace(t0):
    data = make_data(g=SmoothFn.constant(1.0), exit=SmoothFn.constant(0.2), t0=t0)
    t_end = t0 + 2.0
    assert np.array_equal(_dense_times(data, t_end), np.linspace(t0, t_end, 513))


def test_dense_grid_steps_evenly_between_its_knots():
    """Every knot in (t0, t_end) is an instant; each gap is cut into equal steps."""
    table = np.array([0.0, 0.0013, 0.3, 0.31, 0.5, 1.234567, 2.9, 3.5])
    exit_fn = SmoothFn.from_table(table, np.sin(table))
    data = make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0), exit=exit_fn, t0=0.0)
    t_end = 3.0
    dense = _dense_times(data, t_end)
    ks = [k for k in data.g.knots + exit_fn.knots if 0.0 < k < t_end]
    assert np.isin(ks, dense).all()
    ends = np.r_[0.0, np.unique(ks), t_end]
    assert dense[0] == 0.0 and dense[-1] == t_end
    h = t_end / 512
    for a, b in zip(ends[:-1], ends[1:]):
        i, j = np.searchsorted(dense, (a, b))
        steps = np.diff(dense[i:j + 1])
        assert steps.size == max(1, round((b - a) / h))
        assert np.allclose(steps, (b - a) / steps.size, rtol=0.0,
                           atol=4.0 * np.spacing(t_end))


def test_computed_exit_gets_one_step_per_table_interval():
    """A computed exit is a table on 512 instants: pulse-solve marches one
    step per table interval, plus its inlet's knots, and a chain segment
    fed and closed by tables on the same instants marches only those."""
    first = _pulse_solve_data()
    dense = _dense_times(first, 2.0)
    assert dense.size <= 520
    assert np.isin(first.exit.knots, dense).all()
    half = _pulse_solve_data(ell=0.5)
    second = _pulse_solve_data(ell=0.5, g=half.exit)
    assert np.array_equal(_dense_times(second, 2.0), np.asarray(second.exit.knots))
    assert len(second.exit.knots) == 512
