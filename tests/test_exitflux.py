"""Half-line flux closure: kernel, companion solution, exit curve."""

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, erfc

from coltrans import (
    FluxTransformError,
    ParameterError,
    QuadratureError,
    SmoothFn,
    TransportParams,
    exit_concentration,
    exit_concentration_large_t,
    exit_curve,
    resolve_exit,
)
from coltrans import exitflux
from coltrans.exitflux import HalfLineProblem, eval_u
from conftest import make_data


def erfc_pair(p, t):
    """Flux concentration at the exit for a unit inlet step on clean ground."""
    t = np.asarray(t, dtype=float)
    den = 2.0 * np.sqrt(p.D * t / p.R)
    a = erfc((p.ell - p.v * t / p.R) / den)
    b = np.exp(p.v * p.ell / p.D) * erfc((p.ell + p.v * t / p.R) / den)
    return 0.5 * (a + b)


# -- companion solution oracles -----------------------------------------------

def test_half_line_erf_oracle():
    """Unit scaled initial state, quiet inlet: u e^{-s t} is a pure erf front."""
    p = TransportParams(R=1.0, D=0.5, v=1.0, mu=0.0, gamma=0.0, ell=1.0)
    hp = HalfLineProblem(
        params=p, t0=0.0, g=SmoothFn.constant(0.0), gm=0.0,
        phi_flux=lambda x: np.exp(p.r * np.asarray(x, dtype=float)),
        zeta_knots=())
    kap = p.D / p.R
    for x in (0.3, 1.0, 2.5):
        for t in (0.25, 1.0, 4.0):
            want = np.exp(-p.s * t) * erf(x / (2.0 * np.sqrt(kap * t)))
            assert eval_u(hp, x, t) == pytest.approx(want, rel=1e-9, abs=1e-12)
    un = eval_u(hp, 1.0, 0.5) * np.exp(p.s * 0.5)
    assert un == pytest.approx(erf(1.0 / (2.0 * np.sqrt(kap * 0.5))), rel=1e-9)


def test_zero_data_gives_zero_exit():
    data = make_data()
    hp = HalfLineProblem.from_data(data)
    for t in (0.3, 1.0, 2.0):
        assert eval_u(hp, 0.7, t) == pytest.approx(0.0, abs=1e-13)
        assert exit_concentration(hp, t) == pytest.approx(0.0, abs=1e-12)


def test_exit_matches_erfc_pair(smoke_data):
    hp = HalfLineProblem.from_data(smoke_data)
    for t in np.linspace(0.05, 2.0, 15):
        want = float(erfc_pair(smoke_data.params, t))
        assert exit_concentration(hp, float(t)) == pytest.approx(
            want, rel=1e-6, abs=1e-9)


def test_equilibrium_exit_level(equilibrium_data):
    hp = HalfLineProblem.from_data(equilibrium_data)
    assert hp.gm == pytest.approx(2.0)
    for t in (0.5, 2.0):
        assert exit_concentration(hp, t) == pytest.approx(2.0, abs=1e-9)


@mp.workdps(20)
def _loaded_u_mp(p, x, t):
    """u(x, t) e^{-s t} on `loaded_data`, every quantity in 20-digit mpmath.

    The initial state 1.04 z^2 (1.4 - z)^2 vanishes with its slope at
    z = ell, so its flux form continues as zero past the column.
    """
    D, v, R, mu, gamma, ell = (mp.mpf(c) for c in
                               (p.D, p.v, p.R, p.mu, p.gamma, p.ell))
    kap, r, s, gm = D / R, v / (2 * D), (v * v / (4 * D) + mu) / R, gamma / mu
    c = [mp.mpf(k) for k in (2.0384, -2.912, 1.04)]

    def initial(z):
        if z >= ell:
            flux = 0
        else:
            phi = z * z * (c[0] + z * (c[1] + z * c[2]))
            dphi = z * (2 * c[0] + z * (3 * c[1] + z * 4 * c[2]))
            flux = phi - D / v * dphi
        return (flux - gm) * mp.exp(-r * z)

    def edge(u):
        u = min(max(u, 0), 1)
        return u * u * (3 - 2 * u)

    def inlet(tau):
        ramp = mp.mpf(0.15)
        return edge((tau - mp.mpf(0.1)) / ramp) - edge((tau - mp.mpf(0.9)) / ramp)

    x, t = mp.mpf(x), mp.mpf(t)
    w = 2 * mp.sqrt(kap * t)
    gauss = lambda e: mp.exp(-e * e) / mp.sqrt(mp.pi)
    direct = mp.quad(lambda e: gauss(e) * initial(x + w * e),
                     sorted({-x / w, (ell - x) / w}) + [mp.inf])
    image = mp.quad(lambda e: gauss(e) * initial(w * e - x),
                    [x / w, (ell + x) / w, mp.inf])
    a = x * x / (4 * kap)
    cuts = {mp.mpf(0), min(mp.sqrt(a), mp.sqrt(t)), mp.sqrt(t)}
    cuts |= {mp.sqrt(t - k) for k in (0.1, 0.25, 0.9, 1.05) if k < t}
    duhamel = mp.quad(lambda q: mp.exp(-a / q**2 - s * q**2) / q**2
                      * (inlet(t - q * q) - gm), sorted(cuts))
    return (direct - image) * mp.exp(-s * t) + x / mp.sqrt(mp.pi * kap) * duhamel


def test_batched_closure_against_mpmath(loaded_data):
    """phi, mu and gamma all nonzero; both parts and the inlet pulse active."""
    hp = HalfLineProblem.from_data(loaded_data)
    p = loaded_data.params
    ts = np.array([0.3, 1.2, 2.4])
    want = [float(_loaded_u_mp(p, p.ell, t)) for t in ts]
    got = (exit_concentration(hp, ts) - hp.gm) * np.exp(-p.r * p.ell)
    assert np.max(np.abs(got - want)) <= 1e-13
    for x, t in ((0.35, 0.3), (0.35, 1.2), (2.0, 1.0)):
        assert eval_u(hp, x, t) == pytest.approx(
            float(_loaded_u_mp(p, x, t)), rel=1e-13, abs=1e-13)


def test_exit_curve_is_one_batched_call(loaded_data):
    curve = exit_curve(loaded_data, 2.5, n_grid=64)
    hp = HalfLineProblem.from_data(loaded_data)
    grid = np.linspace(loaded_data.t0, 2.5, 64)
    batch = exit_concentration(hp, grid)
    assert batch.shape == grid.shape
    assert np.array_equal(curve.eval(grid), batch)
    assert isinstance(exit_concentration(hp, 1.2), float)


def _narrow_bump_inlet(knots=()):
    """Inlet pulse of width 0.05 at t = 1; without knots the panels miss it."""
    return SmoothFn.from_callable(
        lambda t: np.exp(-((np.asarray(t) - 1.0) / 0.05) ** 2),
        lambda t: (-800.0 * (np.asarray(t) - 1.0)
                   * np.exp(-((np.asarray(t) - 1.0) / 0.05) ** 2)),
        knots=knots)


def refinements(monkeypatch):
    """Record (rows, panels) of every `_panel_rule` pass past the first."""
    passes = []
    real = exitflux._panel_rule

    def counted(integrand, cuts, tol, **kwargs):
        if kwargs.get("panels", exitflux._PANELS) > exitflux._PANELS:
            passes.append((cuts.shape[0], kwargs["panels"]))
        return real(integrand, cuts, tol, **kwargs)

    monkeypatch.setattr(exitflux, "_panel_rule", counted)
    return passes


def test_missed_rows_are_rescued_by_panel_doubling(monkeypatch):
    passes = refinements(monkeypatch)
    ts = np.array([1.05, 1.5, 1.9])
    hinted = HalfLineProblem.from_data(make_data(
        g=_narrow_bump_inlet(knots=(0.85, 0.95, 1.0, 1.05, 1.15))))
    want = exit_concentration(hinted, ts)
    assert not passes
    blind = HalfLineProblem.from_data(make_data(g=_narrow_bump_inlet()))
    got = exit_concentration(blind, ts)
    assert passes
    assert passes[0][1] == 2 * exitflux._PANELS
    assert np.max(np.abs(got - want)) <= 1e-12


def test_panel_rule_alone_meets_tolerance(monkeypatch, loaded_data):
    """No row refined in the inlet layer, at early times, or on the README pulse."""
    passes = refinements(monkeypatch)
    hp = HalfLineProblem.from_data(loaded_data)
    for x in (1e-7, 1e-3, 0.4, 1.4, 3.0):
        for t in (1e-8, 1e-3, 0.3, 2.5):
            eval_u(hp, x, t)
    pulse = make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0))
    exit_curve(pulse, 2.0, n_grid=512)
    assert not passes


def test_failed_rescue_raises(monkeypatch):
    """A row still missing the tolerance once the doublings run out raises."""
    monkeypatch.setattr(exitflux, "_DOUBLINGS", 0)
    hp = HalfLineProblem.from_data(make_data(g=_narrow_bump_inlet()))
    with pytest.raises(QuadratureError, match="after 0 doublings"):
        exit_concentration(hp, np.array([1.5]))


def test_tabulated_inlet_closure_uses_every_knot():
    """Criterion 8's second segment: the inlet is a 256-knot table.

    The reference is an adaptive quad handed every knot; capping the split
    hints at 31 left the closure up to 2e-10 away from it.
    """
    seg1 = resolve_exit(make_data(ell=0.5, g=SmoothFn.constant(1.0)), 2.0,
                        n_grid=256)
    g = seg1.require_exit()
    data = make_data(ell=0.5, g=g)
    p = data.params
    kap = p.D / p.R
    a = p.ell * p.ell / (4.0 * kap)
    ts = np.array([0.3, 0.9, 1.2, 1.9])
    got = exit_concentration(HalfLineProblem.from_data(data), ts)
    for t, val in zip(ts, got):
        pts = [c for c in [np.sqrt(a)] + [np.sqrt(t - k) for k in g.knots
                                          if 0.0 < k < t]
               if c < np.sqrt(t)]
        duhamel, _ = quad(
            lambda q: np.exp(-a / q**2 - p.s * q**2) / q**2 * g.eval(t - q * q),
            0.0, np.sqrt(t), points=pts, limit=2 * len(pts) + 200,
            epsabs=1e-13, epsrel=1e-13)
        # zero initial state and no production: the Duhamel part is all
        want = np.exp(p.r * p.ell) * p.ell / np.sqrt(np.pi * kap) * duhamel
        assert abs(val - want) <= 1e-12


# -- edges and continuity -----------------------------------------------------

def test_eval_u_edge_cases(loaded_data):
    hp = HalfLineProblem.from_data(loaded_data)
    assert eval_u(hp, 0.7, 0.0) == pytest.approx(
        float(hp.initial_scaled(0.7)), rel=1e-14)
    assert eval_u(hp, 0.0, 1.3) == pytest.approx(
        float(hp.shifted(1.3)), rel=1e-14)
    with pytest.raises(ParameterError):
        eval_u(hp, -0.1, 1.0)
    with pytest.raises(ParameterError):
        eval_u(hp, 0.5, -0.2)


def test_solution_continuous_at_start(loaded_data):
    hp = HalfLineProblem.from_data(loaded_data)
    for x in (0.4, 0.9):
        want = float(hp.initial_scaled(x))
        assert eval_u(hp, x, 1e-8) == pytest.approx(want, abs=1e-6)


def test_solution_continuous_at_inlet(smoke_data):
    hp = HalfLineProblem.from_data(smoke_data)
    for t in (0.5, 1.5):
        wall = float(hp.shifted(t))
        assert abs(eval_u(hp, 1e-3, t) - wall) <= 0.01


# -- memoized curve and resolution --------------------------------------------

def test_exit_curve_interpolation_defect(smoke_data):
    hp = HalfLineProblem.from_data(smoke_data)
    curve = exit_curve(smoke_data, 2.0, n_grid=256)
    probes = np.linspace(0.13, 1.93, 9)
    worst = max(abs(float(curve.eval(t)) - exit_concentration(hp, float(t)))
                for t in probes)
    assert worst <= 1e-5


def test_resolve_exit_attaches_and_is_idempotent():
    data = make_data(g=SmoothFn.constant(1.0))
    assert data.exit is None
    done = resolve_exit(data, 2.0, n_grid=64)
    assert done.exit is not None
    assert done.exit_computed
    again = resolve_exit(done, 5.0, n_grid=128)
    assert again is done
    measured = make_data(g=SmoothFn.constant(1.0), exit=SmoothFn.constant(0.0))
    assert not resolve_exit(measured, 2.0).exit_computed


def test_exit_curve_validation(smoke_data):
    with pytest.raises(ParameterError):
        exit_curve(smoke_data, smoke_data.t0)
    with pytest.raises(ParameterError):
        exit_curve(smoke_data, 2.0, n_grid=7)


def test_tabulated_inlet_curve():
    """Dense interpolated inlet tables must not choke the quadrature."""
    ts = np.linspace(0.0, 2.0, 256)
    table = SmoothFn.from_table(ts, np.sin(np.pi * ts / 2.0) ** 2)
    smooth = SmoothFn.from_callable(
        lambda t: np.sin(np.pi * np.asarray(t) / 2.0) ** 2,
        lambda t: np.pi / 2.0 * np.sin(np.pi * np.asarray(t)))
    a = HalfLineProblem.from_data(make_data(D=0.4, g=table))
    b = HalfLineProblem.from_data(make_data(D=0.4, g=smooth))
    for t in (0.6, 1.2, 1.9):
        va = exit_concentration(a, t)
        vb = exit_concentration(b, t)
        assert np.isfinite(va)
        assert va == pytest.approx(vb, abs=2e-6)


# -- long-time closure --------------------------------------------------------

def test_large_t_matches_direct_evaluation():
    data = make_data(D=0.5, mu=0.3, g=SmoothFn.constant(1.0))
    hp = HalfLineProblem.from_data(data)
    direct = exit_concentration(hp, 30.0)
    boundary_only = exit_concentration_large_t(data.params, data.g, 30.0)
    assert abs(direct - boundary_only) <= 1e-9


def test_large_t_steady_closed_form():
    # steady exit level: gm + (g - gm) e^{m ell}, m the decaying spatial rate
    cases = [
        (TransportParams(R=1.0, D=0.5, v=1.0, mu=0.3, gamma=0.0, ell=1.0), 1.0),
        (TransportParams(R=1.5, D=0.8, v=1.2, mu=0.5, gamma=1.0, ell=1.3), 3.0),
    ]
    for p, g_level in cases:
        gm = p.gamma / p.mu
        m = (p.v - np.sqrt(p.v * p.v + 4.0 * p.D * p.mu)) / (2.0 * p.D)
        want = gm + (g_level - gm) * np.exp(m * p.ell)
        got = exit_concentration_large_t(p, SmoothFn.constant(g_level), 40.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_production_without_decay_is_rejected():
    with pytest.warns(UserWarning):
        data = make_data(mu=0.0, gamma=0.3, g=SmoothFn.constant(1.0))
    with pytest.raises(FluxTransformError):
        HalfLineProblem.from_data(data)
    with pytest.raises(FluxTransformError):
        exit_curve(data, 1.0)
    with pytest.raises(FluxTransformError):
        exit_concentration_large_t(data.params, data.g, 5.0)


# -- a column at rest ---------------------------------------------------------

# (phi level, parameters): the pulse-solve column, a column resting at its
# production equilibrium gamma/mu = 0.5, and one off it (gamma/mu = 0)
_REST = {"pulse-solve": (0.0, {}),
         "at-equilibrium": (0.5, dict(mu=0.5, gamma=0.25)),
         "off-equilibrium": (0.3, dict(mu=0.5, gamma=0.0))}


def _rest_problems(case):
    """The case's column with a constant phi, and with the same phi as a
    callable, whose constancy the closure cannot see."""
    level, params = _REST[case]
    g = SmoothFn.smooth_pulse(0.1, 0.6, 1.0)
    flat = SmoothFn.from_callable(lambda x: np.full_like(x, level), np.zeros_like)
    return [HalfLineProblem.from_data(make_data(phi=phi, g=g, **params))
            for phi in (SmoothFn.constant(level), flat)]


def count_initial_parts(monkeypatch):
    calls = []
    initial_part = exitflux._initial_part

    def counted(*args, **kwargs):
        calls.append(1)
        return initial_part(*args, **kwargs)

    monkeypatch.setattr(exitflux, "_initial_part", counted)
    return calls


@pytest.mark.parametrize("case", ["pulse-solve", "at-equilibrium"])
def test_column_at_rest_skips_the_initial_part(case, monkeypatch):
    """phi = gamma/mu makes Phi = 0: skipping gives the integrated C_E bit for bit."""
    at_rest, general = _rest_problems(case)
    assert at_rest.at_rest and not general.at_rest
    ts = np.linspace(0.0, 2.0, 512)
    calls = count_initial_parts(monkeypatch)
    skipped = exit_concentration(at_rest, ts)
    assert calls == []
    integrated = exit_concentration(general, ts)
    assert calls == [1]
    assert np.array_equal(skipped, integrated)


def test_pulse_solve_closure_makes_no_initial_part_call(monkeypatch):
    data = make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0))
    calls = count_initial_parts(monkeypatch)
    resolved = resolve_exit(data, 2.0, n_grid=512)
    assert calls == []
    assert np.max(resolved.exit.eval(np.linspace(0.0, 2.0, 81))) > 0.1


def test_constant_phi_off_equilibrium_still_integrates(monkeypatch):
    const, general = _rest_problems("off-equilibrium")
    assert not const.at_rest
    ts = np.linspace(0.0, 2.0, 512)
    calls = count_initial_parts(monkeypatch)
    got = exit_concentration(const, ts)
    assert calls == [1]
    assert np.array_equal(got, exit_concentration(general, ts))
    # the exit first reads the resident 0.3, as it decays: the initial part
    assert got[1] == pytest.approx(0.3 * np.exp(-0.5 * ts[1]), rel=1e-6)


# -- the lag convolution on a uniform grid ------------------------------------

def _per_row(monkeypatch):
    """Make every instant grid take the per-row rule."""
    monkeypatch.setattr(exitflux, "_grid_step", lambda t0, ts: None)


def _chain_inlet(n_grid=512):
    """Segment 2 of the README chain: its inlet is segment 1's 512-knot exit table."""
    seg1 = resolve_exit(make_data(ell=0.5, g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)),
                        2.0, n_grid=n_grid)
    return make_data(ell=0.5, g=seg1.require_exit())


@pytest.mark.parametrize("case", ["pulse-solve", "loaded", "table-inlet"])
def test_lag_path_matches_the_per_row_rule(case, loaded_data, monkeypatch):
    data, t_end = {
        "pulse-solve": (make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)), 2.0),
        "loaded": (loaded_data.with_exit(None), 2.5),
        "table-inlet": (_chain_inlet(), 2.0),
    }[case]
    hp = HalfLineProblem.from_data(data)
    assert hp.at_rest == (case != "loaded")
    ts = np.linspace(data.t0, t_end, 512)
    lag = exit_concentration(hp, ts)
    # every 15th row and the last: the per-row rule is slow on a table inlet
    rows = np.r_[np.arange(0, 511, 15), 511]
    _per_row(monkeypatch)
    ref = exit_concentration(hp, ts[rows])
    assert np.max(np.abs(lag[rows] - ref)) <= 1e-12


def test_table_inlet_at_grid_instants_matches_adaptive_quad():
    """The 256-knot inlet of `test_tabulated_inlet_closure_uses_every_knot`,
    now at instants of its own grid, where the lag path runs."""
    seg1 = resolve_exit(make_data(ell=0.5, g=SmoothFn.constant(1.0)), 2.0,
                        n_grid=256)
    g = seg1.require_exit()
    data = make_data(ell=0.5, g=g)
    p = data.params
    kap = p.D / p.R
    a = p.ell * p.ell / (4.0 * kap)
    grid = np.asarray(g.knots)
    got = exit_concentration(HalfLineProblem.from_data(data), grid)
    for i in (38, 115, 153, 242):
        t = grid[i]
        pts = [c for c in [np.sqrt(a)] + [np.sqrt(t - k) for k in g.knots
                                          if 0.0 < k < t]
               if c < np.sqrt(t)]
        duhamel, _ = quad(
            lambda q: np.exp(-a / q**2 - p.s * q**2) / q**2 * g.eval(t - q * q),
            0.0, np.sqrt(t), points=pts, limit=2 * len(pts) + 200,
            epsabs=1e-13, epsrel=1e-13)
        want = np.exp(p.r * p.ell) * p.ell / np.sqrt(np.pi * kap) * duhamel
        assert abs(got[i] - want) <= 1e-12


def _count(monkeypatch, name):
    calls = []
    real = getattr(exitflux, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exitflux, name, counted)
    return calls


def test_readme_pulse_exit_curve_is_one_lag_convolution(monkeypatch):
    rows = _count(monkeypatch, "_boundary_part")
    lags = _count(monkeypatch, "_lag_part")
    exit_curve(make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)), 2.0, n_grid=512)
    assert rows == [] and lags == [1]


@pytest.mark.parametrize("ts, paths", [(np.linspace(0.0, 2.0, 512), ([1], [])),
                                       (np.array([0.3, 0.9, 1.2, 1.9]), ([], [1]))])
def test_both_duhamel_paths_integrate_the_one_kernel(ts, paths, monkeypatch):
    """Doubling `_kernel`'s k doubles the README pulse's exit on the lag path
    (its 512-point grid) and on the per-row rule (instants off any grid)."""
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)))
    plain = exit_concentration(hp, ts)
    real = exitflux._kernel

    def doubled(p, x):
        k, a = real(p, x)
        return (lambda u: 2.0 * k(u)), a

    monkeypatch.setattr(exitflux, "_kernel", doubled)
    lags = _count(monkeypatch, "_lag_part")
    rows = _count(monkeypatch, "_boundary_part")
    got = exit_concentration(hp, ts)
    assert (lags, rows) == paths and hp.at_rest and hp.gm == 0.0
    assert np.max(plain) > 0.1
    # doubling is exact in binary floating point, and no check here decides otherwise
    assert np.array_equal(got, 2.0 * plain)


@pytest.mark.parametrize("ts", [[1e-250], np.linspace(0.0, 1e-250, 9)[1:]])
def test_instants_within_1e_205_of_t0_read_zero(ts):
    """There u^{3/2} underflows with e^{-a/u}: the kernel reads 0, not 0/0, on
    the per-row rule (one instant) and on the lag path (a grid)."""
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.constant(1.0)))
    with np.errstate(divide="raise", invalid="raise"):
        got = exit_concentration(hp, np.asarray(ts))
    assert np.array_equal(got, np.zeros(len(ts)))


@pytest.mark.parametrize("ts", [[0.3, 0.9, 1.2, 1.9], [1.5], np.linspace(0.0, 2.0, 9) ** 2])
def test_instants_off_a_uniform_grid_take_the_per_row_rule(ts, monkeypatch):
    lags = _count(monkeypatch, "_lag_part")
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)))
    exit_concentration(hp, np.asarray(ts))
    assert lags == []


def test_unresolved_narrow_bump_falls_back_to_the_per_row_rule(monkeypatch):
    """Samples at 10 nodes of each 0.25-wide interval cannot follow a 0.05-wide
    bump: the Legendre-tail check sends the grid to the per-row rule."""
    ts = np.linspace(0.0, 2.0, 9)
    hinted = HalfLineProblem.from_data(make_data(
        g=_narrow_bump_inlet(knots=(0.85, 0.95, 1.0, 1.05, 1.15))))
    want = np.array([exit_concentration(hinted, t) for t in ts])
    rows = _count(monkeypatch, "_boundary_part")
    lags = _count(monkeypatch, "_lag_part")
    got = exit_concentration(HalfLineProblem.from_data(make_data(g=_narrow_bump_inlet())), ts)
    assert lags == [1] and rows == [1]
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("unsettled", ["whole intervals", "cut pieces"])
def test_unsettled_lag_moments_fall_back_to_the_per_row_rule(unsettled, monkeypatch):
    """Moments that do not settle within `_LAG_LEVELS` halvings, on the whole
    grid intervals or on the pieces an inlet knot cuts, refuse the lag path."""
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)))
    ts = np.linspace(0.0, 2.0, 65)   # the pulse's knots fall inside intervals
    lagged = exit_concentration(hp, ts)
    if unsettled == "whole intervals":
        monkeypatch.setattr(exitflux, "_LAG_LEVELS", 0)
    else:
        real = exitflux._lag_moments

        def pieces_unsettled(kern, h, lo, hi, lags, tol):
            whole = (lo, hi) == (0.0, 1.0)
            return real(kern, h, lo, hi, lags, tol) if whole else None

        monkeypatch.setattr(exitflux, "_lag_moments", pieces_unsettled)
    rows = _count(monkeypatch, "_boundary_part")
    lags = _count(monkeypatch, "_lag_part")
    got = exit_concentration(hp, ts)
    assert lags == [1] and rows == [1]
    assert np.max(np.abs(got - lagged)) <= 1e-12


def test_grid_longer_than_the_convolution_cap_takes_the_per_row_rule(monkeypatch):
    """np.convolve's cost grows like M^2: past `_LAG_ROWS` rows the grid is
    integrated row by row, to the same values."""
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0)))
    ts = np.linspace(0.0, 2.0, 65)
    lagged = exit_concentration(hp, ts)
    monkeypatch.setattr(exitflux, "_LAG_ROWS", 63)
    lags = _count(monkeypatch, "_lag_part")
    rows = exit_concentration(hp, ts)
    assert lags == []
    assert np.max(np.abs(rows - lagged)) <= 1e-12


def test_lag_path_takes_an_inlet_that_returns_one_value(monkeypatch):
    """A callable g may return a scalar for an array of instants."""
    ts = np.linspace(0.0, 2.0, 33)
    lags = _count(monkeypatch, "_lag_part")
    scalar = SmoothFn.from_callable(lambda t: 1.0, lambda t: 0.0)
    got = exit_concentration(HalfLineProblem.from_data(make_data(g=scalar)), ts)
    want = exit_concentration(HalfLineProblem.from_data(make_data(g=SmoothFn.constant(1.0))), ts)
    assert lags == [1, 1]
    assert np.array_equal(got, want)


def test_knot_within_rounding_of_a_grid_instant_cuts_no_sliver(monkeypatch):
    """A pulse knot 2e-15 of an interval below a grid instant: cutting there
    would leave a piece whose nodes round onto the instant, where the kernel
    is 0/0.  The knot counts as on the instant, and the lag path holds."""
    ts = np.linspace(0.0, 2.0, 33)
    start = float(ts[5] - 2e-15 * (ts[1] - ts[0]))
    hp = HalfLineProblem.from_data(make_data(g=SmoothFn.smooth_pulse(start, 1.2, 1.0)))
    lags = _count(monkeypatch, "_lag_part")
    with np.errstate(divide="raise", invalid="raise"):
        got = exit_concentration(hp, ts)
    assert lags == [1]
    _per_row(monkeypatch)
    assert np.max(np.abs(got - exit_concentration(hp, ts))) <= 1e-12
