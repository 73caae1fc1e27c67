"""Parameter derivation, boundary lift, forcing shape, transform algebra."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coltrans import (
    NumericOverflowError,
    ParameterError,
    ProblemData,
    SmoothFn,
    TransportParams,
    invert,
    lift_H,
)
from coltrans import model
from coltrans.model import _forcing_sq
from conftest import make_data
from reference import forcing_F, initial_w


# -- derived rates ----------------------------------------------------------

@pytest.mark.parametrize("v,D,mu,R,r_want,s_want", [
    (2.0, 1.0, 0.0, 1.0, 1.0, 1.0),
    (1.0, 0.5, 0.0, 1.0, 1.0, 0.5),
    (1.0, 0.1, 0.05, 2.0, 5.0, 1.275),
])
def test_derive_params_hand_values(v, D, mu, R, r_want, s_want):
    p = TransportParams(R=R, D=D, v=v, mu=mu, gamma=0.0, ell=1.0)
    r, s = p.r, p.s
    assert r == pytest.approx(r_want, rel=1e-15)
    assert s == pytest.approx(s_want, rel=1e-15)


@pytest.mark.parametrize("bad", [
    dict(R=0.0), dict(R=-1.0), dict(D=0.0), dict(D=-0.3), dict(v=0.0),
    dict(v=-2.0), dict(ell=0.0), dict(ell=-1.0), dict(mu=-0.1),
    dict(gamma=float("inf")), dict(D=float("nan")),
])
def test_params_validation_rejects(bad):
    kw = dict(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.0, ell=1.0)
    kw.update(bad)
    with pytest.raises(ParameterError):
        TransportParams(**kw)


def test_production_without_decay_warns():
    with pytest.warns(UserWarning, match="no equilibrium"):
        TransportParams(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.5, ell=1.0)


def test_production_without_decay_warning_names_its_caller():
    """The warning used to point into the dataclass's generated __init__ (`<string>`)."""
    with pytest.warns(UserWarning, match="no equilibrium") as record:
        TransportParams(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.5, ell=1.0)
    assert [w.filename for w in record] == [__file__]


@settings(max_examples=200, deadline=None)
@given(
    R=st.floats(1e-3, 1e3), D=st.floats(1e-3, 1e3), v=st.floats(1e-3, 1e3),
    mu=st.floats(1e-9, 1e3), ell=st.floats(1e-3, 1e3),
)
def test_derived_rates_positive_finite(R, D, v, mu, ell):
    p = TransportParams(R=R, D=D, v=v, mu=mu, gamma=0.0, ell=ell)
    r, s = p.r, p.s
    assert np.isfinite(r) and r > 0.0
    assert np.isfinite(s) and s > 0.0


# -- smooth function factories ----------------------------------------------

def test_constant_factory():
    f = SmoothFn.constant(3.5)
    assert f.const_value == 3.5
    ts = np.linspace(-2.0, 7.0, 9)
    assert np.all(f.eval(ts) == 3.5)
    assert np.all(f.deriv(ts) == 0.0)
    assert f.eval(0.25) == 3.5


def test_polynomial_factory():
    f = SmoothFn.polynomial([1.0, 2.0, 3.0])
    assert f.eval(0.5) == pytest.approx(2.75, rel=1e-15)
    assert f.deriv(0.5) == pytest.approx(5.0, rel=1e-15)
    assert f.const_value is None
    assert SmoothFn.polynomial([4.0]).const_value == 4.0


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("coeffs", [[1.0, 2.0, 3.0], [4.0], [-5.0], [-0.0], 2.5,
                                    [0.0, -0.0], [-0.0, 1.0, -0.0],
                                    [0.0, 0.0, 2.0384, -2.912, 1.04],
                                    [0.36, -1.21, 0.0, 0.66, -1.29, 0.4, 0.43]])
def test_polynomial_is_numpys_polynomial_bit_for_bit(coeffs):
    """Horner after Polynomial's 0.0 + 1.0 t map: -0.0 reads as 0.0, and the
    slope of a constant c_0 is 0 c_0, -0.0 for c_0 < 0."""
    want = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    slope = want.deriv()
    got = SmoothFn.polynomial(coeffs)
    ts = np.array([-0.0, 0.0, 1.0, -1.0, 0.3, -2.7, 1e3, -1e-300, 12.5])
    for t in [ts, ts.reshape(3, 3), *ts, *ts.tolist()]:
        arg = np.asarray(t, dtype=float)
        assert _bits(got.eval(t)) == _bits(want(arg))
        assert _bits(got.deriv(t)) == _bits(slope(arg))
    assert got.const_value == (float(want.coef[0]) if want.degree() == 0 else None)


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], np.zeros((2, 2)), np.zeros(0)])
def test_polynomial_refuses_empty_or_nested_coefficients(coeffs):
    with pytest.raises(ValueError):
        SmoothFn.polynomial(coeffs)


@pytest.mark.parametrize("n", [12, 10])
def test_gauss_legendre_tables_are_the_rules(n):
    """The written-out rules: leggauss's values to within 2 ulp (another
    LAPACK may round differently), symmetric, and exact on x^k, k < 2n."""
    x, w = {12: (model._GL12_X, model._GL12_W), 10: (model._GL10_X, model._GL10_W)}[n]
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - ref_x) <= 2.0 * np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(w - ref_w) <= 2.0 * np.spacing(ref_w))
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-15


def test_legendre_tail_is_legvanders_bit_for_bit():
    x, w = model._GL10_X, model._GL10_W
    want = (np.polynomial.legendre.legvander(x, x.size - 1)[:, -2:]
            * w[:, None] * (np.arange(x.size - 2, x.size) + 0.5))
    assert _bits(model._GL10_TAIL) == _bits(want)
    # samples of a degree-7 polynomial have no P_8 or P_9 part
    assert np.max(np.abs((x ** 7 - 3.0 * x ** 2) @ model._GL10_TAIL)) <= 1e-14


def test_exp_pulse_shape():
    f = SmoothFn.exp_pulse(2.0, 1.0, 0.3)
    assert f.eval(1.0) == pytest.approx(2.0, rel=1e-15)
    assert f.deriv(1.0) == pytest.approx(0.0, abs=1e-15)
    assert f.eval(1.2) == pytest.approx(f.eval(0.8), rel=1e-14)
    with pytest.raises(ParameterError):
        SmoothFn.exp_pulse(1.0, 0.0, 0.0)


def test_smooth_pulse_values_and_knots():
    f = SmoothFn.smooth_pulse(0.1, 0.9, 2.0, ramp=0.15)
    assert f.knots == (0.1, 0.25, 0.9, 1.05)
    assert f.eval(0.1) == 0.0
    assert f.eval(0.25) == pytest.approx(2.0, rel=1e-14)
    assert f.eval(0.5) == pytest.approx(2.0, rel=1e-14)
    assert f.eval(1.05) == pytest.approx(0.0, abs=1e-14)
    assert f.eval(-1.0) == 0.0 and f.eval(5.0) == 0.0
    # C^1 at the ramp edges: derivative present and zero there
    for edge in f.knots:
        assert f.deriv(edge) == pytest.approx(0.0, abs=1e-14)
    assert f.deriv(0.175) > 0.0
    assert f.deriv(0.975) < 0.0


@pytest.mark.parametrize("args,kw", [
    ((0.9, 0.1, 1.0), {}),              # stop before start
    ((0.0, 1.0, 1.0), dict(ramp=0.6)),  # ramps overlap
    ((0.0, 1.0, 1.0), dict(ramp=0.0)),
])
def test_smooth_pulse_validation(args, kw):
    with pytest.raises(ParameterError):
        SmoothFn.smooth_pulse(*args, **kw)


def test_from_table_passes_knots_and_clamps():
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    vals = np.sin(ts)
    f = SmoothFn.from_table(ts, vals)
    assert np.max(np.abs(f.eval(ts) - vals)) <= 1e-14
    assert f.eval(-3.0) == vals[0]
    assert f.eval(9.0) == vals[-1]
    assert f.deriv(-3.0) == 0.0 and f.deriv(9.0) == 0.0
    assert f.knots == tuple(ts)


def test_from_table_derivative_matches_difference_quotient():
    ts = np.linspace(0.0, 2.0, 9)
    f = SmoothFn.from_table(ts, np.sin(ts))
    h = 1e-5
    for t in (0.3, 0.7, 1.31, 1.9):
        fd = (f.eval(t + h) - f.eval(t - h)) / (2.0 * h)
        assert f.deriv(t) == pytest.approx(fd, abs=1e-6)


def test_from_table_matches_scipy_pchip():
    """Values and slopes equal scipy's PCHIP bit for bit, end hold included."""
    import warnings

    from scipy.interpolate import PchipInterpolator

    from coltrans.exitflux import HalfLineProblem, exit_concentration

    readme = make_data(D=0.1, v=1.0, g=SmoothFn.smooth_pulse(0.1, 0.6, 1.0))
    exit_ts = np.linspace(0.0, 2.0, 512)
    rng = np.random.default_rng(7)
    flat_ts = np.sort(rng.uniform(0.0, 3.0, 40))
    tables = {
        "two knots": ([0.0, 1.0], [0.3, -0.7]),
        "flat runs": (flat_ts, np.repeat([0.0, 1.0, 1.0, -0.5, -0.5], 8)),
        "sign changes": (flat_ts, np.sin(4.0 * flat_ts)),
        # every term at the -0.0 knot is a negative zero; scipy reads +0.0
        "signed zero": ([0.0, 1.0, 2.0, 3.0], [0.82, -0.0, -1.0, -2.33]),
        "computed exit": (exit_ts, exit_concentration(
            HalfLineProblem.from_data(readme), exit_ts)),
    }
    for name, (ts, vals) in tables.items():
        ts, vals = np.asarray(ts, dtype=float), np.asarray(vals, dtype=float)
        mids = 0.5 * (ts[1:] + ts[:-1])
        q = np.r_[ts[0] - 1.0, ts, mids, ts[:-1] + 0.3 * np.diff(ts), ts[-1] + 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SmoothFn.from_table(ts, vals)
            got = f.eval(q), f.deriv(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = PchipInterpolator(ts, vals, extrapolate=False)
        inside = np.clip(q, ts[0], ts[-1])
        want = (np.where(q < ts[0], vals[0],
                         np.where(q > ts[-1], vals[-1], ref(inside))),
                np.where((q < ts[0]) | (q > ts[-1]), 0.0, ref.derivative()(inside)))
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), name
        assert got[0][0] == vals[0] and got[0][-1] == vals[-1], name
        assert got[1][0] == 0.0 and got[1][-1] == 0.0, name


@pytest.mark.parametrize("ts,vals", [
    ([0.0], [1.0]),
    ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
    ([1.0, 0.5], [1.0, 2.0]),
    ([0.0, 1.0], [1.0, float("nan")]),
])
def test_from_table_validation(ts, vals):
    with pytest.raises(ParameterError):
        SmoothFn.from_table(ts, vals)


# -- problem assembly -------------------------------------------------------

def test_problem_data_validation():
    with pytest.raises(ParameterError, match="t0"):
        make_data(t0=float("inf"))
    bad_phi = SmoothFn.from_callable(
        lambda x: np.where(x < 0.5, 0.0, np.inf),
        lambda x: np.zeros_like(x),
    )
    with pytest.raises(ParameterError, match="phi"):
        make_data(phi=bad_phi)
    bad_g = SmoothFn.from_callable(
        lambda t: np.full_like(t, np.inf), lambda t: np.zeros_like(t))
    with pytest.raises(ParameterError, match="g"):
        make_data(g=bad_g)


def test_require_exit_and_with_exit():
    data = make_data()
    assert data.exit is None
    with pytest.raises(ParameterError, match="exit"):
        data.require_exit()
    fitted = data.with_exit(SmoothFn.constant(0.0), computed=True)
    assert fitted.exit is not None and fitted.exit_computed
    assert fitted.require_exit().eval(1.0) == 0.0


# -- boundary lift ----------------------------------------------------------

def lift_case():
    return make_data(D=0.5, v=1.0, mu=0.2, gamma=0.0, ell=1.3,
                     g=SmoothFn.polynomial([1.0, 0.5]),
                     exit=SmoothFn.polynomial([0.3, -0.1, 0.02]))


def test_lift_endpoint_values():
    data = lift_case()
    p = data.params
    for t in (0.0, 0.7, 2.1):
        H0, _, _ = lift_H(data, 0.0, t)
        He, _, _ = lift_H(data, p.ell, t)
        assert H0 == pytest.approx(2.0 * data.g.eval(t), rel=1e-15)
        want = 2.0 * np.exp(-p.r * p.ell) * data.exit.eval(t)
        assert He == pytest.approx(want, rel=1e-14)


def test_lift_flat_at_both_faces():
    data = lift_case()
    p = data.params
    h = 1e-4
    for t in (0.0, 1.1):
        # one-sided second-order slopes at each face
        Ha = np.array([lift_H(data, xq, t)[0] for xq in (0.0, h, 2 * h)])
        slope0 = (-3 * Ha[0] + 4 * Ha[1] - Ha[2]) / (2 * h)
        Hb = np.array([lift_H(data, p.ell - xq, t)[0] for xq in (0.0, h, 2 * h)])
        slope1 = (3 * Hb[0] - 4 * Hb[1] + Hb[2]) / (2 * h)
        scale = 1.0 + abs(Ha[0]) + abs(Hb[0])
        assert abs(slope0) <= 1e-6 * scale
        assert abs(slope1) <= 1e-6 * scale


def test_lift_midpoint_and_partials():
    data = make_data(D=0.5, v=1.0, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    H, H_t, H_xx = lift_H(data, 0.5, 0.9)
    assert H == pytest.approx(1.0, rel=1e-15)
    assert H_t == 0.0
    assert H_xx == pytest.approx(0.0, abs=1e-15)


def test_lift_time_partial_consistent():
    data = lift_case()
    h = 1e-5
    for (x, t) in [(0.2, 0.5), (0.9, 1.7)]:
        _, H_t, _ = lift_H(data, x, t)
        fd = (lift_H(data, x, t + h)[0] - lift_H(data, x, t - h)[0]) / (2 * h)
        assert H_t == pytest.approx(fd, abs=1e-8)


def test_lift_second_space_partial_consistent():
    data = lift_case()
    h = 1e-4
    for (x, t) in [(0.3, 0.4), (0.8, 1.2)]:
        _, _, H_xx = lift_H(data, x, t)
        fd = (lift_H(data, x + h, t)[0] - 2 * lift_H(data, x, t)[0]
              + lift_H(data, x - h, t)[0]) / (h * h)
        assert H_xx == pytest.approx(fd, abs=1e-5)


# -- forcing decomposition ---------------------------------------------------

def test_forcing_zero_for_zero_data():
    data = make_data(exit=SmoothFn.constant(0.0))
    xs = np.linspace(0.0, 1.0, 7)
    F, F1, F2 = forcing_F(data, xs, 0.8)
    assert np.max(np.abs(F)) == 0.0
    assert np.max(np.abs(F1)) == 0.0
    assert np.max(np.abs(F2)) == 0.0


def test_forcing_hand_value_at_inlet():
    data = make_data(D=0.5, v=1.0, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    p = data.params
    pref = np.pi ** 2 * p.D / (p.ell ** 2 * p.R) + p.s
    F, F1, F2 = forcing_F(data, 0.0, 0.3)
    assert F == pytest.approx(-(pref + p.s), rel=1e-14)
    assert F2 == 0.0


def test_forcing_has_three_term_form():
    """F(x, t) must be a * e^{-r x} + b(t) cos(pi x / ell) + c(t)."""
    data = make_data(D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4,
                     g=SmoothFn.polynomial([0.2, 1.0, -0.3]),
                     exit=SmoothFn.polynomial([0.1, 0.25]))
    p = data.params
    rng = np.random.default_rng(42)
    for t in (0.0, 0.6, 1.9):
        basis_x = np.array([0.0, 0.45 * p.ell, p.ell])
        A = np.column_stack([
            np.exp(-p.r * basis_x),
            np.cos(np.pi * basis_x / p.ell),
            np.ones(3),
        ])
        rhs = np.array([forcing_F(data, xb, t)[0] for xb in basis_x])
        a, b, c = np.linalg.solve(A, rhs)
        assert a == pytest.approx(p.gamma / p.R, rel=1e-10)
        xs = rng.uniform(0.0, p.ell, size=10)
        for x in xs:
            want = (a * np.exp(-p.r * x) + b * np.cos(np.pi * x / p.ell) + c)
            got = forcing_F(data, x, t)[0]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(got))


def test_forcing_split_sums_to_total():
    data = lift_case()
    xs = np.linspace(0.0, data.params.ell, 9)
    F, F1, F2 = forcing_F(data, xs, 0.7)
    assert np.max(np.abs(F - (F1 + F2))) <= 1e-15 * (1.0 + np.max(np.abs(F)))


def test_forcing_square_closed_form_matches_quadrature(loaded_data):
    """int_0^ell F^2 dx against 12-point Gauss-Legendre; gamma != 0 brings in e^{-r x}."""
    ell = loaded_data.params.ell
    nodes, wts = np.polynomial.legendre.leggauss(12)
    xs, wts = 0.5 * ell * (1.0 + nodes), 0.5 * ell * wts
    ts = np.array([0.0, 0.15, 0.5, 0.95, 1.7])  # before, on and after g's ramps
    want = np.array([wts @ forcing_F(loaded_data, xs, t)[0] ** 2 for t in ts])
    assert np.all(np.abs(_forcing_sq(loaded_data, ts) - want) <= 1e-12 * want)


def test_forcing_square_overflow_is_one_error_and_no_warning():
    data = make_data(g=SmoothFn.constant(1e300), exit=SmoothFn.constant(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="forcing-square integral"):
            _forcing_sq(data, np.linspace(0.0, 1.0, 5))


# -- initial transform -------------------------------------------------------

def test_initial_w_zero_data():
    data = make_data(exit=SmoothFn.constant(0.0))
    xs = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(initial_w(data, xs))) == 0.0


def test_initial_w_cancels_constructed_profile():
    """phi = e^{r x} H(x, t0) makes the transformed start identically zero."""
    base = make_data(D=0.5, v=1.0, g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    p = base.params

    def phi_fn(x):
        return np.exp(p.r * x) * (1.0 + np.cos(np.pi * x / p.ell))

    def phi_d(x):
        return (p.r * phi_fn(x)
                - np.exp(p.r * x) * (np.pi / p.ell) * np.sin(np.pi * x / p.ell))

    data = make_data(D=0.5, v=1.0, phi=SmoothFn.from_callable(phi_fn, phi_d),
                     g=SmoothFn.constant(1.0), exit=SmoothFn.constant(0.0))
    xs = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(initial_w(data, xs))) <= 1e-14


def test_initial_w_inlet_value():
    data = make_data(phi=SmoothFn.constant(1.0), g=SmoothFn.constant(1.0),
                     exit=SmoothFn.constant(0.0))
    assert initial_w(data, 0.0) == pytest.approx(-1.0, rel=1e-15)


def test_invert_roundtrip():
    rng = np.random.default_rng(7)
    r, s = 1.25, 0.8
    for _ in range(20):
        x = rng.uniform(0.0, 2.0)
        t = rng.uniform(0.0, 3.0)
        C = rng.uniform(-2.0, 2.0)
        H = rng.uniform(-2.0, 2.0)
        w = (C * np.exp(-r * x) - H) * np.exp(s * t)
        back = invert(w, H, x, t, r, s)
        assert back == pytest.approx(C, rel=1e-13, abs=1e-13)
