"""Eigenvalue placement, norms, orthogonality, root bracketing."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from coltrans import (
    BracketingError,
    EigenPair,
    ParameterError,
    QuadratureError,
    TransportParams,
    inner_product,
    robin_eigenpair,
)
from coltrans import NumericOverflowError, eigensystem
from coltrans.eigensystem import (
    DANCKWERTS,
    ROBIN,
    _danckwerts_residual,
    _phi_matrices,
    spectrum,
)
from conftest import half_wave_points, traced_peak
from reference import danckwerts_pair, eval_phi


def params_for(r, ell):
    # v = 1 and D = 1/(2 r) realize any requested tilt rate
    return TransportParams(R=1.0, D=1.0 / (2.0 * r), v=1.0, mu=0.0,
                           gamma=0.0, ell=ell)


UNIT = params_for(1.0, 1.0)


# -- Robin family closed forms -----------------------------------------------

def test_robin_eigenvalues_closed_form():
    assert robin_eigenpair(0, UNIT).lam == pytest.approx(-1.0, rel=1e-15)
    assert robin_eigenpair(1, UNIT).lam == pytest.approx(np.pi ** 2, rel=1e-15)
    assert robin_eigenpair(4, UNIT).lam == pytest.approx(16 * np.pi ** 2, rel=1e-15)


def test_robin_norms_against_quadrature():
    pair0 = robin_eigenpair(0, UNIT)
    want0 = (np.exp(2.0) - 1.0) / 2.0
    assert pair0.norm == pytest.approx(want0, rel=1e-14)
    quad0 = inner_product(lambda x: np.exp(x), lambda x: np.exp(x), 0.0, 1.0)
    assert pair0.norm == pytest.approx(quad0, rel=1e-12)

    pair1 = robin_eigenpair(1, UNIT)
    want1 = (1.0 + np.pi ** 2) / (2.0 * np.pi ** 2)
    assert pair1.norm == pytest.approx(want1, rel=1e-14)

    def phi1(x):
        v, _ = eval_phi(pair1, x, UNIT.r)
        return v

    quad1 = inner_product(phi1, phi1, 0.0, 1.0,
                          points=half_wave_points(pair1, UNIT))
    assert pair1.norm == pytest.approx(quad1, rel=1e-12)


def test_eval_phi_inlet_normalization():
    for pair in [robin_eigenpair(n, UNIT) for n in (0, 1, 2, 9)] + [
            danckwerts_pair(n, UNIT) for n in (0, 1, 2, 9)]:
        v, d = eval_phi(pair, 0.0, UNIT.r)
        assert v == 1.0
        assert d == UNIT.r


def test_eval_phi_outlet_values():
    for n in (1, 2, 3, 8):
        v, _ = eval_phi(robin_eigenpair(n, UNIT), 1.0, UNIT.r)
        assert v == pytest.approx((-1.0) ** n, rel=1e-12)
    v, _ = eval_phi(robin_eigenpair(2, UNIT), 0.25, UNIT.r)
    assert v == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("r,ell", [(0.5, 1.0), (1.0, 1.0), (5.0, 2.0)])
def test_boundary_residuals(r, ell):
    p = params_for(r, ell)
    for n in range(0, 26):
        pair = robin_eigenpair(n, p)
        v0, d0 = eval_phi(pair, 0.0, r)
        ve, de = eval_phi(pair, ell, r)
        scale = 1.0 + abs(ve) * (1.0 + np.sqrt(abs(pair.lam)))
        assert abs(d0 - r * v0) <= 1e-10 * scale
        assert abs(de - r * ve) <= 1e-10 * scale
    for n in range(0, 26):
        pair = danckwerts_pair(n, p)
        v0, d0 = eval_phi(pair, 0.0, r)
        ve, de = eval_phi(pair, ell, r)
        scale = 1.0 + (1.0 + np.sqrt(pair.lam)) * max(abs(ve), 1.0)
        assert abs(d0 - r * v0) <= 1e-10 * scale
        assert abs(de + r * ve) <= 1e-9 * scale


def test_eigenfunction_satisfies_ode():
    p = params_for(1.3, 1.7)
    h = 1e-4
    for pair in (robin_eigenpair(0, p), robin_eigenpair(3, p),
                 danckwerts_pair(2, p)):
        for x in (0.3, 0.9, 1.4):
            vm, _ = eval_phi(pair, x - h, p.r)
            v0, _ = eval_phi(pair, x, p.r)
            vp, _ = eval_phi(pair, x + h, p.r)
            second = (vp - 2.0 * v0 + vm) / (h * h)
            assert abs(second + pair.lam * v0) <= 1e-4 * (1.0 + abs(pair.lam))


def test_derivative_matches_difference_quotient():
    p = params_for(0.8, 1.2)
    h = 1e-6
    for pair in (robin_eigenpair(0, p), robin_eigenpair(5, p),
                 danckwerts_pair(4, p)):
        for x in (0.2, 0.7, 1.1):
            vm, _ = eval_phi(pair, x - h, p.r)
            vp, _ = eval_phi(pair, x + h, p.r)
            _, d = eval_phi(pair, x, p.r)
            assert d == pytest.approx((vp - vm) / (2.0 * h), abs=5e-7 * (1 + abs(d)))


# -- orthogonality -----------------------------------------------------------

def test_classical_sine_inner_products():
    got = inner_product(lambda x: np.sin(np.pi * x),
                        lambda x: np.sin(2 * np.pi * x), 0.0, 1.0)
    assert abs(got) <= 1e-12
    got = inner_product(lambda x: np.sin(np.pi * x),
                        lambda x: np.sin(np.pi * x), 0.0, 1.0)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_robin_family_orthogonal():
    p = params_for(1.0, 1.3)
    pairs = [robin_eigenpair(n, p) for n in range(26)]

    def fn(pair):
        return lambda x: eval_phi(pair, x, p.r)[0]

    for i in range(0, 26, 5):
        for j in range(i, 26, 5):
            cuts = sorted(set(half_wave_points(pairs[i], p))
                          | set(half_wave_points(pairs[j], p)))
            got = inner_product(fn(pairs[i]), fn(pairs[j]), 0.0, p.ell,
                                points=cuts)
            if i == j:
                assert got == pytest.approx(pairs[i].norm, rel=1e-10)
            else:
                assert abs(got) <= 1e-8


def test_danckwerts_family_orthonormal_gram():
    p = params_for(1.0, 1.0)
    pairs = [danckwerts_pair(n, p) for n in range(0, 9)]

    def fn(pair):
        return lambda x: eval_phi(pair, x, p.r)[0]

    m = len(pairs)
    G = np.eye(m)
    for i in range(m):
        for j in range(i, m):
            cuts = sorted(set(half_wave_points(pairs[i], p))
                          | set(half_wave_points(pairs[j], p)))
            val = inner_product(fn(pairs[i]), fn(pairs[j]), 0.0, p.ell,
                                points=cuts)
            G[i, j] = G[j, i] = val / np.sqrt(pairs[i].norm * pairs[j].norm)
    eigvals = np.linalg.eigvalsh(G)
    assert eigvals.min() >= 0.9
    assert eigvals.max() <= 1.1


# -- Danckwerts root location -------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("ell", [1.0, 2.0])
def test_danckwerts_roots_bracketed_with_small_residual(r, ell):
    p = params_for(r, ell)
    prev = 0.0
    for n in range(1, 21):
        lam = spectrum(DANCKWERTS, n, p)[0]
        lo = (n * np.pi / ell) ** 2
        hi = ((n + 1) * np.pi / ell) ** 2
        assert lo < lam < hi
        assert lam > prev
        prev = lam
        kappa = np.sqrt(lam)
        scale = kappa * kappa + r * r + 2.0 * r * kappa
        assert abs(_danckwerts_residual(kappa, r, ell)) <= 1e-9 * scale


def test_danckwerts_eigenvalue_against_scan_oracle():
    r, ell = 1.0, 1.0
    ks = np.linspace(np.pi, 2.0 * np.pi, 1_000_001)
    res = (ks * ks - r * r) * np.sin(ks * ell) - 2.0 * r * ks * np.cos(ks * ell)
    sign = np.sign(res)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    assert idx.size == 1
    lo, hi = ks[idx[0]], ks[idx[0] + 1]
    flo = _danckwerts_residual(lo, r, ell)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _danckwerts_residual(mid, r, ell)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    lam_oracle = (0.5 * (lo + hi)) ** 2
    assert spectrum(DANCKWERTS, 1, params_for(r, ell))[0] == pytest.approx(
        lam_oracle, rel=1e-12)


def test_danckwerts_norm_against_quadrature():
    p = params_for(1.3, 1.7)
    for n in (0, 1, 2, 7):
        pair = danckwerts_pair(n, p)

        def phi(x):
            return eval_phi(pair, x, p.r)[0]

        got = inner_product(phi, phi, 0.0, p.ell,
                            points=half_wave_points(pair, p))
        assert pair.norm == pytest.approx(got, rel=1e-10)


def test_omitted_root_location_and_identity():
    p = params_for(1.0, 1.0)
    lam = spectrum(DANCKWERTS, 0, p)[0]
    assert 0.0 < lam < (np.pi / p.ell) ** 2
    kappa = np.sqrt(lam)
    assert abs(_danckwerts_residual(kappa, p.r, p.ell)) <= 1e-10
    # equivalent fixed-point form of the same tangent condition
    assert kappa * p.ell == pytest.approx(2.0 * np.arctan(p.r / kappa),
                                          rel=1e-12)
    # frozen value for this parameter point
    assert lam == pytest.approx(1.7070529755509227, rel=1e-12)


def test_omitted_root_is_the_only_slow_root():
    p = params_for(1.4, 1.1)
    ks = np.linspace(1e-9, np.pi / p.ell, 1_000_001)
    res = (ks * ks - p.r * p.r) * np.sin(ks * p.ell) \
        - 2.0 * p.r * ks * np.cos(ks * p.ell)
    sign = np.sign(res)
    crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    assert crossings.size == 1
    bracket = (ks[crossings[0]], ks[crossings[0] + 1])
    kappa = np.sqrt(spectrum(DANCKWERTS, 0, p)[0])
    assert bracket[0] <= kappa <= bracket[1]


def test_comparison_family_skips_the_slow_mode():
    p = params_for(1.0, 1.0)
    slow = spectrum(DANCKWERTS, 0, p)[0]
    assert spectrum(DANCKWERTS, 1, p)[0] > (np.pi / p.ell) ** 2 > slow


@pytest.mark.parametrize("r, ell", [(0.5, 1.0), (5.0, 2.0), (1e-6, 3.0), (300.0, 1.0)])
def test_danckwerts_roots_to_the_last_bits(r, ell):
    """Bisection to adjacent doubles leaves kappa within an ulp of the root,
    so lambda = kappa^2 within 6e-16 relative."""
    lam, _ = spectrum(DANCKWERTS, np.arange(201), params_for(r, ell))
    with mp.workdps(30):
        for n in (0, 1, 2, 17, 100, 200):
            k = mp.findroot(lambda k: (k * k - r * r) * mp.sin(k * ell)
                            - 2 * r * k * mp.cos(k * ell), mp.sqrt(lam[n]))
            assert abs(lam[n] - float(k * k)) <= 6e-16 * lam[n]


def test_danckwerts_spectrum_is_the_one_mode_calls():
    p = params_for(1.3, 1.7)
    lam, norm = spectrum(DANCKWERTS, np.arange(41), p)
    assert lam.shape == norm.shape == (41,)
    for n in range(41):
        pair = danckwerts_pair(n, p)
        assert (pair.lam, pair.norm) == (lam[n], norm[n])
        assert spectrum(DANCKWERTS, n, p)[0] == lam[n]


def test_bracket_without_sign_change_raises(monkeypatch):
    monkeypatch.setattr(eigensystem, "_danckwerts_residual",
                        lambda kappa, r, ell: np.ones_like(kappa))
    with pytest.raises(BracketingError, match="no sign change for mode 0"):
        spectrum(DANCKWERTS, np.arange(3), UNIT)


# -- one mode layer: the spectrum and the phi_n evaluator ---------------------

# the README run's column and the loaded test problem's
MODE_PARAMS = {
    "readme": TransportParams(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.0, ell=1.0),
    "loaded": TransportParams(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4),
}
PAIR_OF = {ROBIN: robin_eigenpair, DANCKWERTS: danckwerts_pair}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
@pytest.mark.parametrize("case", sorted(MODE_PARAMS))
def test_spectrum_is_the_one_mode_calls_bit_for_bit(case, kind):
    p = MODE_PARAMS[case]
    lam, norm = spectrum(kind, np.arange(201), p)
    pairs = [PAIR_OF[kind](n, p) for n in range(201)]
    assert lam.shape == norm.shape == (201,)
    assert _bits(lam) == _bits([q.lam for q in pairs])
    assert _bits(norm) == _bits([q.norm for q in pairs])
    assert all(q.kind == kind for q in pairs)


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
@pytest.mark.parametrize("case", sorted(MODE_PARAMS))
def test_eval_phi_is_a_column_of_the_evaluator(case, kind):
    """On an array of points and point by point, values and slopes alike."""
    p = MODE_PARAMS[case]
    lam, _ = spectrum(kind, np.arange(201), p)
    xs = np.r_[np.linspace(0.0, p.ell, 41), 0.37 * p.ell]
    vals, ders = _phi_matrices(lam, xs, p.r)
    assert vals.shape == ders.shape == (xs.size, 201)
    for n in range(201):
        pair = PAIR_OF[kind](n, p)
        v, d = eval_phi(pair, xs, p.r)
        assert _bits(v) == _bits(vals[:, n]) and _bits(d) == _bits(ders[:, n])
        for k in (0, 13, xs.size - 1):
            v, d = eval_phi(pair, xs[k], p.r)
            assert np.ndim(v) == np.ndim(d) == 0
            assert _bits([v, d]) == _bits([vals[k, n], ders[k, n]])


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_phi_values_take_two_point_by_mode_buffers(kind):
    """phi_n at the 257 points of a mass-balance row and 201 modes takes two
    such arrays, 0.39 MiB each, and ufunc buffers: a third array breaks 1.1."""
    p = MODE_PARAMS["loaded"]
    lam, _ = spectrum(kind, np.arange(201), p)
    xs = np.linspace(0.0, p.ell, 257)
    (vals, ders), peak = traced_peak(lambda: _phi_matrices(lam, xs, p.r, slope=False))
    assert vals.shape == (257, 201) and ders is None
    assert peak < 1.1


@pytest.mark.parametrize("kind", [ROBIN, DANCKWERTS])
def test_phi_values_and_slopes_take_three_point_by_mode_buffers(kind):
    """With slopes (the path of `eval_C_x`), phi_n' takes a third such array
    and no temporary of that size: a fourth array breaks 1.5 MiB."""
    p = MODE_PARAMS["loaded"]
    lam, _ = spectrum(kind, np.arange(201), p)
    xs = np.linspace(0.0, p.ell, 257)
    (vals, ders), peak = traced_peak(lambda: _phi_matrices(lam, xs, p.r))
    assert vals.shape == ders.shape == (257, 201)
    assert peak < 1.5


def test_robin_spectrum_takes_e_2r_ell_only_for_mode_zero():
    """At r ell = 375, e^{2 r ell} overflows: only a request holding n = 0 is
    refused, and no numpy warning comes first."""
    p = TransportParams(D=2e-3, v=1.0, ell=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, norm = spectrum(ROBIN, np.arange(1, 4), p)
        assert np.all(np.isfinite(norm)) and np.all(norm > 0.0)
        assert _bits(lam) == _bits([robin_eigenpair(n, p).lam for n in (1, 2, 3)])
        with pytest.raises(NumericOverflowError, match="= 375 is too large"):
            spectrum(ROBIN, np.arange(0, 4), p)


def test_spectrum_refuses_unknown_kinds_and_negative_modes():
    with pytest.raises(ParameterError, match="unknown eigenpair kind"):
        spectrum("neumann", np.arange(3), UNIT)
    with pytest.raises(ParameterError, match="nonnegative"):
        spectrum(ROBIN, np.array([2, -1]), UNIT)


# -- helpers and validation ---------------------------------------------------

def test_half_wave_points():
    p = params_for(1.0, 1.0)
    assert half_wave_points(robin_eigenpair(0, p), p) == ()
    pts = half_wave_points(robin_eigenpair(3, p), p)
    assert len(pts) == 2
    assert pts[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert pts[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert all(0.0 < q < p.ell for q in pts)


def test_eigenpair_validation():
    with pytest.raises(ParameterError):
        EigenPair(n=1, lam=1.0, norm=1.0, kind="neumann")
    with pytest.raises(ParameterError):
        EigenPair(n=1, lam=1.0, norm=0.0, kind=ROBIN)
    assert EigenPair(n=0, lam=1.0, norm=1.0, kind=DANCKWERTS).n == 0
    with pytest.raises(ParameterError):
        EigenPair(n=-1, lam=1.0, norm=1.0, kind=DANCKWERTS)
    with pytest.raises(ParameterError):
        robin_eigenpair(-1, UNIT)
    with pytest.raises(ParameterError):
        spectrum(DANCKWERTS, -1, UNIT)


def test_inner_product_validation_and_failure():
    with pytest.raises(ParameterError):
        inner_product(lambda x: x, lambda x: x, 1.0, 0.0)
    with pytest.raises(ParameterError):
        inner_product(lambda x: x, lambda x: x, 0.0, np.inf)
    with pytest.raises(QuadratureError, match="failed on"):
        inner_product(lambda x: np.cos(1.0 / x) / x, lambda x: 1.0, 1e-8, 1.0)
    # each piece settles to its relative tolerance, but the pieces cancel,
    # so their summed estimate misses the absolute one
    with pytest.raises(QuadratureError, match="error estimate"):
        inner_product(lambda x: x, lambda x: 1.0, -1.0, 1.0, abs_tol=1e-300,
                      points=[0.0])
