"""Problem data and the change of variables for finite-column solute transport.

The physical model is one-dimensional convective-dispersive transport with
linear equilibrium sorption, first-order decay and zero-order production,

    R C_t = D C_xx - v C_x - mu C + gamma      on 0 <= x <= ell,

closed by flux (third-type) conditions at both faces,

    v C(0,t) - D C_x(0,t) = v g(t),
    v C(ell,t) - D C_x(ell,t) = v C_E(t),

where g is the influent flux concentration and C_E the effluent flux
concentration.  The substitution C = (w + e^{s t} H) e^{r x - s t} with
r = v/(2D) and s = (v^2/(4D) + mu)/R turns this into a heat problem for w
with homogeneous boundaries; H is the lifting function that absorbs the
boundary data and F collects the forcing that the substitution produces.
This module owns the parameter set, the smooth-function wrapper used for
phi, g and C_E, and the lift/forcing/initial-condition algebra: it is the
only place that reads the boundary data (`_boundary_data`).  H, its
partials, the forcing weights on the x-basis {e^{-r x}, cos(pi x/ell), 1},
their moments against each phi_n, int_0^ell F^2 dx, the moments of
w(., t0) and the inversion back to C are each written once here; `series`
only sums weights against moments.  So are the two Gauss-Legendre rules
that `series` and `exitflux` integrate with, as constants.  The
eigenfunction machinery lives in `eigensystem` and `series`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NumericOverflowError, ParameterError

ROBIN = "robin"
DANCKWERTS = "danckwerts"
_MAX_EXP = 700.0  # doubles overflow just above e^709

__all__ = [
    "TransportParams",
    "SmoothFn",
    "ProblemData",
    "lift_H",
    "lift_H_x",
    "forcing_weights",
    "invert",
]


@dataclass(frozen=True, kw_only=True)
class TransportParams:
    """Constant coefficients of the column transport problem.

    R     retardation factor (dimensionless, >= 1 physically, > 0 required)
    D     dispersion coefficient, length^2/time, > 0
    v     pore-water velocity, length/time, > 0
    mu    first-order decay rate, 1/time, >= 0
    gamma zero-order production, mass/(volume time), sign free
    ell   column length, > 0
    """

    R: float = 1.0
    D: float
    v: float
    mu: float = 0.0
    gamma: float = 0.0
    ell: float

    def __post_init__(self):
        for name in ("R", "D", "v", "ell"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0.0:
                raise ParameterError(f"{name} must be positive and finite, got {val!r}")
        if not np.isfinite(self.mu) or self.mu < 0.0:
            raise ParameterError(f"mu must be nonnegative and finite, got {self.mu!r}")
        if not np.isfinite(self.gamma):
            raise ParameterError(f"gamma must be finite, got {self.gamma!r}")
        if self.mu == 0.0 and self.gamma != 0.0:
            # Accepted, but the half-line exit closure cannot absorb the
            # production term without decay; exitflux raises if asked to.
            warnings.warn(
                "gamma != 0 with mu = 0: production has no equilibrium, "
                "computed exit concentrations are unavailable",
                UserWarning,
                stacklevel=3,
            )

    @property
    def r(self) -> float:
        """Exponential tilt rate of the substitution, v / (2 D)."""
        return self.v / (2.0 * self.D)

    @property
    def s(self) -> float:
        """Temporal rate of the substitution, (v^2/(4 D) + mu) / R."""
        return (self.v * self.v / (4.0 * self.D) + self.mu) / self.R


def _exp_r_ell(p: TransportParams, k: float = 1.0) -> float:
    """e^{k r ell}, or NumericOverflowError naming r ell before it overflows."""
    if k * p.r * p.ell > _MAX_EXP:
        raise NumericOverflowError(
            f"exp({k * p.r * p.ell:.6g}) overflows: r ell = v ell / (2 D) = "
            f"{p.r * p.ell:.6g} is too large for double precision")
    return np.exp(k * p.r * p.ell)


def _as_callable_pair(fn, dfn):
    def eval_(t):
        return np.asarray(fn(np.asarray(t, dtype=float)), dtype=float)[()]

    def deriv_(t):
        return np.asarray(dfn(np.asarray(t, dtype=float)), dtype=float)[()]

    return eval_, deriv_


def _pchip(x, y):
    """Piecewise cubic Hermite interpolant through (x, y): (value, slope).

    Interior slopes are the Fritsch-Carlson/Butland weighted harmonic mean
    of the neighbouring secants, zero where those differ in sign or vanish
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980); two knots give the
    line.  Each interval x_i <= q < x_{i+1} (the last one closed) holds
    c0 s^3 + c1 s^2 + c2 s + c3 in s = q - x_i, summed in the same order
    as scipy's PchipInterpolator, so the two agree bit for bit.  Outside
    the table the end values are held (slope zero).
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    # flat runs divide by zero, and tiny secants overflow, on the way to a
    # harmonic mean that is then not used; keep that quiet
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if x.size > 2:
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            # one-sided three-point end slopes, limited to keep the ends' shape
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            steep = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                                  np.where(steep, 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def locate(q):
        q = np.asarray(q, dtype=float)
        qc = np.clip(q, x[0], x[-1])
        i = np.minimum(np.searchsorted(x, qc, side="right") - 1, x.size - 2)
        s = qc - x[i]
        return q, i, s, s * s

    # the sums start from 0.0, as scipy's do, so a -0.0 sum reads 0.0
    def value(q):
        q, i, s, s2 = locate(q)
        out = ((0.0 + c3[i] + c2[i] * s) + c1[i] * s2) + c0[i] * (s2 * s)
        return np.where(q < x[0], y[0], np.where(q > x[-1], y[-1], out))

    def slope(q):
        q, i, s, s2 = locate(q)
        out = (0.0 + c2[i] + 2.0 * c1[i] * s) + 3.0 * c0[i] * s2
        return np.where((q < x[0]) | (q > x[-1]), 0.0, out)

    return value, slope


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of a float array, sorted, as np.unique gives them.

    By sort and mask: np.unique imports numpy.ma on its first call, about
    20 ms that a `solve` would otherwise spend.
    """
    v = np.sort(np.ravel(np.asarray(values, dtype=float)))
    return v[np.concatenate(([True], v[1:] != v[:-1]))] if v.size else v


# The Gauss-Legendre rules of `series` (12 points) and `exitflux` (10) on
# [-1, 1]: the nodes and weights numpy.polynomial.legendre.leggauss returns
# (numpy 2.4.6), written out so that no run loads numpy.polynomial.
_GL12_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL12_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_GL10_X = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717])
_GL10_W = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814])


def _legendre_tail(x, w):
    """T with samples @ T the last two Legendre coefficients of the
    interpolant through samples at the nodes x of the rule (x, w).

    P_k at the nodes by the forward three-term recurrence, in the operation
    order of numpy's legvander, so the two agree bit for bit.
    """
    v = [x * 0 + 1, x]
    for i in range(2, x.size):
        v.append((v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i)
    return np.stack(v[-2:], axis=-1) * w[:, None] * (np.arange(x.size - 2, x.size) + 0.5)


_GL10_TAIL = _legendre_tail(_GL10_X, _GL10_W)


def _gl_basis(u, x, w):
    """Lagrange basis through the Gauss-Legendre nodes (1 + x_j)/2 of [0, 1].

    L_j(u) for every u, on a new last axis (a view): the barycentric form
    with the Legendre weights (-1)^j sqrt((1 - x_j^2) w_j) (Berrut &
    Trefethen, SIAM Rev. 46, 2004; Wang & Xiang, Math. Comp. 81, 2012).
    The denominators are summed node by node, so a u's row is the same in
    any batch.  A u on a node gets that node's unit row.
    """
    u = np.asarray(u, dtype=float)
    shape = (x.size,) + (1,) * u.ndim
    terms = u - (0.5 * (1.0 + x)).reshape(shape)
    hit = terms == 0.0
    on_node = np.count_nonzero(hit)
    if on_node:
        terms[hit] = 1.0
    lam = np.sqrt((1.0 - x * x) * w)
    lam[1::2] *= -1.0
    np.divide(lam.reshape(shape), terms, out=terms)
    terms /= np.add.reduce(terms, axis=0)
    last = tuple(range(1, terms.ndim)) + (0,)
    out, hit = terms.transpose(last), hit.transpose(last)
    if on_node:
        rows = hit.any(axis=-1)
        out[rows] = hit[rows]
    return out


@dataclass(frozen=True)
class SmoothFn:
    """A C^1 scalar function bundled with its derivative.

    `eval` and `deriv` accept floats or numpy arrays.  `knots` lists interior
    points where higher derivatives may jump (quadrature routines split
    there).  `const_value` is set when the function is a known constant so
    downstream code can take closed-form shortcuts.
    """

    eval: Callable
    deriv: Callable
    knots: tuple = ()
    const_value: Optional[float] = None

    @classmethod
    def constant(cls, value: float) -> "SmoothFn":
        value = float(value)
        ev, dv = _as_callable_pair(
            lambda t: np.full_like(t, value, dtype=float),
            lambda t: np.zeros_like(t, dtype=float),
        )
        return cls(eval=ev, deriv=dv, const_value=value)

    @classmethod
    def polynomial(cls, coeffs) -> "SmoothFn":
        """Polynomial sum(c_k t^k) from low-order-first coefficients.

        A scalar is the constant polynomial.  Values and slopes are numpy's
        Polynomial and its deriv() bit for bit: the same 0.0 + 1.0 t map of
        the argument, the same Horner order, and j c_j for the slope (0 c_0
        for a constant).
        """
        c = np.array(coeffs, dtype=float, ndmin=1)
        if c.size == 0 or c.ndim != 1:
            raise ParameterError("polynomial needs a nonempty 1-D list of coefficients")
        dc = c[1:] * np.arange(1.0, c.size) if c.size > 1 else c * 0

        def horner(coef, t):
            t = 0.0 + 1.0 * t
            out = coef[-1] + t * 0
            for ck in coef[-2::-1]:
                out = ck + out * t
            return out

        ev, dv = _as_callable_pair(lambda t: horner(c, t), lambda t: horner(dc, t))
        const = float(c[0]) if c.size == 1 else None
        return cls(eval=ev, deriv=dv, const_value=const)

    @classmethod
    def exp_pulse(cls, level: float, center: float, width: float) -> "SmoothFn":
        """Gaussian-shaped pulse level * exp(-((t - center)/width)^2)."""
        if width <= 0.0:
            raise ParameterError("gaussian width must be positive")
        level, center, width = float(level), float(center), float(width)

        def f(t):
            z = (t - center) / width
            return level * np.exp(-z * z)

        def df(t):
            z = (t - center) / width
            return level * np.exp(-z * z) * (-2.0 * z / width)

        ev, dv = _as_callable_pair(f, df)
        return cls(eval=ev, deriv=dv)

    @classmethod
    def smooth_pulse(cls, start: float, stop: float, level: float,
                     ramp: Optional[float] = None) -> "SmoothFn":
        """Boxcar from start to stop with C^1 smoothstep ramps.

        `ramp` is the edge width; default 5% of the pulse length.
        """
        if stop <= start:
            raise ParameterError("pulse needs stop > start")
        if ramp is None:
            ramp = 0.05 * (stop - start)
        if ramp <= 0.0 or 2.0 * ramp > (stop - start):
            raise ParameterError("ramp must be positive and fit inside the pulse")
        start, stop, level, ramp = map(float, (start, stop, level, ramp))

        def edge(u):
            # smoothstep: 0 below, 1 above, C^1 across.
            u = np.clip(u, 0.0, 1.0)
            return u * u * (3.0 - 2.0 * u)

        def dedge(u):
            inside = (u > 0.0) & (u < 1.0)
            u = np.clip(u, 0.0, 1.0)
            return np.where(inside, 6.0 * u * (1.0 - u), 0.0)

        def f(t):
            return level * (edge((t - start) / ramp) - edge((t - stop) / ramp))

        def df(t):
            return level * (dedge((t - start) / ramp) - dedge((t - stop) / ramp)) / ramp

        ev, dv = _as_callable_pair(f, df)
        knots = (start, start + ramp, stop, stop + ramp)
        return cls(eval=ev, deriv=dv, knots=knots)

    @classmethod
    def from_table(cls, t_knots, values) -> "SmoothFn":
        """Monotone-safe C^1 cubic through tabulated samples.

        The interpolant passes through every knot exactly and does not
        overshoot between monotone samples: it is `_pchip`, the numpy
        PCHIP that reproduces scipy's PchipInterpolator bit for bit.
        Outside the table the end values are held (derivative zero).
        """
        t_knots = np.asarray(t_knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if t_knots.ndim != 1 or t_knots.size < 2:
            raise ParameterError("table needs at least two knots")
        if values.shape != t_knots.shape:
            raise ParameterError("table needs one value per knot")
        if np.any(np.diff(t_knots) <= 0.0):
            raise ParameterError("table knots must be strictly increasing")
        if not (np.all(np.isfinite(t_knots)) and np.all(np.isfinite(values))):
            raise ParameterError("table entries must be finite")
        ev, dv = _as_callable_pair(*_pchip(t_knots, values))
        return cls(eval=ev, deriv=dv, knots=tuple(t_knots))

    @classmethod
    def from_callable(cls, fn, dfn, knots=()) -> "SmoothFn":
        ev, dv = _as_callable_pair(fn, dfn)
        return cls(eval=ev, deriv=dv, knots=tuple(knots))


def _check_finite_on(fn: SmoothFn, lo: float, hi: float, what: str):
    ts = np.linspace(lo, hi, 33)
    if not (np.all(np.isfinite(fn.eval(ts))) and np.all(np.isfinite(fn.deriv(ts)))):
        raise ParameterError(f"{what} is not finite everywhere on [{lo}, {hi}]")


@dataclass(frozen=True)
class ProblemData:
    """One column problem: coefficients, initial profile, boundary data.

    `exit` is the effluent flux concentration C_E.  None means it is not
    measured and must be computed from the half-line flux closure
    (`exitflux.resolve_exit`) before the series machinery can run.
    """

    params: TransportParams
    phi: SmoothFn
    g: SmoothFn
    exit: Optional[SmoothFn] = None
    t0: float = 0.0
    # Set by exitflux.resolve_exit when `exit` was computed rather than given.
    exit_computed: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ParameterError("t0 must be finite")
        _check_finite_on(self.phi, 0.0, self.params.ell, "phi")
        if not np.isfinite(self.g.eval(self.t0)):
            raise ParameterError("g must be finite at t0")

    def require_exit(self) -> SmoothFn:
        if self.exit is None:
            raise ParameterError(
                "exit concentration not resolved; run exitflux.resolve_exit first"
            )
        return self.exit

    def with_exit(self, exit_fn: SmoothFn, computed: bool = False) -> "ProblemData":
        return replace(self, exit=exit_fn, exit_computed=computed)


def _boundary_data(data: ProblemData, t):
    """(g, g', e^{-r ell} C_E, e^{-r ell} C_E') at t, broadcasting over t.

    The one read of the boundary data behind the lift and the forcing.
    """
    p = data.params
    cE = data.require_exit()
    t = np.asarray(t, dtype=float)
    scale = np.exp(-p.r * p.ell)
    return data.g.eval(t), data.g.deriv(t), scale * cE.eval(t), scale * cE.deriv(t)


def lift_H(data: ProblemData, x, t):
    """Lifting function and the partials the forcing needs.

    Returns (H, H_t, H_xx) at (x, t), broadcasting over array input.
    H interpolates the boundary data so that w = (C e^{-r x} - H) e^{s t}
    satisfies homogeneous flux conditions:

        H(0,t) = 2 g(t),   H(ell,t) = 2 e^{-r ell} C_E(t),
        H_x = 0 at both faces.
    """
    p = data.params
    x = np.asarray(x, dtype=float)
    cosx = np.cos(np.pi * x / p.ell)
    ge, gd, ce, cd = _boundary_data(data, t)
    H = (1.0 + cosx) * ge + (1.0 - cosx) * ce
    H_t = (1.0 + cosx) * gd + (1.0 - cosx) * cd
    H_xx = (np.pi / p.ell) ** 2 * (ce - ge) * cosx
    return H[()], H_t[()], H_xx[()]


def lift_H_x(data: ProblemData, x, t):
    """Spatial slope H_x of the lifting function at (x, t)."""
    p = data.params
    x = np.asarray(x, dtype=float)
    ge, _, ce, _ = _boundary_data(data, t)
    return (np.pi / p.ell) * (ce - ge) * np.sin(np.pi * x / p.ell)


def _cos_and_const_weights(p: TransportParams, ge, gd, ce, cd):
    """(b, c) of the forcing for the given (g, g', e^{-r ell} C_E, its t-slope)."""
    pref = np.pi * np.pi * p.D / (p.ell * p.ell * p.R) + p.s
    return pref * (ce - ge) - gd + cd, -p.s * (ge + ce) - (gd + cd)


def forcing_weights(data: ProblemData, t):
    """Weights (a, b, c) of F = a e^{-r x} + b cos(pi x/ell) + c at t.

    a = gamma/R is constant; b and c carry the boundary data.  The series
    projects F through these weights and three x-moments per mode.
    """
    p = data.params
    t = np.asarray(t, dtype=float)
    b, c = _cos_and_const_weights(p, *_boundary_data(data, t))
    return np.full_like(t, p.gamma / p.R), b, c


def _mode_moments(kind: str, lam: np.ndarray, params) -> np.ndarray:
    """Closed-form integrals of {e^{-r x}, cos(pi x/ell), 1} against each phi_n.

    Shape (3, modes), rows in the order of `forcing_weights`, one column per
    eigenvalue in `lam`; for the Robin kind column 0 is the negative mode
    phi_0 = e^{r x}.
    """
    r, ell = params.r, params.ell
    p = np.pi / ell
    out = np.empty((3, lam.size))
    start = 0
    if kind == ROBIN:
        e = _exp_r_ell(params)
        out[:, 0] = (ell, -r * (e + 1.0) / (r * r + p * p), (e - 1.0) / r)
        start = 1
    kappa = np.sqrt(lam[start:])

    def S(q):  # int_0^ell cos(q x) dx, stable through q = 0
        return ell * np.sinc(q * ell / np.pi)

    def V(q):  # int_0^ell sin(q x) dx = (1 - cos(q ell)) / q, odd in q
        return 0.5 * ell * ell * q * np.sinc(q * ell / (2.0 * np.pi)) ** 2

    sin_l, cos_l = np.sin(kappa * ell), np.cos(kappa * ell)
    out[0, start:] = (
        np.exp(-r * ell) * ((kappa - r * r / kappa) * sin_l - 2.0 * r * cos_l)
        + 2.0 * r
    ) / (r * r + kappa * kappa)
    out[1, start:] = 0.5 * (S(p - kappa) + S(p + kappa)) + (r / kappa) * 0.5 * (
        V(kappa + p) + V(kappa - p)
    )
    out[2, start:] = S(kappa) + (r / kappa) * V(kappa)
    return out


def _basis_sum(coeffs, parts):
    """sum_k coeffs[k] parts[k] over the basis of `_mode_moments`, in its order."""
    out = coeffs[0] * parts[0]
    for c, part in zip(coeffs[1:], parts[1:]):
        out = out + c * part
    return out


def _forcing_sq(data: ProblemData, t):
    """int_0^ell F(x, t)^2 dx at t, in closed form from the forcing weights.

    Overflow raises NumericOverflowError, with no numpy warning.
    """
    r, ell, q = data.params.r, data.params.ell, np.pi / data.params.ell
    E2 = (1.0 - np.exp(-2.0 * r * ell)) / (2.0 * r)
    EC = r * (1.0 + np.exp(-r * ell)) / (r * r + q * q)
    E1 = (1.0 - np.exp(-r * ell)) / r
    a, b, c = forcing_weights(data, t)
    with np.errstate(over="ignore", invalid="ignore"):
        # int cos(pi x/ell) dx vanishes, no b*c cross term
        out = (a * a * E2 + b * b * (0.5 * ell) + c * c * ell
               + 2.0 * a * b * EC + 2.0 * a * c * E1)
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError("forcing-square integral left the double range")
    return out


def _initial_moments(data: ProblemData, moments, phi_moments=None):
    """<w(., t0), phi_n> from `moments`, given <e^{-r x} phi, phi_n> unless phi is constant."""
    Ie, Ic, I1 = moments
    phi_moments = data.phi.const_value * Ie if phi_moments is None else phi_moments
    g0, _, c0, _ = _boundary_data(data, data.t0)
    # H(x, t0) = (g0 + c0) + (g0 - c0) cos(pi x / ell)
    raw = phi_moments - (g0 + c0) * I1 - (g0 - c0) * Ic
    return np.exp(data.params.s * data.t0) * raw


def invert(w, H, x, t, r: float, s: float):
    """Map transformed values back to concentration.

    Algebraically C = (w + e^{s t} H) e^{r x - s t}; evaluated as
    w e^{r x - s t} + H e^{r x} so that large s t cannot overflow through
    the intermediate e^{s t}.
    """
    w = np.asarray(w, dtype=float)
    H = np.asarray(H, dtype=float)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = w * np.exp(r * x - s * t) + H * np.exp(r * x)
    return out[()]
