"""Eigenpairs of the transformed column problem.

The substitution in `model` leaves a heat problem for w whose separated
spatial part solves phi'' = -lambda phi under one of two boundary sets:

  flux exit (Robin at both faces):  phi'(0) - r phi(0) = 0,
                                    phi'(ell) - r phi(ell) = 0
  zero-gradient exit (Danckwerts):  phi'(0) - r phi(0) = 0,
                                    phi'(ell) + r phi(ell) = 0

The Robin family is fully explicit: one negative eigenvalue -r^2 with
phi_0 = e^{r x}, then lambda_n = (n pi / ell)^2 with a cos + sin
combination.  The Danckwerts family has no explicit eigenvalues and all
of them are positive.  Writing kappa = sqrt(lambda), they are the roots
of the tangent equation tan(kappa ell) = 2 r kappa / (kappa^2 - r^2),
located by bisection (Brent, 1973, ch. 4) on a pole-free rearrangement,
every mode in one numpy pass: mode n = 0 is the slow root below pi/ell,
where kappa ell = 2 atan(r / kappa), and mode n >= 1 is the single root
bracketed between the Robin eigenvalues (n pi/ell)^2 and
((n + 1) pi/ell)^2.  Together they are the complete zero-gradient family.

scipy is imported on the first call of `quad`, which only `inner_product`,
the tests' QUADPACK reference, makes; no command needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ParameterError, QuadratureError
from .model import DANCKWERTS, ROBIN, TransportParams, _exp_r_ell

__all__ = [
    "EigenPair",
    "robin_eigenpair",
    "robin_spectrum",
    "danckwerts_spectrum",
    "danckwerts_eigenvalue",
    "danckwerts_eigenpair",
    "eval_phi",
    "inner_product",
    "half_wave_points",
]

def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with the squared L2 norm of its eigenfunction."""

    n: int
    lam: float
    norm: float
    kind: str

    def __post_init__(self):
        if self.kind not in (ROBIN, DANCKWERTS):
            raise ParameterError(f"unknown eigenpair kind {self.kind!r}")
        if self.norm <= 0.0:
            raise ParameterError("eigenfunction norm must be positive")
        if self.n < 0:
            raise ParameterError("mode index must be nonnegative")


def _general_norm(kappa: float, r: float, ell: float) -> float:
    """Closed form of int_0^ell (cos(kappa x) + (r/kappa) sin(kappa x))^2 dx."""
    q = r / kappa
    s2 = np.sin(2.0 * kappa * ell)
    c2 = np.cos(2.0 * kappa * ell)
    return (
        0.5 * ell * (1.0 + q * q)
        + s2 / (4.0 * kappa) * (1.0 - q * q)
        + r / (2.0 * kappa * kappa) * (1.0 - c2)
    )


def robin_spectrum(n, params: TransportParams):
    """lambda_n = (n pi/ell)^2 and squared norm (r^2 + lambda_n) ell / (2 lambda_n).

    The oscillatory double-flux modes n >= 1, as arrays shaped as n; the
    one place these formulas are written.
    """
    # float_power squares through libm's pow, as Python's float ** does;
    # numpy's ** 2 multiplies, which differs in the last bit now and then
    lam = np.float_power(n * np.pi / params.ell, 2)
    return lam, (params.r * params.r + lam) * params.ell / (2.0 * lam)


def robin_eigenpair(n: int, params: TransportParams) -> EigenPair:
    """Eigenpair of the double-flux family.

    n = 0 is the negative mode lambda_0 = -r^2 with phi_0 = e^{r x} and
    squared norm (e^{2 r ell} - 1)/(2 r); n >= 1 is `robin_spectrum`.
    """
    if n < 0:
        raise ParameterError("mode index must be nonnegative")
    r, ell = params.r, params.ell
    if n == 0:
        lam = -r * r
        norm = (_exp_r_ell(params, 2.0) - 1.0) / (2.0 * r)
    else:
        lam, norm = robin_spectrum(n, params)
    return EigenPair(n=n, lam=float(lam), norm=float(norm), kind=ROBIN)


def _danckwerts_residual(kappa, r: float, ell: float):
    # Pole-free form of tan(kappa ell) = 2 r kappa / (kappa^2 - r^2):
    # the tangent's poles are cleared by multiplying through by
    # cos(kappa ell) (kappa^2 - r^2).
    return (kappa * kappa - r * r) * np.sin(kappa * ell) - 2.0 * r * kappa * np.cos(
        kappa * ell
    )


def danckwerts_spectrum(n, params: TransportParams):
    """Zero-gradient-exit eigenvalues lambda_Dn and squared norms, shaped as n.

    lambda_D0 is the slow root, the only one in (0, pi^2/ell^2); for
    n >= 1, lambda_Dn lies strictly inside (n^2 pi^2/ell^2,
    (n+1)^2 pi^2/ell^2).  Each kappa_n = sqrt(lambda_Dn) is bisected on
    the pole-free residual, all modes at once, until its bracket's ends
    are adjacent doubles; the end with the smaller |residual| is the root.
    Raises BracketingError when a bracket's ends show no sign change.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ParameterError("mode index must be nonnegative")
    r, ell = params.r, params.ell
    # residual ~ -r kappa (r ell + 2) < 0 just right of zero
    lo = np.where(n == 0, 1e-15, n) * np.pi / ell
    hi = (n + 1) * np.pi / ell
    sign = np.sign(_danckwerts_residual(lo, r, ell))
    bad = sign == np.sign(_danckwerts_residual(hi, r, ell))
    if np.any(bad):
        k = np.argmax(bad)
        raise BracketingError(f"no sign change for mode {n.flat[k]} on "
                              f"({lo.flat[k]:.6g}, {hi.flat[k]:.6g})")
    # a closed bracket's midpoint is one of its ends, which the update keeps
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        left = np.sign(_danckwerts_residual(mid, r, ell)) == sign
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        mid = 0.5 * (lo + hi)
    nearer = (np.abs(_danckwerts_residual(lo, r, ell))
              <= np.abs(_danckwerts_residual(hi, r, ell)))
    kappa = np.where(nearer, lo, hi)
    return kappa * kappa, _general_norm(kappa, r, ell)


def danckwerts_eigenvalue(n: int, params: TransportParams) -> float:
    """n-th zero-gradient-exit eigenvalue: one mode of `danckwerts_spectrum`."""
    return danckwerts_eigenpair(n, params).lam


def danckwerts_eigenpair(n: int, params: TransportParams) -> EigenPair:
    lam, norm = danckwerts_spectrum(n, params)
    return EigenPair(n=n, lam=float(lam), norm=float(norm), kind=DANCKWERTS)


def eval_phi(pair: EigenPair, x, r: float):
    """Eigenfunction value and spatial derivative at x.

    The entrance condition phi'(0) = r phi(0) fixes the normalization
    phi(0) = 1 for every mode.
    """
    x = np.asarray(x, dtype=float)
    if pair.kind == ROBIN and pair.n == 0:
        e = np.exp(r * x)
        return e[()], (r * e)[()]
    kappa = np.sqrt(pair.lam)
    c, s = np.cos(kappa * x), np.sin(kappa * x)
    phi = c + (r / kappa) * s
    dphi = -kappa * s + r * c
    return phi[()], dphi[()]


def half_wave_points(pair: EigenPair, params: TransportParams) -> tuple:
    """Interior half-period marks of an oscillatory mode on (0, ell).

    Used to split quadrature panels once a mode oscillates enough that a
    single adaptive pass would alias it; the tests fence their per-mode
    reference quadratures with it.
    """
    if pair.kind == ROBIN and pair.n == 0:
        return ()
    kappa = np.sqrt(pair.lam)
    step = np.pi / kappa
    k = int(np.floor(params.ell / step))
    return tuple(j * step for j in range(1, k + 1) if 0.0 < j * step < params.ell)


def inner_product(f, h, a: float, b: float, *, abs_tol: float = 1e-10,
                  rel_tol: float = 1e-10, points=None) -> float:
    """Adaptive QUADPACK quadrature of int_a^b f(x) h(x) dx.

    The reference the tests hold the series' Gauss-Legendre projections to;
    no build calls it.  `points` lists interior abscissae where the
    integrand kinks or where an oscillation should be fenced; the integral
    is accumulated piecewise between them.  Raises QuadratureError when the
    QUADPACK estimate misses the requested tolerance.
    """
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ParameterError("need a finite interval with b > a")
    cuts = [a, b]
    if points is not None:
        cuts.extend(p for p in points if a < p < b)
    cuts = sorted(set(cuts))
    total = 0.0
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        out = quad(
            lambda x: f(x) * h(x),
            lo,
            hi,
            epsabs=abs_tol / max(1, len(cuts) - 1),
            epsrel=rel_tol,
            limit=200,
            full_output=1,
        )
        if len(out) > 3:
            raise QuadratureError(f"quadrature failed on [{lo:.6g}, {hi:.6g}]: {out[3]}")
        total += out[0]
        err += out[1]
    if err > 10.0 * max(abs_tol, rel_tol * abs(total)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3g} exceeds tolerance for [{a}, {b}]"
        )
    return total
