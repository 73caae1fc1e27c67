"""The mode family of the transformed column problem: spectra and phi_n.

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

No other module writes these formulas: `spectrum` gives any modes'
eigenvalues and squared norms, `_phi_matrices` their phi_n and phi_n'
(a negative lambda_0 is the mode e^{r x}), and `_phi_combine` phi_n from
sums of its parts, on which `series` projects.

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
    "spectrum",
    "robin_eigenpair",
    "danckwerts_eigenpair",
    "eval_phi",
    "inner_product",
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


def _danckwerts_residual(kappa, r: float, ell: float):
    # Pole-free form of tan(kappa ell) = 2 r kappa / (kappa^2 - r^2):
    # the tangent's poles are cleared by multiplying through by
    # cos(kappa ell) (kappa^2 - r^2).
    return (kappa * kappa - r * r) * np.sin(kappa * ell) - 2.0 * r * kappa * np.cos(
        kappa * ell
    )


def spectrum(kind: str, n, params: TransportParams):
    """Eigenvalues lambda_n and squared norms of the modes n of `kind`, shaped as n.

    Robin: lambda_0 = -r^2 with norm (e^{2 r ell} - 1)/(2 r), whose e^{2 r
    ell} is taken (and refused past the double range) only when n holds 0,
    and lambda_n = (n pi/ell)^2 with norm (r^2 + lambda_n) ell / (2 lambda_n).
    Danckwerts: each kappa_n is bisected until its bracket's ends are
    adjacent doubles, and the end with the smaller |residual| is the root;
    BracketingError when a bracket's ends show no sign change.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ParameterError("mode index must be nonnegative")
    r, ell = params.r, params.ell
    if kind == ROBIN:
        neg = n == 0
        norm0 = (_exp_r_ell(params, 2.0) - 1.0) / (2.0 * r) if np.any(neg) else 0.0
        # float_power squares through libm's pow, as Python's float ** does;
        # numpy's ** 2 multiplies, which differs in the last bit now and then
        lam = np.where(neg, -r * r, np.float_power(n * np.pi / ell, 2))
        return lam, np.where(neg, norm0, (r * r + lam) * ell / (2.0 * lam))
    if kind != DANCKWERTS:
        raise ParameterError(f"unknown eigenpair kind {kind!r}")
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
    # int_0^ell (cos(kappa x) + q sin(kappa x))^2 dx, q = r / kappa
    q = r / kappa
    return kappa * kappa, (0.5 * ell * (1.0 + q * q)
                           + np.sin(2.0 * kappa * ell) / (4.0 * kappa) * (1.0 - q * q)
                           + r / (2.0 * kappa * kappa) * (1.0 - np.cos(2.0 * kappa * ell)))


def robin_eigenpair(n: int, params: TransportParams) -> EigenPair:
    """Mode n of the double-flux family: one entry of `spectrum`."""
    return EigenPair(n, *map(float, spectrum(ROBIN, n, params)), ROBIN)


def danckwerts_eigenpair(n: int, params: TransportParams) -> EigenPair:
    """Mode n of the zero-gradient-exit family: one entry of `spectrum`."""
    return EigenPair(n, *map(float, spectrum(DANCKWERTS, n, params)), DANCKWERTS)


def _kappas(lam: np.ndarray) -> np.ndarray:
    """kappa_n = sqrt(lambda_n) of the cos-sin modes: all but a negative lambda_0."""
    return np.sqrt(lam[1:] if lam[0] < 0.0 else lam)


def _exp_mode(x, r: float):
    """phi = e^{r x}, the mode of a negative lambda_0, and phi' = r e^{r x}."""
    e = np.exp(r * x)
    return e, r * e


def _cos_sin(kap, r: float, co, si, out=None):
    """phi = cos + (r / kappa) sin of a cos-sin mode, from co = cos(kappa x)
    and si = sin(kappa x); formed in `out` when given, with no temporary."""
    out = np.multiply(si, r / kap, out=out)
    out += co
    return out


def _cos_sin_slope(kap, r: float, co, si):
    """phi' = r cos - kappa sin of a cos-sin mode, from the same parts."""
    return -kap * si + r * co


def _phi_combine(lam: np.ndarray, r: float, e, co, si) -> np.ndarray:
    """phi_n from its parts e^{r x} (None without a negative lambda_0),
    cos(kappa_n x) and sin(kappa_n x), modes on the last axis; linear in
    the parts, so sums of them give sums of phi_n."""
    kap = _kappas(lam)
    out = np.empty(np.shape(co)[:-1] + (lam.size,))
    start = lam.size - kap.size
    if start:
        out[..., 0] = e
    _cos_sin(kap, r, co, si, out=out[..., start:])
    return out


def _phi_matrices(lam: np.ndarray, x, r: float, slope: bool = True):
    """phi_n and phi_n' (None without `slope`) at the points x, a column per
    eigenvalue in `lam`; phi'(0) = r phi(0) is met with phi(0) = 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kap = _kappas(lam)
    start = lam.size - kap.size
    e, de = _exp_mode(x, r) if start else (None, None)
    arg = x[:, None] * kap[None, :]
    co = np.cos(arg)
    si = np.sin(arg, out=arg)  # arg is spent: one nodes x modes array less
    vals = _phi_combine(lam, r, e, co, si)
    if not slope:
        return vals, None
    ders = np.empty_like(vals)
    if start:
        ders[:, 0] = de
    ders[:, start:] = _cos_sin_slope(kap, r, co, si)
    return vals, ders


def eval_phi(pair: EigenPair, x, r: float):
    """Eigenfunction value and slope at x, a column of `_phi_matrices` bit for
    bit: its formulas, on scalars for the tests' point-by-point QUADPACK."""
    x = np.asarray(x, dtype=float)
    if pair.lam < 0.0:
        phi, dphi = _exp_mode(x, r)
    else:
        kap = np.sqrt(pair.lam)
        co, si = np.cos(kap * x), np.sin(kap * x)
        phi, dphi = _cos_sin(kap, r, co, si), _cos_sin_slope(kap, r, co, si)
    return phi[()], dphi[()]


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
