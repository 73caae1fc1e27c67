"""Point-by-point references the tests hold the package's batched routes to.

No command calls these.  Each writes one mode, one instant or one point the
direct way, from the package's private parts, so that it returns the same
bits as the batched route it checks.
"""

import numpy as np

from coltrans.eigensystem import (DANCKWERTS, EigenPair, _cos_sin, _exp_mode, _phi_matrices,
                                  spectrum)
from coltrans.errors import ParameterError
from coltrans.exitflux import _u_scaled
from coltrans.model import _boundary_data, _cos_and_const_weights, lift_H
from coltrans.series import _shaped, _sums


def danckwerts_pair(n: int, params) -> EigenPair:
    """Mode n of the zero-gradient-exit family: one entry of `spectrum`."""
    return EigenPair(n, *map(float, spectrum(DANCKWERTS, n, params)), DANCKWERTS)


def eval_phi(pair: EigenPair, x, r: float):
    """Eigenfunction value and slope at x, a column of `_phi_matrices` bit for
    bit: its formulas on scalars, for point-by-point QUADPACK; the slope is
    r cos - kappa sin."""
    x = np.asarray(x, dtype=float)
    if pair.lam < 0.0:
        phi, dphi = _exp_mode(x, r)
    else:
        kap = np.sqrt(pair.lam)
        co, si = np.cos(kap * x), np.sin(kap * x)
        phi, dphi = _cos_sin(kap, r, co, si), -kap * si + r * co
    return phi[()], dphi[()]


def eval_w(sol, x, t):
    """Transformed solution w(x, t) = sum T_n(t) phi_n(x), one row per instant."""
    vals, _ = _phi_matrices(sol.lam, x, sol.data.params.r, slope=False)
    return _shaped(_sums(vals, sol.coefficients(t)), x, t)


def forcing_F(data, x, t):
    """Forcing of the transformed heat problem, split by data source.

    Returns (F, F1, F2) where F1 carries the production and influent terms,
    F2 the effluent terms, and F = F1 + F2 equals
    (gamma/R) e^{-r x} - (s H + H_t) + (D/R) H_xx.
    """
    p = data.params
    x = np.asarray(x, dtype=float)
    cosx = np.cos(np.pi * x / p.ell)
    ge, gd, ce, cd = _boundary_data(data, t)
    b1, c1 = _cos_and_const_weights(p, ge, gd, 0.0, 0.0)
    b2, c2 = _cos_and_const_weights(p, 0.0, 0.0, ce, cd)
    F1 = (p.gamma / p.R) * np.exp(-p.r * x) + b1 * cosx + c1
    F2 = b2 * cosx + c2
    return (F1 + F2)[()], F1[()], F2[()]


def initial_w(data, x):
    """Initial value of the transformed unknown, e^{s t0}(e^{-r x} phi - H)."""
    p = data.params
    x = np.asarray(x, dtype=float)
    H0 = lift_H(data, x, data.t0)
    out = np.exp(p.s * data.t0) * (np.exp(-p.r * x) * data.phi.eval(x) - H0)
    return out[()]


def eval_u(hp, x: float, t: float) -> float:
    """Companion heat solution u(x, t) folded by e^{-s t}, which never overflows."""
    x, t = float(x), float(t)
    if x < 0.0:
        raise ParameterError("the companion problem lives on x >= 0")
    return float(_u_scaled(hp, x, np.array([t]))[0])
