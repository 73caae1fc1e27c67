"""Shared fixtures: small resolved problems reused across the suite."""

import numpy as np
import pytest

from coltrans import (
    ROBIN,
    ProblemData,
    SmoothFn,
    TransportParams,
    TruncationPolicy,
    build_solution,
    resolve_exit,
)


def make_data(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.0, ell=1.0,
              phi=None, g=None, exit=None, t0=0.0):
    """Assemble a ProblemData with constant-zero defaults."""
    params = TransportParams(R=R, D=D, v=v, mu=mu, gamma=gamma, ell=ell)
    if phi is None:
        phi = SmoothFn.constant(0.0)
    if g is None:
        g = SmoothFn.constant(0.0)
    return ProblemData(params=params, phi=phi, g=g, exit=exit, t0=t0)


@pytest.fixture(scope="session")
def smoke_data():
    """Step inlet into a clean column, exit curve precomputed to t = 2."""
    data = make_data(R=1.0, D=0.1, v=1.0, mu=0.0, gamma=0.0, ell=1.0,
                     phi=SmoothFn.constant(0.0), g=SmoothFn.constant(1.0))
    return resolve_exit(data, 2.0, n_grid=256)


@pytest.fixture(scope="session")
def smoke_solution(smoke_data):
    policy = TruncationPolicy(n_max=160, tail_tol=1e-8)
    return build_solution(smoke_data, policy, 2.0)


@pytest.fixture(scope="session")
def equilibrium_data():
    """Everything pinned at the production equilibrium gamma / mu = 2."""
    level = 2.0
    return make_data(R=1.5, D=0.8, v=1.2, mu=0.5, gamma=1.0, ell=1.3,
                     phi=SmoothFn.constant(level),
                     g=SmoothFn.constant(level),
                     exit=SmoothFn.constant(level))


@pytest.fixture(scope="session")
def loaded_data():
    """Nonzero everything: polynomial load, pulsed inlet, decay, production.

    The initial profile 1.04 x^2 (1.4 - x)^2 vanishes with its slope at
    both faces, so it is compatible with the quiescent boundary data.
    """
    phi = SmoothFn.polynomial([0.0, 0.0, 2.0384, -2.912, 1.04])
    g = SmoothFn.smooth_pulse(0.1, 0.9, 1.0, ramp=0.15)
    data = make_data(R=1.2, D=0.6, v=1.1, mu=0.4, gamma=0.3, ell=1.4,
                     phi=phi, g=g)
    return resolve_exit(data, 2.5, n_grid=256)


@pytest.fixture(scope="session")
def loaded_solution(loaded_data):
    policy = TruncationPolicy(n_max=160, tail_tol=1e-8)
    return build_solution(loaded_data, policy, 2.5)


def l2_grid_norm(values, xs):
    """Trapezoid L2 norm of sampled values over the grid xs."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(np.trapezoid(v * v, np.asarray(xs, dtype=float))))


def half_wave_points(pair, params) -> tuple:
    """Interior half-period marks of an oscillatory mode on (0, ell).

    The tests fence their per-mode reference quadratures with them, so that
    a single adaptive pass does not alias an oscillating mode.
    """
    if pair.kind == ROBIN and pair.n == 0:
        return ()
    kappa = np.sqrt(pair.lam)
    step = np.pi / kappa
    k = int(np.floor(params.ell / step))
    return tuple(j * step for j in range(1, k + 1) if 0.0 < j * step < params.ell)
