"""Exit concentration from a semi-infinite flux-form companion problem.

The column's outflow condition needs the concentration C_E(t) carried past
the exit face.  Treating the medium as if it continued past x = ell, the
flux-form concentration C_F = C - (D/v) C_x obeys the same transport
equation on the half line with Dirichlet inlet data C_F(0, t) = g(t) and
initial state phi - (D/v) phi'.  Shifting by the equilibrium gamma/mu and
substituting C_F = u e^{r x - s (t - t0)} + gamma/mu, on the clock of
`model`, turns this into the plain heat equation

    u_t = (D/R) u_xx,   u(0, t) = G(t),   u(x, t0) = Phi(x),

with G(t) = (g(t) - gamma/mu) e^{s (t - t0)} and
Phi(x) = (phi(x) - (D/v) phi'(x) - gamma/mu) e^{-r x}, solved by
odd reflection plus a Duhamel boundary integral:

    u(x, t) = int_0^inf [K(x-z, th) - K(x+z, th)] Phi(z) dz
              - 2 (D/R) int_{t0}^{t} K_x(x, (D/R)(t-tau)) G(tau) dtau,

th = (D/R)(t - t0), K the Gauss-Weierstrass kernel.  Everything here works
with u e^{-s (t - t0)}, so no intermediate exceeds the data scale, and only
`exit_concentration` takes e^{r ell}; the sign convention keeps the
Duhamel term positive for positive boundary data.

Quadrature.  Both parts take a whole array of instants at once.  On a
uniform grid t0 + h (1, ..., M), which is what `exit_curve` passes, and
M <= `_LAG_ROWS`, the Duhamel part is one lag convolution (`_lag_part`),
by product integration (Linz, *Analytical and Numerical Methods for
Volterra Equations*, SIAM 1985; Atkinson, *The Numerical Solution of
Integral Equations of the Second Kind*, CUP 1997).  Its cost grows like
M^2, the per-row rule's like M, hence the cap.  Both rules integrate one
kernel k(u) of the lag u = t - tau (`_kernel`) against g - gamma/mu
(`HalfLineProblem.shifted`).  Where the lag path's checks fail (samples
that miss the data, moments that do not settle), the per-row rule below
takes the grid.

Any other instants take the per-row rule.  Each instant is one row of
panel cuts:

- the initial part, in eta = (z - x)/(2 sqrt(th)) and cut off at
  |eta| = 9, is split at the kernel peak eta = 0 and wherever
  x +- 2 sqrt(th) eta meets a kink of the extended initial state (every
  `zeta_knots` entry, clipped to the range); the initial part always
  takes this rule;
- the Duhamel part, in sigma = sqrt(t - tau), integrates
  2 sigma k(sigma^2) (g(t - sigma^2) - gamma/mu) and is split at 0, at
  the peak x / (2 sqrt(D/R)) and at rungs 16, 256, ... times it, at
  sqrt(t - k) for every inlet knot k in (t0, t), and at sqrt(t - t0).

Every gap between neighbouring cuts holds four panels of a 10-point
Gauss-Legendre rule, graded geometrically past the Duhamel peak, and a
row whose estimate, the rule on halved panels against the whole ones,
misses `_TOL` is redone with twice the panels (`_panel_rule`): QUADPACK's
interval subdivision (Piessens et al., 1983), made uniform.

mu = 0 with gamma != 0 admits no equilibrium shift and is rejected.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from typing import Callable

from .eigensystem import quad  # unused; the benchmark counts calls through it
from .errors import FluxTransformError, ParameterError, QuadratureError
from .model import (_GL10_TAIL, _GL10_W, _GL10_X, ProblemData, SmoothFn, TransportParams,
                    _exp_r_ell, _gl_basis, _sorted_unique)

__all__ = [
    "HalfLineProblem",
    "exit_concentration",
    "exit_curve",
    "resolve_exit",
    "exit_concentration_large_t",
    "exit_curve_defect",
    "N_GRID",
]

N_GRID = 512  # default instants of a computed exit curve's grid, ends included
N_GRID_MIN = 8  # fewest instants an exit curve's grid may have

_TOL = 1e-11  # the closure's quadrature tolerance, absolute and relative
_TINY = np.finfo(float).tiny
_ETA_CUT = 9.0  # exp(-81) ~ 6e-36: nothing beyond survives double precision
_GL_X, _GL_W = _GL10_X, _GL10_W
_PANELS = 4                 # panels per gap between cuts in the coarse rule
_DOUBLINGS = 8              # doublings of a missed row's panels before giving up
_CHUNK_NODES = 1 << 15      # integrand nodes per pass: 256 KB a temporary
_LAG_LEVELS = 6             # halvings of the lag moments' panels before giving up
# longest grid convolved.  np.convolve's cost grows like M^2, the per-row
# rule's like M; on the README pulse the two cross between M = 7,000 and
# 7,500 (one CPU of a 2-CPU Xeon host), on a 512-knot table inlet the lag
# path is still 6x faster at M = 16,384
_LAG_ROWS = 7000


def _equilibrium_level(params: TransportParams) -> float:
    if params.mu == 0.0:
        if params.gamma != 0.0:
            raise FluxTransformError(
                "mu = 0 with production present: the flux companion problem "
                "has no equilibrium level to subtract"
            )
        return 0.0
    return params.gamma / params.mu


def _extended_flux_state(data: ProblemData) -> tuple[Callable, tuple]:
    """phi - (D/v) phi' continued past the column in a C^1 way.

    On [ell, 2 ell] the resident state follows a cubic blend that leaves
    x = ell with the interior value and slope and settles to the endpoint
    value with zero slope; beyond 2 ell it is held constant.  The closure
    only feels this through kernels of width sqrt((D/R)(t - t0)), so any
    smooth bounded continuation serves equally well.
    """
    p = data.params
    ell = p.ell
    phi_l = float(data.phi.eval(ell))
    dphi_l = float(data.phi.deriv(ell))

    def resident(x):
        x = np.asarray(x, dtype=float)
        inside = np.clip(x, 0.0, ell)
        val = np.asarray(data.phi.eval(inside), dtype=float).copy()
        der = np.asarray(data.phi.deriv(inside), dtype=float).copy()
        u = (x - ell) / ell
        blend = phi_l + dphi_l * (x - ell) * (1.0 - u) ** 2
        dblend = dphi_l * ((1.0 - u) ** 2 - 2.0 * u * (1.0 - u))
        mid = (x > ell) & (x < 2.0 * ell)
        val = np.where(mid, blend, val)
        der = np.where(mid, dblend, der)
        far = x >= 2.0 * ell
        val = np.where(far, phi_l, val)
        der = np.where(far, 0.0, der)
        return val, der

    def flux_state(x):
        val, der = resident(x)
        return val - (p.D / p.v) * der

    knots = tuple(k for k in data.phi.knots if 0.0 < k < ell) + (ell, 2.0 * ell)
    return flux_state, knots


@dataclass(frozen=True)
class HalfLineProblem:
    """Scaled data of the heat-equation companion problem."""

    params: TransportParams
    t0: float
    g: SmoothFn
    gm: float                       # equilibrium level gamma/mu (0 if gamma = 0)
    phi_flux: Callable              # phi - (D/v) phi', extended past the column
    zeta_knots: tuple               # kinks of phi_flux, for quadrature splits
    at_rest: bool = False           # phi is the constant gm, so Phi is 0

    @classmethod
    def from_data(cls, data: ProblemData) -> "HalfLineProblem":
        gm = _equilibrium_level(data.params)
        flux_state, knots = _extended_flux_state(data)
        return cls(params=data.params, t0=data.t0, g=data.g, gm=gm,
                   phi_flux=flux_state, zeta_knots=knots,
                   at_rest=data.phi.const_value == gm)

    def initial_scaled(self, x):
        """Phi = (phi_F - gm) e^{-r x}: the initial heat state, at elapsed time 0."""
        x = np.asarray(x, dtype=float)
        return (self.phi_flux(x) - self.gm) * np.exp(-self.params.r * x)

    def shifted(self, tau):
        """g - gm at tau, also where g returns one value for all instants."""
        tau = np.asarray(tau, dtype=float)
        return np.broadcast_to(self.g.eval(tau), tau.shape) - self.gm


def _kernel(p: TransportParams, x: float):
    """(k, a): k(u) = x/(2 sqrt(pi kap)) e^{-a/u - s u} u^{-3/2}, a = x^2/(4 kap).

    kap = D/R.  The Duhamel part at t is the integral of k(u) (g - gm)(t - u)
    over the lags u in (0, t - t0).
    """
    kap = p.D / p.R
    a = x * x / (4.0 * kap)
    pref = x / (2.0 * np.sqrt(np.pi * kap))

    def k(u):
        # u^{3/2} underflows to 0 below u ~ 1e-205, where e^{-a/u} is 0: not 0/0
        return pref * np.exp(-a / u - p.s * u) / np.maximum(u * np.sqrt(u), _TINY)

    return k, a


def _panel_rule(integrand, cuts, *, graded_from=None, panels=_PANELS):
    """Integral of integrand over [cuts[i, 0], cuts[i, -1]] for every row i.

    integrand(z, row) evaluates the rows `row` at the nodes z (the two
    broadcast).  Each gap between neighbouring cuts of a row is split into
    `panels` panels, uniform, or geometric (edges lo (hi/lo)^(k/P)) where
    the gap lies at or beyond graded_from.  The result is the rule on those
    panels halved; its distance from the rule on the whole panels is the
    row's error estimate.  Rows whose estimate exceeds _TOL max(1, |value|)
    are redone with twice the panels per gap, at most `_DOUBLINGS` times
    before QuadratureError.  Gaps are taken in chunks of about
    _CHUNK_NODES integrand nodes, at any depth.
    """
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    row, col = np.nonzero(hi > lo)
    lo, hi = lo[row, col], hi[row, col]
    sums = np.empty((row.size, 2))  # each gap's rule on whole, halved panels
    frac = np.linspace(0.0, 1.0, panels + 1)
    step = max(1, _CHUNK_NODES // (3 * panels * _GL_X.size))
    for g0 in range(0, row.size, step):
        gl, gh = lo[g0:g0 + step], hi[g0:g0 + step]
        edges = gl[:, None] + (gh - gl)[:, None] * frac
        if graded_from is not None:
            geo = gl >= graded_from
            edges[geo] = gl[geo, None] * (gh[geo] / gl[geo])[:, None] ** frac
        edges[:, -1] = gh
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        # whole panels first, then their two halves
        a = np.hstack([edges[:, :-1], edges[:, :-1], mid])
        b = np.hstack([edges[:, 1:], mid, edges[:, 1:]])
        half = 0.5 * (b - a)
        z = (a + half)[..., None] + half[..., None] * _GL_X
        panel = (integrand(z, row[g0:g0 + step, None, None]) @ _GL_W) * half
        sums[g0:g0 + step, 0] = panel[:, :panels].sum(axis=1)
        sums[g0:g0 + step, 1] = panel[:, panels:].sum(axis=1)
    coarse = np.bincount(row, sums[:, 0], minlength=cuts.shape[0])
    fine = np.bincount(row, sums[:, 1], minlength=cuts.shape[0])
    missed = np.flatnonzero(~(np.abs(fine - coarse) <= _TOL * np.maximum(1.0, np.abs(fine))))
    if missed.size and panels >= _PANELS << _DOUBLINGS:
        c = cuts[missed[0]]
        raise QuadratureError(f"panel rule on [{c[0]:.6g}, {c[-1]:.6g}] did not "
                              f"settle after {_DOUBLINGS} doublings")
    if missed.size:
        fine[missed] = _panel_rule(lambda z, r: integrand(z, missed[r]),
                                   cuts[missed], graded_from=graded_from,
                                   panels=2 * panels)
    return fine


def _initial_part(hp: HalfLineProblem, x: float, ts):
    """Odd-reflection integral, scaled by e^{-s (t - t0)}, via eta = (z - x)/(2 sqrt(th))."""
    p = hp.params
    width = 2.0 * np.sqrt((p.D / p.R) * (ts - hp.t0))
    knots = np.asarray(hp.zeta_knots, dtype=float)
    root_pi = np.sqrt(np.pi)

    def side(lo, shift):
        # z = width eta + shift crosses the knot k at eta = (k - shift) / width
        def integrand(eta, row):
            return (np.exp(-eta * eta) / root_pi
                    * hp.initial_scaled(width[row] * eta + shift))

        cuts = np.hstack([lo[:, None], np.zeros((ts.size, 1)),
                          (knots - shift) / width[:, None],
                          np.full((ts.size, 1), _ETA_CUT)])
        cuts = np.sort(np.clip(cuts, lo[:, None], _ETA_CUT), axis=1)
        return _panel_rule(integrand, cuts)

    direct = side(np.maximum(-x / width, -_ETA_CUT), x)
    image = side(np.minimum(x / width, _ETA_CUT), -x)
    return (direct - image) * np.exp(-p.s * (ts - hp.t0))


def _boundary_part(hp: HalfLineProblem, x: float, ts):
    """Duhamel integral, scaled by e^{-s (t - t0)}, via sigma = sqrt(t - tau).

    The substitution regularizes the kernel: the integrand
    2 sigma k(sigma^2) (g - gm) is a smooth bump peaking at
    sigma = x / (2 sqrt(D/R)) and decaying like 1/sigma^2 past it, so the
    panels beyond the peak are graded geometrically.
    """
    kern, a = _kernel(hp.params, x)
    peak = np.sqrt(a)
    smax = np.sqrt(ts - hp.t0)
    knots = np.asarray(hp.g.knots, dtype=float)
    knots = knots[(knots > hp.t0) & (knots < ts.max())]
    lags = np.sqrt(np.maximum(ts[:, None] - knots, 0.0))
    # rungs at peak 16^j keep each graded panel's ends within a factor 2
    top = max(0, int(np.ceil(np.log(smax.max() / peak) / np.log(16.0))))
    rungs = peak * 16.0 ** np.arange(top + 1)
    cuts = np.hstack([np.zeros((ts.size, 1)),
                      np.broadcast_to(rungs, (ts.size, rungs.size)),
                      lags, smax[:, None]])
    cuts = np.sort(np.minimum(cuts, smax[:, None]), axis=1)

    def integrand(sigma, row):
        s2 = sigma * sigma
        return 2.0 * sigma * kern(s2) * hp.shifted(ts[row] - s2)

    return _panel_rule(integrand, cuts, graded_from=peak)


def _grid_step(t0: float, ts):
    """h when ts is t0 + h (1, ..., M), 2 <= M <= `_LAG_ROWS`, to within rounding; else None."""
    if not 2 <= ts.size <= _LAG_ROWS:
        return None
    h = (ts[-1] - t0) / ts.size
    grid = t0 + h * np.arange(1, ts.size + 1)
    slack = 8.0 * np.spacing(max(abs(t0), abs(ts[-1])))
    return h if h > 0.0 and np.all(np.abs(ts - grid) <= slack) else None


def _lag_moments(kern, h: float, lo: float, hi: float, lags: int):
    """W[m, q] = h int_lo^hi k(h (m + 1 - th)) L_q((th - lo)/(hi - lo)) dth, m < lags.

    The moments of the kernel against the Lagrange basis of the samples at
    the rule's nodes of [lo, hi], a part of one grid interval, for every lag
    m.  [lo, hi] is cut into 1, 2, 4, ... equal panels of the 10-point
    rule until two passes agree, sum |difference| <= _TOL; None if they
    still do not after `_LAG_LEVELS` halvings.  Lags are taken in chunks
    of about _CHUNK_NODES kernel nodes.
    """
    m = np.arange(lags, dtype=float)[:, None] + 1.0
    prev = None
    for level in range(_LAG_LEVELS + 1):
        edges = np.linspace(lo, hi, (1 << level) + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        th = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_X).ravel()
        wts = h * (half[:, None] * _GL_W).ravel()
        basis = _gl_basis((th - lo) / (hi - lo), _GL_X, _GL_W)
        W = np.empty((lags, _GL_X.size))
        step = max(1, _CHUNK_NODES // th.size)
        for i in range(0, lags, step):
            W[i:i + step] = (kern(h * (m[i:i + step] - th)) * wts) @ basis
        if prev is not None and np.sum(np.abs(W - prev)) <= _TOL:
            return W
        prev = W
    return None


def _lag_part(hp: HalfLineProblem, x: float, h: float, M: int):
    """Duhamel integral, scaled by e^{-s (t - t0)}, at t0 + h (1, ..., M): a convolution.

    In u = t - tau the integrand is k(u) (g(t - u) - gm), the kernel k
    (`_kernel`) depending on the lag alone.  g - gm is sampled at the
    10-point rule's nodes of each grid interval j and interpolated there,
    so row i is sum_q sum_j G[j, q] W[i - j - 1, q] (`_lag_moments`), one
    np.convolve per node.  An interval holding an inlet knot inside, by
    more than 1e-9 of its width, is cut at it, and each piece is added with
    its own samples and moments.  None when a check fails: moments that do
    not settle, or samples whose last two Legendre coefficients exceed
    _TOL max(1, |g - gm|).
    """
    kern, _ = _kernel(hp.params, x)
    ends = hp.t0 + h * np.arange(M + 1)
    knots = np.asarray(hp.g.knots, dtype=float)
    knots = knots[(knots > hp.t0) & (knots < ends[-1])]
    holder = np.searchsorted(ends, knots, side="right") - 1
    # where a knot sits in its interval; one within rounding of an end is on it
    pos = (knots - ends[holder]) / h
    inside = (pos > 1e-9) & (pos < 1.0 - 1e-9)
    pos, holder = pos[inside], holder[inside]
    node = 0.5 * (1.0 + _GL_X)
    G = hp.shifted(ends[:-1, None] + h * node)
    G[holder] = 0.0
    pieces = []  # (interval, lo, hi, samples) of the cut intervals
    for j in _sorted_unique(holder).astype(int).tolist():
        cuts = _sorted_unique(np.r_[0.0, pos[holder == j], 1.0])
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            pieces.append((j, lo, hi, hp.shifted(ends[j] + h * (lo + (hi - lo) * node))))
    samples = [G] + [q for *_, q in pieces]
    scale = _TOL * max(1.0, *(float(np.max(np.abs(q), initial=0.0)) for q in samples))
    if any(np.max(np.abs(q @ _GL10_TAIL).sum(axis=-1), initial=0.0) > scale
           for q in samples):
        return None
    W = _lag_moments(kern, h, 0.0, 1.0, M)
    if W is None:
        return None
    rows = np.zeros(M)
    for k in range(_GL_X.size):
        rows += np.convolve(G[:, k], W[:, k])[:M]
    for j, lo, hi, q in pieces:
        Wp = _lag_moments(kern, h, lo, hi, M - j)
        if Wp is None:
            return None
        rows[j:] += Wp @ q
    return rows


def _u_scaled(hp: HalfLineProblem, x: float, ts):
    """u(x, t) e^{-s (t - t0)} at each instant of the 1-D array ts.

    Past t0 and inside the half line this is the initial part plus the
    Duhamel part.  The Duhamel part at the instants of a uniform grid
    t0 + h (1, ..., M) is one lag convolution (`_lag_part`); at any other
    instants, or where that path's checks fail, each row is integrated on
    its own (`_boundary_part`).  A problem `at_rest` (phi the constant
    gamma/mu, as in a clean column without production) has Phi = 0, so its
    initial part is exactly 0.0 and is not integrated; every other phi is.
    """
    if not np.all(ts >= hp.t0):
        raise ParameterError("t precedes t0")
    out = np.empty(ts.shape)
    start = ts == hp.t0
    out[start] = hp.initial_scaled(x)
    later = ts[~start]
    if x == 0.0:
        out[~start] = hp.shifted(later)  # G(t) e^{-s (t - t0)} = g - gm
    elif later.size:
        h = _grid_step(hp.t0, later)
        part = None if h is None else _lag_part(hp, x, h, later.size)
        if part is None:
            part = _boundary_part(hp, x, later)
        if not hp.at_rest:
            part = _initial_part(hp, x, later) + part
        out[~start] = part
    return out


def exit_concentration(hp: HalfLineProblem, t):
    """C_E(t) = u(ell, t) e^{r ell - s t} + gamma/mu, at one t or an array."""
    p = hp.params
    scale = _exp_r_ell(p)
    ts = np.asarray(t, dtype=float)
    u = _u_scaled(hp, p.ell, ts.ravel()).reshape(ts.shape)
    return (u * scale + hp.gm)[()]


def exit_curve(data: ProblemData, t_end: float, *, n_grid: int = N_GRID) -> SmoothFn:
    """Exit concentration memoized on a uniform grid as a C^1 interpolant.

    The curve is exact at the grid instants and monotonicity-preserving in
    between; outside [t0, t_end] the end values are held.  Raise n_grid when
    downstream work needs the interpolation defect below the default few
    parts in 1e5 of the curve's scale.
    """
    if not float(t_end) > data.t0:
        raise ParameterError("t_end must exceed t0")
    if n_grid < N_GRID_MIN:
        raise ParameterError(f"n_grid must be at least {N_GRID_MIN}")
    hp = HalfLineProblem.from_data(data)
    ts = np.linspace(data.t0, float(t_end), int(n_grid))
    vals = exit_concentration(hp, ts)
    return SmoothFn.from_table(ts, vals)


def resolve_exit(data: ProblemData, t_end: float, *, n_grid: int = N_GRID) -> ProblemData:
    """Attach a computed exit curve to a problem that lacks measured data."""
    if data.exit is not None:
        return data
    curve = exit_curve(data, t_end, n_grid=n_grid)
    return data.with_exit(curve, computed=True)


def exit_concentration_large_t(params: TransportParams, g: SmoothFn, t: float) -> float:
    """Boundary-value exit concentration: all initial information dropped.

    Valid once the column has forgotten its initial state.  The problem is
    re-posed at rest (phi the constant gamma/mu) at t - horizon, where
    e^{s (tau - t)} falls below 1e-12, which always terminates because
    s >= v^2 / (4 D R) > 0; g must be evaluable there.
    """
    p = params
    horizon = max(np.log(1.0 / 1e-12) / p.s, 9.0 * p.ell * p.ell / (4.0 * (p.D / p.R)))
    rest = ProblemData(params=p, phi=SmoothFn.constant(_equilibrium_level(p)), g=g,
                       t0=float(t) - horizon)
    return float(exit_concentration(HalfLineProblem.from_data(rest), t))


def exit_curve_defect(data: ProblemData) -> float:
    """Largest gap between a computed exit curve and the closure between its knots.

    The probes are the midpoints of every k-th interval of the curve's grid,
    k = max(1, (n - 1) // 16) for n knots: 17 probes on the default grid.
    """
    curve = data.require_exit()
    knots = np.asarray(curve.knots)
    probes = 0.5 * (knots[:-1] + knots[1:])
    probes = probes[:: max(1, probes.size // 16)]
    exact = exit_concentration(HalfLineProblem.from_data(data), probes)
    return float(np.max(np.abs(curve.eval(probes) - exact)))
