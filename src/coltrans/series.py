"""Eigenfunction-series solution of the transformed column problem.

Separation of variables gives w(x,t) = sum_n T_n(t) phi_n(x) where each
coefficient obeys

    T_n' + beta_n T_n = e^{s (t - t0)} f_n(t),   beta_n = (D/R) lambda_n,
    f_n(t) = <F(.,t), phi_n> / <phi_n, phi_n>,

so that

    T_n(t) = int_{t0}^{t} e^{-beta_n (t - tau)} e^{s (tau - t0)} f_n(tau) dtau
             + e^{-beta_n (t - t0)} T_n(t0).

With d = t - tau the integrand is e^{s (t - t0)} e^{-(s + beta_n) d} f_n(t - d).
s + beta_n >= mu/R >= 0 for every mode of both families (the negative mode
has s + beta_0 = mu/R), so each kernel e^{-(s + beta_n) d} lies in [0, 1] and
no term exceeds e^{s (t - t0)}; the other split overflows for that mode.

The modes are `eigensystem`'s: one `spectrum` call gives the kept
eigenvalues and norms, and every phi_n is formed there.  The lift is
`model`'s: the forcing is a combination of its x-basis with
time-dependent weights (`model.forcing_weights`), and every mode projection
sums those weights against precomputed x-moments (`model._mode_moments`,
summed by `model._basis_sum`); the initial data's moments and the bounds'
int_0^ell F^2 dx come from `model` too.  The time integration is product
integration (Linz, *Analytical and Numerical Methods for Volterra
Equations*, SIAM 1985): each step is cut into pieces in d at the data knots
inside it (and, on long steps, at dyadic edges), the weights are
sampled at the 12 Gauss-Legendre nodes of a piece, and the kernels are
integrated exactly against the Lagrange basis of those samples.  A piece at
offset o of width w adds e^{-(s + beta) o} (q @ W(w)), and W(w) depends on
the width alone, so a march makes it once per distinct width: the build's
dense steps share a handful of widths.  W(w) is itself summed on 12-point
panels of one dyadic lattice in d: [0, 2^e0], across which the stiffest
kernel varies by at most e^4, then [2^e, 2^(e+1)] below w, then one coarse
panel up to w; the kernels of the lattice panels are made once per march.
The same 12-point rule, on panels of equal width between the knots of phi,
gives the base-square integral behind the coefficient bounds and projects
the initial data on all modes, so no build calls QUADPACK.  The projection
takes cos and sin of kappa_n x by angle addition, from one value per panel
and twelve per run of equal panels, in place of one per node.

The time axis is batched: `_march` advances many steps per call, each
piece summed by its own product, in passes of at most `_PASS` nodes and
blocks of at most `_BLOCK` entries.  The build marches every step of its
dense grid in one call.  That grid (`_dense_grid`) holds every knot of the
inlet and exit data and cuts each gap between them into equal steps of
about (t_end - t0)/512, so a computed exit, a table on 512 instants, is
marched one table interval per step, and the decay recurrence over the
steps takes its factors once per distinct width.  The coefficients and
evaluators take an array of instants and march them all at once, each
from the dense instant at or before it.  Every evaluator maps back
to C through one helper, `_evaluate`, which calls `model.invert`; C(x, t)
on a grid is one call, `eval_C(sol, xs, ts)`, with one row per instant.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass

from .errors import NumericOverflowError, ParameterError, QuadratureError
from .model import (
    _GL12_W,
    _GL12_X,
    _MAX_EXP,
    ProblemData,
    SmoothFn,
    _basis_sum,
    _forcing_sq,
    _gl_basis,
    _initial_moments,
    _mode_moments,
    _pchip,
    _sorted_unique,
    forcing_weights,
    invert,
    lift_H,
    lift_H_x,
)
from .eigensystem import (
    DANCKWERTS,
    ROBIN,
    EigenPair,
    _kappas,
    _phi_combine,
    _phi_matrices,
    inner_product,  # unused here; the benchmark traces series.inner_product
    robin_eigenpair,  # unused here; the benchmark traces series.robin_eigenpair
    spectrum,
)

__all__ = [
    "TruncationPolicy",
    "SeriesSolution",
    "build_solution",
    "project_forcing",
    "coefficient_bound",
    "tail_bound",
    "eval_C",
    "eval_C_x",
    "eval_large_t",
]

# 12-point Gauss-Legendre rule: the nodes of a march piece, and the panels of
# the lattice, on which the stiffest retained decay factor varies by at most
# ~e^4, where this rule holds far more accuracy than the 1e-10 target.
_GL_X, _GL_W = _GL12_X, _GL12_W
_PANELS = 1 << 13  # panels x modes per block of the T0 projection: 64 KB
_BLOCK = 1 << 15  # modes x nodes per block of the batched march: 256 KB
_PASS = 1 << 11   # nodes per pass of the march's forcing weights: 16 KB
_POINTS = 1 << 13  # instants x points per block of the evaluator: 64 KB
_DENSE_STEPS = 512  # the build marches steps of about (t_end - t0) / 512


@dataclass(frozen=True)
class TruncationPolicy:
    """How many modes to keep: n_max, or fewer once the tail bound meets tail_tol.

    tail_tol is compared with `tail_bound` at t_end, a bound on
    (1/2) sum T_n^2 (1 + r/sqrt(lambda_n)) in the transform's units, so it
    grows like e^{2 s (t_end - t0)} with the run's length.  Forced data
    never meet it, and there n_max decides.
    """

    n_max: int = 200
    tail_tol: float = 1e-8

    def __post_init__(self):
        if self.n_max < 1:
            raise ParameterError("n_max must be at least 1")
        if not 0.0 < self.tail_tol < np.inf:
            raise ParameterError("tail_tol must be positive and finite")


class SeriesSolution:
    """Frozen result of `build_solution`; evaluate, do not mutate.

    All arrays are index-aligned with `lam` and `norms`.  Both summations
    start at n = 0: the negative mode for Robin, the slow tangent-equation
    root below pi/ell for Danckwerts.  `build_solution` then sets `T0`, with
    the evaluator's own form of phi_n (`_phi_combine`), and the dense march
    through the evaluator's own `_march`.
    `data` is the problem solved, for Danckwerts with a zero exit; a
    measured exit is audited by passing its problem to `mass_balance`.
    Instances are safe to share across threads once built: evaluation only
    replaces a one-entry memo, the latest (t, T) pair, in one assignment.
    """

    def __init__(self, data, kind, policy, t_end, lam, norms,
                 moments, ff_cum, base_sq, reported_tail, notes):
        self.data = data            # the problem solved (zero exit for Danckwerts)
        self.kind = kind
        self.policy = policy
        self.t_end = float(t_end)
        self.lam = lam              # lambda_n, n = 0..n_used
        self.norms = norms          # <phi_n, phi_n>
        self.beta = (data.params.D / data.params.R) * self.lam
        self.moments = moments      # (basis, modes): model._mode_moments
        self.T0 = None              # T_n(t0)
        self._ff_cum = ff_cum       # cumulative int_0^ell F^2 dx dtau
        self._base_sq = base_sq     # int_0^ell (e^{-r x} phi - H(., t0))^2 dx
        self.reported_tail = float(reported_tail)
        self.notes = tuple(notes)
        self._knots = _knot_array(data)  # sorted knots of g and C_E
        self._dense_times = None
        self._dense_T = None
        self._memo = None           # (t, T) of the latest coefficients call

    @property
    def n_used(self) -> int:
        return self.lam.size - 1

    @property
    def pairs(self) -> tuple:
        """The kept modes as `EigenPair`s, made from `lam` and `norms` on each read."""
        return tuple(EigenPair(n, q, w, self.kind) for n, (q, w)
                     in enumerate(zip(self.lam.tolist(), self.norms.tolist())))

    @property
    def t0(self) -> float:
        return self.data.t0

    def _pos(self, n: int) -> int:
        if n < 0 or n >= self.lam.size:
            raise ParameterError(f"mode {n} not kept (have 0..{self.n_used})")
        return n

    def coefficients(self, t) -> np.ndarray:
        """All T_n at the instants t, shape (modes,) + np.shape(t).

        Each instant is marched from the nearest dense-grid instant at or
        before it, all in one `_march` call; a scalar t is a batch of one.
        The latest call's result is kept, so a repeat returns it as is.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t0 - 1e-12 * max(1.0, abs(self.t0))):
            raise ParameterError("t precedes t0")
        t = np.maximum(t, self.t0)
        memo = self._memo
        if memo is not None and np.array_equal(memo[0], t):
            return memo[1]
        ts = t.ravel()
        k = np.maximum(np.searchsorted(self._dense_times, ts, side="right") - 1, 0)
        T = _march(self, self._dense_T[:, k], self._dense_times[k], ts)
        T = T.reshape(T.shape[:1] + t.shape)
        self._memo = (t, T)
        return T


def _knot_array(data: ProblemData) -> np.ndarray:
    """Sorted knots of the inlet and exit curves, where panels are cut."""
    fns = (data.g, data.exit)
    return _sorted_unique([k for fn in fns if fn is not None for k in fn.knots])


def _knots_between(knots: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The knots strictly inside (lo, hi)."""
    return knots[np.searchsorted(knots, lo, side="right"):
                 np.searchsorted(knots, hi, side="left")]


def _dense_grid(knots: np.ndarray, t0: float, t_end: float) -> np.ndarray:
    """The build's march instants: every knot, and steps of about (t_end - t0)/512.

    Each gap between consecutive knots in (t0, t_end), t0 and t_end as
    ends, is cut into max(1, rint(gap / h)) equal steps, h = (t_end -
    t0)/`_DENSE_STEPS`.  Knot-free, the grid is np.linspace(t0, t_end, 513)
    bit for bit; a computed exit, tabulated on np.linspace(t0, t_end, 512),
    gets one step per table interval.
    """
    ends = np.r_[t0, _knots_between(knots, t0, t_end), t_end]
    gaps = np.diff(ends)
    counts = np.maximum(np.rint(gaps / ((t_end - t0) / _DENSE_STEPS)), 1.0).astype(int)
    # instant j of a gap sits at j * (gap / count) + its start, as in linspace
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.r_[j * np.repeat(gaps / counts, counts) + np.repeat(ends[:-1], counts),
                 t_end]


def _gl_nodes(lo, hi):
    """Nodes and weights of the 12-point rule on the panels [lo[i], hi[i]]."""
    mids = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    nodes = (mids[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, wts


def _lattice(kappa_max: float, width: float) -> np.ndarray:
    """Edges 0, 2^e0, 2^(e0 + 1), ..., 2^top <= width of the lattice in d = t - tau.

    e0 is the largest exponent with kappa_max 2^e0 <= 4, so the stiffest
    kernel e^{-kappa d} varies by at most e^4 across [0, 2^e0]; every later
    panel [2^e, 2^(e + 1)] is as wide as its distance from d = 0.
    """
    if not (kappa_max > 0.0 and width > 0.0):
        return np.zeros(1)
    e0 = math.frexp(4.0 / kappa_max)[1] - 1  # exact: 4/kappa never rounds up to 2^(e0 + 1)
    top = math.frexp(width)[1] - 1  # 2^top <= width < 2^(top + 1)
    return np.concatenate(([0.0], np.ldexp(1.0, np.arange(e0, top + 1))))


def _distinct(values):
    """A stable sort of `values` and their distinct values, by sort and mask.

    (order, distinct, rank): values[order] rises, ties kept in their order;
    distinct holds each value once, rising, as `_sorted_unique` gives them;
    values[i] == distinct[rank[i]].
    """
    order = np.argsort(values, kind="stable")
    distinct = _sorted_unique(values)
    return order, distinct, np.searchsorted(distinct, values)


def _pieces(sol: SeriesSolution, t_from, t_to):
    """Each step's pieces in d = t_to - tau: (step, offset, width), step by step.

    A step is cut at the data knots inside it and at the dyadic edges 2^e
    below its width that are at least twice the dense grid's spacing
    (t_end - t0)/`_DENSE_STEPS`.  No dense step is wider than 1.5
    spacings, so every dense step, and every evaluator step inside the
    grid, is one piece [0, w]; only long steps (past t_end, or
    `eval_large_t`) are cut, into pieces over which the data stay smooth.
    """
    width = t_to - t_from
    knots = sol._knots
    first = np.searchsorted(knots, t_from, side="right")
    last = np.searchsorted(knots, t_to, side="left")
    floor = 2.0 * (sol.t_end - sol.t0) / _DENSE_STEPS
    frac, e0 = math.frexp(floor)
    e0 -= frac == 0.5  # the smallest e with 2^e >= floor
    whole = (first == last) & (width <= floor)
    step, off, wid = [np.flatnonzero(whole)], [np.zeros(np.count_nonzero(whole))], [width[whole]]
    for k in np.flatnonzero(~whole).tolist():
        dyadic = np.ldexp(1.0, np.arange(e0, math.frexp(width[k])[1]))
        cuts = _sorted_unique(np.r_[0.0, t_to[k] - knots[first[k]:last[k]],
                                    dyadic[dyadic < width[k]], width[k]])
        step.append(np.full(cuts.size - 1, k))
        off.append(cuts[:-1])
        wid.append(np.diff(cuts))
    return np.concatenate(step), np.concatenate(off), np.concatenate(wid)


def _width_moments(edges, d, kernel, kappa, ws, prefix: dict) -> np.ndarray:
    """W(w)[j, n] = int_0^w e^{-kappa_n d} L_j(d/w) dd for each w in ws, rising.

    Shape (widths, 12, modes).  L_j is the Lagrange basis through the
    rule's nodes of [0, w] (`model._gl_basis`).  The integral runs over the
    12-point panels of the lattice `edges` below 2^top <= w, whose weighted
    kernels `kernel` at the nodes d are shared by every width, and over
    the coarse panel [2^top, w].  On [0, 2^top] each L_j(d/w) is a
    polynomial of degree 11, so it equals its interpolant through the
    rule's nodes D u_m of [0, D], D = 2^top: the lattice part is
    sum_m L_j(D u_m / w) P[m], where P = `prefix`[top] holds the lattice
    moments of that basis of [0, D], made once per D: widths come rising,
    so `prefix` keeps the latest D alone.  Each width gets its own
    products, so W(w) does not depend on the widths beside it.
    """
    full = np.searchsorted(edges, ws, side="right") - 1
    out = np.zeros((ws.size, _GL_X.size, kappa.size))
    node = 0.5 * (1.0 + _GL_X)
    runs = np.flatnonzero(np.r_[True, full[1:] != full[:-1], True])
    for a, b in zip(runs[:-1].tolist(), runs[1:].tolist()):
        f = int(full[a])
        if f == 0:
            continue
        if f not in prefix:
            n = _GL_X.size * f
            prefix.clear()
            prefix[f] = _gl_basis(d[:n] / edges[f], _GL_X, _GL_W).T @ kernel[:n]
        V = _gl_basis(edges[f] * node / ws[a:b, None], _GL_X, _GL_W)
        np.matmul(V.transpose(0, 2, 1), prefix[f], out=out[a:b])
    lo = edges[full]
    half = (0.5 * (ws - lo))[:, None]
    dc = (lo[:, None] + half) + half * _GL_X
    # the coarse nodes' weights go into the basis, so only the kernels are
    # made width by width, in one buffer
    coarse = _gl_basis(dc / ws[:, None], _GL_X, _GL_W) * (half * _GL_W)[..., None]
    coarse = coarse.transpose(0, 2, 1)
    K = np.empty((_GL_X.size, kappa.size))
    for i in range(ws.size):
        np.exp(np.multiply.outer(dc[i], -kappa, out=K), out=K)
        out[i] += coarse[i] @ K
    return out


def _march(sol: SeriesSolution, T_from, t_from, t_to):
    """Advance all coefficients from t_from[k] to t_to[k], for every step k.

    T_from broadcasts against (modes, steps), the shape returned; None
    means no initial term, so nothing is decayed.  The forcing integral is
    e^{s (t_k - t0)} int_0^w e^{-(s + beta) d} f(t_k - d) dd, with
    w = t_k - t_from[k].  s + beta >= mu/R >= 0 for every mode, so each
    kernel lies in [0, 1] and no term exceeds e^{s (t_k - t0)}.  Each step
    is cut into pieces (`_pieces`); a piece at offset o and of width w adds
    e^{-(s + beta) o} (q @ W(w)), where q holds the forcing weights at the
    12 nodes of the piece and W(w) (`_width_moments`) integrates the kernel
    exactly against their Lagrange basis.  The pieces are taken in order of
    width, in passes of at most `_PASS` nodes and half a `_BLOCK` of
    products, and W is made once per distinct width, in blocks of half a
    `_BLOCK`.  Each piece is summed by its own product, and a step's pieces
    are added in that one order, so a row does not depend on the batch or
    block size.
    """
    t_from = np.asarray(t_from, dtype=float)
    t_to = np.asarray(t_to, dtype=float)
    s = sol.data.params.s
    beta = sol.beta
    moving = t_to != t_from
    over = np.flatnonzero(moving & (s * (t_to - sol.t0) > _MAX_EXP))
    if over.size:
        raise NumericOverflowError(
            f"exp(s (t - t0)) overflows at t = {t_to[over[0]]:.6g} (s = {s:.6g}); "
            "rescale time or shorten the horizon"
        )
    T = np.zeros((beta.size, t_to.size))
    steps = np.flatnonzero(moving)
    step, off, wid = _pieces(sol, t_from[steps], t_to[steps])
    step = steps[step]
    kappa = s + beta
    edges = _lattice(float(np.max(kappa)), float(np.max(wid, initial=0.0)))
    d, wts = _gl_nodes(edges[:-1], edges[1:])
    kernel = wts[:, None] * np.exp(np.multiply.outer(-d, kappa))
    mn = sol.moments / sol.norms
    node = 0.5 * (1.0 + _GL_X)
    order, uw, rank = _distinct(wid)
    sw, uid = wid[order], rank[order]
    nw = max(1, _BLOCK // (2 * _GL_X.size * kappa.size))
    per = max(1, min(_PASS // _GL_X.size, _BLOCK // (2 * len(mn) * kappa.size)))
    y = np.empty((min(per, order.size), len(mn), kappa.size))
    block, first, prefix = None, 0, {}
    for i in range(0, order.size, per):
        idx = order[i:i + per]
        ks, o, w, u = step[idx], off[idx], sw[i:i + per], uid[i:i + per]
        tau = (t_to[ks] - o)[:, None] - w[:, None] * node
        q = np.stack(forcing_weights(sol.data, tau), axis=1)
        seg = np.flatnonzero(np.r_[True, u[1:] != u[:-1], True])
        for a, b in zip(seg[:-1].tolist(), seg[1:].tolist()):
            if block is None or u[a] >= first + nw:
                first, block = u[a], None  # the old block goes before the next is made
                block = _width_moments(edges, d, kernel, kappa, uw[first:first + nw], prefix)
            np.matmul(q[a:b], block[u[a] - first], out=y[a:b])
        v = _basis_sum(mn, y[:idx.size].transpose(1, 0, 2))
        far = o > 0.0
        if far.any():
            v[far] *= np.exp(np.multiply.outer(-o[far], kappa))
        v *= np.exp(s * (t_to[ks] - sol.t0))[:, None]
        sk = np.sort(ks)
        if np.all(sk[1:] != sk[:-1]):
            T[:, ks] += v.T
        else:  # some step has several pieces here: add them one by one
            np.add.at(T, (slice(None), ks), v.T)
    if T_from is not None:
        T_from = np.broadcast_to(T_from, T.shape)
        cols = max(1, _BLOCK // beta.size)
        for i in range(0, t_to.size, cols):
            c = slice(i, i + cols)
            decay = np.multiply.outer(-beta, t_to[c] - t_from[c])
            np.exp(decay, out=decay)
            decay *= T_from[:, c]
            T[:, c] += decay
    if not np.all(np.isfinite(T)):
        raise NumericOverflowError("series coefficients left the double range")
    return T


def _settled(data: ProblemData, pieces: int, integrate, what: str):
    """integrate(lo, hi, half) on 12-point panels over [0, ell], settled by halving.

    Each gap between phi's interior knots is cut into equal panels, as many
    as `pieces` times its share of ell (at least one), so a knot-free phi is
    cut at np.linspace(0, ell, pieces + 1).  lo and hi are the panel edges,
    `half` each panel's nominal half-width, one value across a gap.  The
    panels are halved until two passes agree to 1e-10 max(1, |value|) in
    every entry; QuadratureError after 8 halvings, NumericOverflowError at
    once on a value that is not finite.
    """
    p = data.params
    inner = [k for k in data.phi.knots if 0.0 < k < p.ell]
    ends = _sorted_unique(np.r_[0.0, inner, p.ell])
    gaps = np.diff(ends)
    counts = np.maximum(np.ceil(gaps / p.ell * pieces), 1.0).astype(int)
    cuts = np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b, k
                           in zip(ends[:-1], ends[1:], counts)] + [[p.ell]])
    half = np.repeat(0.5 * gaps / counts, counts)
    prev = None
    for _ in range(9):  # one pass, then at most 8 halvings
        with np.errstate(over="ignore", invalid="ignore"):
            val = integrate(cuts[:-1], cuts[1:], half)
        if not np.all(np.isfinite(val)):
            raise NumericOverflowError(f"{what} left the double range")
        tol = 1e-10 * np.maximum(1.0, np.abs(val))
        if prev is not None and np.all(np.abs(val - prev) <= tol):
            return val
        prev, cuts = val, np.sort(np.r_[cuts, 0.5 * (cuts[1:] + cuts[:-1])])
        half = np.repeat(0.5 * half, 2)
    raise QuadratureError(f"{what} did not settle after 8 halvings")


def _split(a):
    """Dekker's split a = hi + lo into halves of 26 bits: products of halves are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _projected(sol: SeriesSolution, lo, hi, half) -> np.ndarray:
    """The 12-point sums of e^{-r x} phi(x) phi_n(x) on the panels, every mode.

    A node is x = m + half xi_j, m the panel's midpoint, so by angle addition
    cos and sin of kappa_n x come from those of kappa_n m, one per panel, and
    of kappa_n half xi_j, one per node of a run of equal half-widths: each
    panel's node sums are the products f @ cos and f @ sin of its run's
    node phases, taken in blocks of at most `_PANELS` panels x modes and
    added up panel by panel, in the same order whatever the block.  The
    rounding error of kappa_n m is found exactly (Dekker's product) and
    added to the phase, since it is shared by the panel's 12 nodes.  The
    Robin n = 0 mode e^{r x} is summed node by node.
    """
    data = sol.data
    r = data.params.r
    kap = _kappas(sol.lam)
    kh, kl = _split(kap)
    mids = 0.5 * (hi + lo)
    mh, ml = _split(mids[:, None])
    x = mids[:, None] + half[:, None] * _GL_X
    f = half[:, None] * _GL_W * np.exp(-r * x) * data.phi.eval(x)
    sums = np.zeros((1, 2, kap.size))  # running sums of the cos and sin parts
    step = max(1, _PANELS // kap.size)
    runs = np.r_[0, np.flatnonzero(np.diff(half)) + 1, half.size]
    for a, b in zip(runs[:-1], runs[1:]):
        node = (half[a] * _GL_X)[:, None] * kap
        c_node, s_node = np.cos(node), np.sin(node)
        for i in range(a, b, step):
            j = min(i + step, b)
            arg = mids[i:j, None] * kap
            err = ((mh[i:j] * kh - arg) + mh[i:j] * kl + ml[i:j] * kh) + ml[i:j] * kl
            c_mid, s_mid = np.cos(arg), np.sin(arg, out=arg)
            c_mid, s_mid = c_mid - err * s_mid, s_mid + err * c_mid
            C, S = f[i:j] @ c_node, f[i:j] @ s_node
            part = np.stack((c_mid * C - s_mid * S, s_mid * C + c_mid * S), axis=1)
            part[0] += sums[-1]
            sums = np.add.accumulate(part, axis=0, out=part)
    e = f.ravel() @ np.exp(r * x.ravel()) if sol.kind == ROBIN else None
    return _phi_combine(sol.lam, r, e, *sums[-1])


def _initial_coefficients(sol: SeriesSolution) -> np.ndarray:
    """All T_n(t0) = <w(., t0), phi_n> / <phi_n, phi_n>, by `model._initial_moments`.

    e^{-r x} phi is projected by `_settled` and `_projected` on panels as
    fine as the fastest mode's half-waves; a constant phi by its moments.
    """
    data = sol.data
    phi_part = None
    if data.phi.const_value is None:
        pieces = int(np.ceil(data.params.ell * np.sqrt(sol.lam[-1]) / np.pi))
        phi_part = _settled(data, pieces, lambda lo, hi, half:
                            _projected(sol, lo, hi, half), "initial projection")
    return _initial_moments(data, sol.moments, phi_part) / sol.norms


def _forcing_sq_cum(data: ProblemData, t0: float, t_end: float):
    """Cumulative double integral of F^2 over [0, ell] x [t0, tau]."""
    taus = np.linspace(t0, t_end, 1025)
    # pull in data knots so the trapezoid sees every kink
    ks = _knots_between(_knot_array(data), t0, t_end)
    if ks.size:
        taus = _sorted_unique(np.concatenate([taus, ks]))
    fx2 = _forcing_sq(data, taus)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fx2[1:] + fx2[:-1]) * np.diff(taus))])
    return _pchip(taus, cum)[0]


def _base_sq_integral(data: ProblemData, pieces: int) -> float:
    """int_0^ell (e^{-r x} phi - H(., t0))^2 dx for the coefficient bounds.

    By `_settled`, from the half-waves of the fastest mode the series may keep.
    """
    p = data.params

    def square(lo, hi, _half):
        x, wts = _gl_nodes(lo, hi)
        H0 = lift_H(data, x, data.t0)
        return wts @ (np.exp(-p.r * x) * data.phi.eval(x) - H0) ** 2

    return float(_settled(data, pieces, square, "base-square integral"))


def _bound(value) -> float:
    """A bound as a float: inf past the double range, where inf - inf or
    0 inf made it nan."""
    value = float(value)
    return np.inf if np.isnan(value) else value


@np.errstate(over="ignore", invalid="ignore")
def coefficient_bound(sol: SeriesSolution, n: int, t: float) -> float:
    """Schwarz-type a-priori bound B on the square of T_n(t): |T_n(t)| <= sqrt(2 B).

    B = e^{2 s dt} (1 - e^{-rho dt}) / rho * int int F^2 / <phi_n, phi_n>
    plus the initial data's term, with rho = 2 (s + beta_n) and
    dt = t - t0.  The ratio, taken with expm1, tends to dt as rho -> 0, and
    is dt where rho is 0: so the negative mode at mu = 0, whose rho is 0
    up to rounding, gets one value whichever way rho rounds.  Past the
    double range (s dt above about 354) forced data give inf (`_bound`).
    """
    pos = sol._pos(n)
    t = float(t)
    s, norm, beta = sol.data.params.s, sol.norms[pos], sol.beta[pos]
    dt = t - sol.t0
    term2 = np.exp(-2.0 * beta * dt) * sol._base_sq / norm
    rho = 2.0 * (s + beta)
    ratio = -np.expm1(-rho * dt) / rho if rho else dt
    ff = float(sol._ff_cum(min(t, sol.t_end)))
    term1 = np.exp(2.0 * s * dt) * ratio * ff / norm if ff else 0.0
    return _bound(term1 + term2)


def tail_bound(sol: SeriesSolution, N: int, t: float) -> float:
    """Upper bound on (1/2) sum_{n > N} T_n(t)^2 (1 + r / sqrt(lambda_n)).

    Sums per-mode Schwarz terms, each at least `coefficient_bound` and so
    at least T_n^2 / 2, times the eigenfunction sup factor.  These are
    squares: with |T_n| <= sqrt(2 B_n) ~ 1/n, a sum of |T_n| would not
    converge.  Uses the explicit Robin eigenvalues (a valid lower bound on
    the Danckwerts ones, hence an upper bound on the terms) plus a
    closed-form integral-test remainder beyond an explicit window.
    """
    ff = float(sol._ff_cum(min(t, sol.t_end)))
    return _tail_bound_core(sol.data.params, sol.kind, ff, sol._base_sq,
                            sol.policy.tail_tol, N, t - sol.t0)


@np.errstate(over="ignore", invalid="ignore")
def _tail_bound_core(p, kind: str, ff: float, base_sq: float,
                     tail_tol: float, N: int, dt: float) -> float:
    """`tail_bound` from explicit parts at the elapsed time dt = t - t0; ff is
    int_{t0}^{t} int_0^ell F^2.  Past the double range, where e^{2 s dt}
    overflows, forced data give inf (`_bound`)."""
    r, ell, s = p.r, p.ell, p.s
    dr = p.D / p.R
    e2st = np.exp(2.0 * s * dt) if ff else 0.0  # not inf * 0 past the double range
    norm_floor = 0.25 * ell if kind == DANCKWERTS else 0.5 * ell
    n = np.arange(N + 1, N + 2001)
    lam, norm = spectrum(ROBIN, n, p)
    beta = dr * lam
    if kind != ROBIN:
        norm = norm_floor
    term1 = e2st * ff / (2.0 * (s + beta) * norm)
    term2 = np.exp(-2.0 * beta * dt) * base_sq / norm
    # the window ends at the first term under the stop test; cumsum adds
    # left to right, so the sum is the one a term-by-term loop would make
    stop = np.flatnonzero(term1 + term2 < 1e-4 * tail_tol / np.maximum(1, n))
    last = int(stop[0]) if stop.size else n.size - 1
    terms = (term1 + term2) * (1.0 + r / np.sqrt(lam))
    total = np.cumsum(terms[:last + 1])[-1]
    M = int(n[last])
    # integral-test remainder for the first bound term beyond the window;
    # the initial-data term decays doubly exponentially and is negligible
    # once the window ends, but fold in one more copy to stay one-sided.
    B = dr * (np.pi / ell) ** 2
    A = e2st * ff / (2.0 * norm_floor)
    rem1 = A * (1.0 + r * ell / (M * np.pi)) * (
        np.pi / 2.0 - np.arctan(M * np.sqrt(B / s))) / np.sqrt(s * B)
    lamM = ((M + 1) * np.pi / ell) ** 2
    rem2 = (np.exp(-2.0 * dr * lamM * dt) * base_sq / norm_floor
            * (1.0 + r * ell / np.pi) * 2.0)
    return _bound(total + rem1 + rem2)


def project_forcing(sol: SeriesSolution, n: int, tau):
    """f_n(tau): the forcing projected on mode n, normalized."""
    pos = sol._pos(n)
    weights = forcing_weights(sol.data, tau)
    out = _basis_sum(sol.moments[:, pos], weights) / sol.norms[pos]
    return out[()] if isinstance(out, np.ndarray) else out


def _sums(mat: np.ndarray, T: np.ndarray) -> np.ndarray:
    """One row mat @ T[:, k] per instant k, from T of shape (modes,) + shape(t).

    One matrix-vector product per instant, on a contiguous copy of its
    coefficients: a single matrix product, or a strided column, rounds
    differently from the product that one instant alone would make.
    """
    cols = T.reshape(T.shape[0], -1).T.copy()
    return np.array([mat @ c for c in cols]).reshape(len(cols), mat.shape[0])


def _shaped(out: np.ndarray, x, t):
    """(instants, points) rows as np.shape(t) + np.shape(x); a float for two scalars."""
    out = out.reshape(np.shape(t) + np.shape(x))
    return float(out) if out.ndim == 0 else out


def _evaluate(sol: SeriesSolution, x, t, T: np.ndarray, slope: bool = False):
    """C(x, t), or C_x with `slope`, from the coefficients T at the instants t.

    T has shape (modes,) + np.shape(t); the result np.shape(t) + np.shape(x).
    The phi matrices are built once; the sums, the lift and the inversion
    run over blocks of instants holding at most `_POINTS` points.
    """
    p = sol.data.params
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    T = T.reshape(T.shape[0], ts.size)
    vals, ders = _phi_matrices(sol.lam, xs, p.r, slope)
    out = np.empty((ts.size, xs.size))
    step = max(1, _POINTS // max(1, xs.size))
    for i in range(0, ts.size, step):
        tb, Tb = ts[i:i + step, None], T[:, i:i + step]
        H = lift_H(sol.data, xs, tb)
        C = invert(_sums(vals, Tb), H, xs, tb - sol.t0, p.r, p.s)
        if slope:
            Hx = lift_H_x(sol.data, xs, tb)
            C = invert(_sums(ders, Tb), Hx, xs, tb - sol.t0, p.r, p.s) + p.r * C
        bad = ~np.all(np.isfinite(C), axis=1)
        if bad.any():
            raise NumericOverflowError(
                f"series evaluation overflowed at t = {tb[bad, 0][0]:.6g}")
        out[i:i + step] = C
    return _shaped(out, x, t)


def eval_C(sol: SeriesSolution, x, t):
    """Concentration C(x, t) = w e^{r x - s t} + H e^{r x}.

    x and t are each a scalar or a 1-D array; the result has shape
    np.shape(t) + np.shape(x), one row per instant, so a (t, x) grid is
    one call: `eval_C(sol, xs, ts)` is (len(ts), len(xs)).
    """
    return _evaluate(sol, x, t, sol.coefficients(t))


def eval_C_x(sol: SeriesSolution, x, t):
    """Spatial concentration gradient, from termwise derivatives; shaped as `eval_C`."""
    return _evaluate(sol, x, t, sol.coefficients(t), slope=True)


def eval_large_t(sol: SeriesSolution, x, t: float, *, tau_min: float | None = None):
    """Pure boundary-value evaluation: the initial term is dropped.

    The forcing history is integrated from a finite tau_min chosen so the
    slowest retained decay factor has shrunk below 1e-12; for the Robin
    family the negative mode decays like exp(-(mu/R)(t - tau)), so mu = 0
    leaves no horizon criterion and an explicit tau_min is required.  The
    boundary data must be evaluable on [tau_min, t].
    """
    p = sol.data.params
    if tau_min is None:
        first_pos = 1 if sol.kind == ROBIN else 0
        lam_slow = sol.lam[first_pos]
        gap = np.log(1.0 / 1e-12) * p.R / (p.D * lam_slow)
        if sol.kind == ROBIN:
            if p.mu == 0.0:
                raise ParameterError(
                    "mu = 0: the negative mode never forgets its history; "
                    "supply tau_min explicitly"
                )
            gap = max(gap, np.log(1.0 / 1e-12) * p.R / p.mu)
        tau_min = t - gap
    if not float(tau_min) < float(t):
        raise ParameterError("tau_min must lie strictly before t")
    T = _march(sol, None, [float(tau_min)], [float(t)])
    return _evaluate(sol, x, float(t), T[:, 0])


def build_solution(data: ProblemData, policy: TruncationPolicy, t_end: float,
                   kind: str = ROBIN) -> SeriesSolution:
    """Assemble a series solution over [t0, t_end].

    For the Robin kind `data` must be resolved (exit concentration
    present).  The Danckwerts kind is the zero-gradient outlet closure
    C_x(ell, t) = 0: the series solves and keeps `data` with a zero exit
    concentration, its sum starts at the slow root n = 0 of the complete
    family, and it matches `fd_solve(..., kind=DANCKWERTS)`; a measured
    exit is audited by passing its problem to `mass_balance`.  Both
    summations run over n = 0..N.
    """
    if kind not in (ROBIN, DANCKWERTS):
        raise ParameterError(f"unknown series kind {kind!r}")
    if kind == ROBIN:
        data.require_exit()
    t_end = float(t_end)
    if not t_end > data.t0:
        raise ParameterError("t_end must exceed t0")
    p = data.params
    st = p.s * (t_end - data.t0)
    if st > _MAX_EXP:
        raise NumericOverflowError(f"exp(s (t_end - t0)) overflows (s (t_end - t0) = {st:.3g})")

    if kind == DANCKWERTS:
        data = data.with_exit(SmoothFn.constant(0.0))

    notes = []

    # base_sq first: data near the double range overflow its square before F^2
    base_sq = _base_sq_integral(data, policy.n_max)
    ff_cum = _forcing_sq_cum(data, data.t0, t_end)

    # Tail target: the first of 8, 16, 32, ... below n_max, then n_max, whose
    # a-priori tail is under tail_tol, else n_max with the achieved tail reported.
    ff_end = float(ff_cum(t_end))
    cands = [8 << k for k in range(policy.n_max.bit_length()) if 8 << k < policy.n_max]
    for N in cands + [policy.n_max]:
        reported = _tail_bound_core(p, kind, ff_end, base_sq, policy.tail_tol, N,
                                    t_end - data.t0)
        if reported <= policy.tail_tol:
            break
    if reported > policy.tail_tol:
        notes.append(
            f"tail target {policy.tail_tol:.3g} unreachable at n_max = "
            f"{policy.n_max}; achieved {reported:.3g}"
        )

    lam, norms = spectrum(kind, np.arange(N + 1), p)
    sol = SeriesSolution(
        data=data, kind=kind, policy=policy, t_end=t_end,
        lam=lam, norms=norms, moments=_mode_moments(kind, lam, p),
        ff_cum=ff_cum, base_sq=base_sq, reported_tail=reported, notes=notes,
    )
    sol.T0 = _initial_coefficients(sol)
    # dense recursion grid for fast arbitrary-time evaluation (`_dense_grid`):
    # the steps' increments from zero in one batched march, then the decay
    # recurrence (column 0 is the empty step t0 -> t0, which holds T0)
    dense = _dense_grid(sol._knots, data.t0, t_end)
    dense_T = _march(sol, None, np.r_[dense[0], dense[:-1]], dense)
    dense_T[:, 0] = sol.T0
    _, widths, which = _distinct(np.diff(dense))
    decay = np.exp(np.multiply.outer(widths, -sol.beta))
    for k in range(1, dense.size):
        dense_T[:, k] = dense_T[:, k - 1] * decay[which[k - 1]] + dense_T[:, k]
    if not np.all(np.isfinite(dense_T)):
        raise NumericOverflowError("series coefficients left the double range")
    sol._dense_times = dense
    sol._dense_T = dense_T
    return sol

