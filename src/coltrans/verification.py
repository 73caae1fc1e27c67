"""Independent checks: finite differences, mass balance, Danckwerts error.

The finite-difference oracle and the balance audits reuse none of the
series machinery's analysis, so that agreement with them is evidence rather
than tautology: the oracle discretizes the original equation directly.  The
Danckwerts diagnostics compare two series, flux-data and zero-gradient.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .errors import ParameterError
from .model import ProblemData
from .eigensystem import DANCKWERTS, ROBIN
from .exitflux import N_GRID, resolve_exit
from .series import SeriesSolution, TruncationPolicy, build_solution, eval_C

__all__ = [
    "FdGrid",
    "FdResult",
    "fd_solve",
    "fd_convergence_order",
    "BalanceReport",
    "mass_balance",
    "mass_balance_fd",
    "DanckwertsReport",
    "danckwerts_comparison",
    "DanckwertsGap",
    "danckwerts_error",
]

BALANCE_NX = 257     # default nodes of the series balance audit's Simpson rule
BALANCE_TIMES = 33   # default instants of the series balance audit


@dataclass(frozen=True)
class FdGrid:
    """Space-time resolution of the Crank-Nicolson oracle."""

    nx: int = 201   # spatial nodes including both faces
    nt: int = 400   # time steps

    def __post_init__(self):
        if self.nx < 5:
            raise ParameterError("FD grid nx must be at least 5")
        if self.nt < 1:
            raise ParameterError("FD grid nt must be at least 1")


@dataclass(frozen=True)
class FdResult:
    """Dense Crank-Nicolson solution on its grid."""

    x: np.ndarray     # (nx,)
    t: np.ndarray     # (nt + 1,)
    C: np.ndarray     # (nt + 1, nx)
    data: ProblemData


def _operator_diagonals(data: ProblemData, h: float, nx: int, t: np.ndarray,
                        kind: str):
    """Tridiagonal transport operator with ghost-node closures.

    The boundary rows eliminate the ghost values implied by second-order
    central differencing of v C - D C_x = v g (inlet) and, at the outlet,
    of v C - D C_x = v C_E for the Robin kind or of C_x = 0 for the
    Danckwerts kind.  The data enter through the affine loads, returned
    for every instant of `t` at the inlet and outlet rows; every interior
    row's load is gamma / R.
    """
    p = data.params
    dR = p.D / p.R
    vR = p.v / p.R
    lower = np.full(nx - 1, dR / h**2 + vR / (2.0 * h))
    upper = np.full(nx - 1, dR / h**2 - vR / (2.0 * h))
    main = np.full(nx, -2.0 * dR / h**2 - p.mu / p.R)

    two_vRh = 2.0 * p.v / (p.R * h)
    v2DR = p.v * p.v / (p.D * p.R)
    main[0] = -2.0 * dR / h**2 - p.mu / p.R - two_vRh - v2DR
    upper[0] = 2.0 * dR / h**2
    gR = p.gamma / p.R
    q_in = gR + np.asarray(data.g.eval(t), dtype=float) * (two_vRh + v2DR)
    if kind == ROBIN:
        main[-1] = -2.0 * dR / h**2 - p.mu / p.R + two_vRh - v2DR
        cE = np.asarray(data.require_exit().eval(t), dtype=float)
        q_out = gR + cE * (v2DR - two_vRh)
    else:
        main[-1] = -2.0 * dR / h**2 - p.mu / p.R
        q_out = np.full(t.size, gR)
    lower[-1] = 2.0 * dR / h**2
    return lower, main, upper, q_in, q_out


class _GtsvFactors(NamedTuple):
    """LU factors of a tridiagonal matrix, rows interchanged as dgtsv does."""

    fact: list   # multiplier of elimination step i, rows 0 .. n-2
    swap: list   # whether step i interchanged rows i and i+1
    d: list      # diagonal of U
    du: list     # first superdiagonal of U
    du2: list    # second superdiagonal of U: the fill of an interchange, else 0.0


def _gtsv_factor(dl, d, du) -> _GtsvFactors:
    """Factor the n x n tridiagonal matrix (dl, d, du), n >= 2, in dgtsv's order.

    Gaussian elimination with partial pivoting: step i keeps its rows when
    |d_i| >= |dl_i| and interchanges rows i and i+1 otherwise, which puts
    a fill entry on the second superdiagonal.  The factors are lists of
    Python floats, whose arithmetic is several times faster than numpy
    scalars' in `_gtsv_solve`'s loops.
    """
    dl, d, du = (np.asarray(a, dtype=float).tolist() for a in (dl, d, du))
    n = len(d)
    fact, swap = [0.0] * (n - 1), [False] * (n - 1)
    du2 = [0.0] * (n - 2)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ParameterError(f"tridiagonal matrix is singular at row {i}")
            fact[i] = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact[i] * du[i]
        else:
            fact[i] = d[i] / dl[i]
            swap[i] = True
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact[i] * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact[i] * du2[i]
            du[i] = temp
    if d[-1] == 0.0:
        raise ParameterError(f"tridiagonal matrix is singular at row {n - 1}")
    return _GtsvFactors(fact, swap, d, du, du2)


def _gtsv_solve(lu: _GtsvFactors, b: list) -> list:
    """Solve with the factors of `_gtsv_factor`, in dgtsv's operation order.

    The forward sweep repeats the factorization's interchanges and
    eliminations on b; the back substitution computes
    x_i = (y_i - du_i x_{i+1} - du2_i x_{i+2}) / d_i from the last row up.
    """
    y = []
    push = y.append
    c = b[0]   # the row that the next elimination step pivots on
    for m, s, bn in zip(lu.fact, lu.swap, b[1:]):
        if s:
            push(bn)
            c = c - m * bn
        else:
            push(c)
            c = bn - m * c
    d, du, du2 = lu.d, lu.du, lu.du2
    x2 = c / d[-1]
    x1 = (y[-1] - du[-1] * x2) / d[-2]
    x = [x2, x1]
    for yi, di, ui, wi in zip(reversed(y[:-1]), reversed(d[:-2]),
                              reversed(du[:-1]), reversed(du2)):
        x1, x2 = (yi - ui * x1 - wi * x2) / di, x1
        x.append(x1)
    x.reverse()
    return x


def fd_solve(data: ProblemData, t_end: float, grid: FdGrid = FdGrid(),
             kind: str = ROBIN) -> FdResult:
    """March the original equation with Crank-Nicolson time stepping.

    `kind` picks the outlet closure as in `build_solution`: the flux
    condition with the resolved exit curve (ROBIN), or the zero gradient
    C_x(ell, t) = 0 (DANCKWERTS), which needs no exit curve.

    The constant matrix I - (dt/2) A is factored once and each step's
    system is solved with those factors, in the operation order of LAPACK
    dgtsv (row interchanges included).  That order keeps every value bit
    for bit what a banded LAPACK solve of the same systems gives, so the
    oracle needs no scipy and its outputs do not move.
    """
    if kind not in (ROBIN, DANCKWERTS):
        raise ParameterError(f"unknown outlet closure {kind!r}")
    if kind == ROBIN:
        data.require_exit()
    p = data.params
    t_end = float(t_end)
    if not t_end > data.t0:
        raise ParameterError("t_end must exceed t0")
    nx, nt = grid.nx, grid.nt
    x = np.linspace(0.0, p.ell, nx)
    h = x[1] - x[0]
    t = np.linspace(data.t0, t_end, nt + 1)
    dt = t[1] - t[0]

    lower, main, upper, q_in, q_out = _operator_diagonals(data, h, nx, t, kind)
    lu = _gtsv_factor(-0.5 * dt * lower, 1.0 - 0.5 * dt * main,
                      -0.5 * dt * upper)

    # q_k + q_{k+1} of each step; the interior rows' sum never changes
    gR = p.gamma / p.R
    q = np.full(nx, gR + gR)
    q_in = q_in[:-1] + q_in[1:]
    q_out = q_out[:-1] + q_out[1:]

    C = np.empty((nt + 1, nx))
    C[0] = np.asarray(data.phi.eval(x), dtype=float)
    for k in range(nt):
        ck = C[k]
        rhs = ck.copy()
        rhs += 0.5 * dt * (main * ck)
        rhs[:-1] += 0.5 * dt * upper * ck[1:]
        rhs[1:] += 0.5 * dt * lower * ck[:-1]
        q[0], q[-1] = q_in[k], q_out[k]
        rhs += 0.5 * dt * q
        C[k + 1] = _gtsv_solve(lu, rhs.tolist())
    return FdResult(x=x, t=t, C=C, data=data)


def fd_convergence_order(data: ProblemData, t_end: float,
                         grid: FdGrid = FdGrid(nx=65, nt=64)) -> tuple:
    """Observed Richardson order from three jointly refined solves.

    Returns (order, coarse_minus_mid, mid_minus_fine) where the differences
    are max-norm gaps at the final time on the coarse nodes.  Smooth,
    compatible data should give an order near 2.
    """
    finals = []  # copies, so that each solve's history goes before the next
    for k in range(3):
        g = FdGrid(nx=(grid.nx - 1) * 2**k + 1, nt=grid.nt * 2**k)
        finals.append(fd_solve(data, t_end, g).C[-1].copy())
    c0 = finals[0]
    c1 = finals[1][::2]
    c2 = finals[2][::4]
    e1 = float(np.max(np.abs(c0 - c1)))
    e2 = float(np.max(np.abs(c1 - c2)))
    if e2 == 0.0:
        return np.inf, e1, e2
    return float(np.log2(e1 / e2)), e1, e2


@dataclass(frozen=True)
class BalanceReport:
    """Mass-balance audit: residual of the integrated storage equation.

    The storage rate R d/dt int C dx must equal the net boundary inflow
    v g - v C_E plus the interior source int (gamma - mu C) dx.  `relative`
    scales by the largest term magnitude seen over the audit, and is zero
    for identically vanishing books.
    """

    times: np.ndarray
    residual: np.ndarray
    relative: np.ndarray
    scale: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residual))) if self.residual.size else 0.0

    @property
    def max_rel(self) -> float:
        return float(np.max(self.relative)) if self.relative.size else 0.0


def _check_simpson(n: int):
    if n < 3 or n % 2 == 0:
        raise ParameterError("Simpson quadrature needs an odd node count, at least 3")


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    _check_simpson(x.size)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * ((x[1] - x[0]) / 3.0)


def _books(data: ProblemData, times: np.ndarray, ht: float, masses,
           conc, w: np.ndarray) -> BalanceReport:
    """The storage equation's residual at each audit instant.

    Row i of `masses` holds w @ C at times[i] - 2 ht, - ht, + ht and + 2 ht,
    row i of `conc` holds C at times[i].  Each mass and source is one row's
    dot product, so audits that read the same rows agree bit for bit.
    """
    if not times.size:
        raise ParameterError("the balance audit needs at least one instant")
    p = data.params
    m = np.asarray(masses, dtype=float)
    storage = p.R * ((m[:, 0] - 8.0 * m[:, 1] + 8.0 * m[:, 2] - m[:, 3]) / (12.0 * ht))
    gin = p.v * np.asarray(data.g.eval(times), dtype=float)
    gout = p.v * np.asarray(data.require_exit().eval(times), dtype=float)
    source = np.array([float(w @ (p.gamma - p.mu * c)) for c in conc])
    res = storage - gin + gout - source
    scale = float(np.max(np.abs([storage, gin, gout, source]), initial=0.0))
    rel = np.abs(res) / scale if scale > 0.0 else np.zeros_like(res)
    return BalanceReport(times=times, residual=res, relative=rel, scale=scale)


def mass_balance(Cfun, data: ProblemData, t_end: float, *, times=None,
                 nx: int = BALANCE_NX, n_times: int = BALANCE_TIMES) -> BalanceReport:
    """Audit any evaluator Cfun(x_array, t_array) -> concentrations.

    Cfun is called once, with every audit instant and its stencil
    instants, and returns one row per instant: shape (len(t), len(x)), as
    `series.eval_C` does.  The storage derivative uses a five-point
    central stencil, so audited instants keep a two-stencil margin inside
    [t0, t_end].
    """
    data.require_exit()
    _check_simpson(nx)
    p = data.params
    t_end = float(t_end)
    span = t_end - data.t0
    ht = span / 2000.0
    if times is None:
        if n_times < 1:
            raise ParameterError("n_times must be at least 1")
        times = np.linspace(data.t0 + 2.5 * ht, t_end - 2.5 * ht, n_times)
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < data.t0 + 2.0 * ht or times.max() > t_end - 2.0 * ht):
        raise ParameterError("audit times leave no room for the time stencil")
    xs = np.linspace(0.0, p.ell, nx)
    w = _simpson_weights(xs)

    # per audit instant: t - 2 ht, t - ht, t, t + ht, t + 2 ht
    instants = times[:, None] + np.array([-2, -1, 0, 1, 2])[None, :] * ht
    conc = np.asarray(Cfun(xs, instants.ravel()), dtype=float)
    conc = conc.reshape(times.size, 5, nx)
    masses = [[float(w @ c[k]) for k in (0, 1, 3, 4)] for c in conc]
    return _books(data, times, ht, masses, conc[:, 2], w)


def mass_balance_fd(fdres: FdResult) -> BalanceReport:
    """Audit a finite-difference run on its own grid and time levels."""
    w = _simpson_weights(fdres.x)
    M = np.array([float(w @ c) for c in fdres.C])
    masses = np.stack([M[:-4], M[1:-3], M[3:-1], M[4:]], axis=1)
    return _books(fdres.data, fdres.t[2:-2], fdres.t[1] - fdres.t[0], masses,
                  fdres.C[2:-2], w)


@dataclass(frozen=True)
class DanckwertsReport:
    """Pointwise gap between the flux-data solution and the Danckwerts one."""

    times: np.ndarray
    sup_diff: np.ndarray        # sup_x |C - C_D| per audited time
    gamma_over_mu: float | None

    @property
    def max_sup(self) -> float:
        return float(np.max(self.sup_diff, initial=0.0))

    @property
    def final_sup(self) -> float:
        return float(self.sup_diff[-1]) if self.sup_diff.size else 0.0


def danckwerts_comparison(robin_sol: SeriesSolution,
                          danck_sol: SeriesSolution) -> DanckwertsReport:
    """Measure sup_x |C(x,t) - C_D(x,t)| at 129 even x on [0, ell].

    The instants are the 40 past t0 of 41 even ones up to the shorter t_end.
    """
    if robin_sol.kind != ROBIN or danck_sol.kind != DANCKWERTS:
        raise ParameterError("pass the flux-data solution first, Danckwerts second")
    if robin_sol.data.params != danck_sol.data.params:
        raise ParameterError("solutions must share transport parameters")
    p = robin_sol.data.params
    t_end = min(robin_sol.t_end, danck_sol.t_end)
    times = np.linspace(robin_sol.t0, t_end, 41)[1:]
    xs = np.linspace(0.0, p.ell, 129)
    diff = eval_C(robin_sol, xs, times) - eval_C(danck_sol, xs, times)
    sup = np.max(np.abs(diff), axis=1)
    gm = p.gamma / p.mu if p.mu > 0.0 else None
    return DanckwertsReport(times=times, sup_diff=sup, gamma_over_mu=gm)


class DanckwertsGap(NamedTuple):
    """Outlet-face gap and the production-equilibrium reference level."""

    e_d: float
    lower_bound: Optional[float]

    def meets_lower_bound(self) -> Optional[bool]:
        """Whether e_d >= lower_bound (1 - 0.2); None when mu = 0."""
        if self.lower_bound is None:
            return None
        return self.e_d >= self.lower_bound * (1.0 - 0.2)


def danckwerts_error(data: ProblemData, t: float, L_large: float, *,
                     policy: TruncationPolicy | None = None,
                     n_grid: int = N_GRID) -> DanckwertsGap:
    """|C(ell,t) - C_D(ell,t)| with the column stretched to length L_large.

    Builds both solutions on `data` re-posed at the new length: phi and g
    carry over unchanged, and the exit concentration is re-resolved from
    the half-line closure unless the length is unchanged and a curve was
    already supplied.  The reference level gamma/mu is the concentration a
    long column equilibrates to far from the inlet; it is None when mu = 0.
    """
    t = float(t)
    p = replace(data.params, ell=float(L_large))
    keep_exit = data.exit is not None and p.ell == data.params.ell
    stretched = ProblemData(params=p, phi=data.phi, g=data.g,
                            exit=data.exit if keep_exit else None,
                            t0=data.t0)
    if stretched.exit is None:
        stretched = resolve_exit(stretched, t, n_grid=n_grid)
    if policy is None:
        policy = TruncationPolicy()
    robin = build_solution(stretched, policy, t, kind=ROBIN)
    danck = build_solution(stretched, policy, t, kind=DANCKWERTS)
    x_exit = np.array([p.ell])
    e_d = abs(float(eval_C(robin, x_exit, t)[0]) -
              float(eval_C(danck, x_exit, t)[0]))
    lb = abs(p.gamma / p.mu) if p.mu > 0.0 else None
    return DanckwertsGap(e_d=e_d, lower_bound=lb)
