"""Output checks behind the `digits` metric and the failure count.

Each workload's outputs are compared with references computed outside the
timed region and cached per run file:

- `solve` concentrations are compared with a Richardson extrapolation of
  two Crank-Nicolson solves (1601 x 6400 and 3201 x 12800);
- the exit curve C_E(t) that `solve` writes is compared with a reference
  curve.  For a computed exit that curve is in turn checked against an
  independent mpmath evaluation of the half-line closure at 8 fixed
  instants of its own grid, where it carries no interpolation defect;
- `verify` must report PASS on every check line, and its series
  mass-balance residual is the error it states about itself.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

REF_VERSION = "2"

# written C_E against the reference curve, and that curve against mpmath;
# both are interpolation-free comparisons, so roundoff is all they allow
EXIT_TOL = 1e-9
# written concentrations against the extrapolated Crank-Nicolson solution,
# relative to the largest reference value; the series agrees to ~1e-5
CONC_TOL = 1e-3
DIGITS_CAP = 16.0

OUTPUTS = {
    "solve": ("breakthrough.csv", "manifest.json", "profile.csv"),
    "verify": ("balance.csv", "verify_summary.txt"),
}

# Crank-Nicolson grids (nodes, steps); the coarse one is the fine halved
_FD_GRIDS = ((1601, 6400), (3201, 12800))
# where on the exit grid the mpmath spot checks sit: 8 instants in (t0, t_end]
_MP_FRACTIONS = np.arange(1, 9) / 8.0


def _digits(err: float) -> float:
    if not np.isfinite(err):
        return 0.0
    if err <= 0.0:
        return DIGITS_CAP
    return float(min(DIGITS_CAP, max(0.0, -np.log10(err))))


# ---------------------------------------------------------------- references

def _mp_exit(cfg: dict, times) -> np.ndarray:
    """C_E(t) from the half-line closure, evaluated with mpmath.

    Written from the closure's formulas, not from the package.  The
    workloads with a computed exit start from zero with no production
    (phi = gamma = 0), so the initial part vanishes and only the Duhamel
    term is left:

        C_E = e^{r ell} ell / sqrt(pi kappa) int_0^sqrt(t - t0)
              e^{-ell^2 / (4 kappa sigma^2)} / sigma^2
              g(t - sigma^2) e^{-s sigma^2} dsigma,

    with g the smoothstep pulse of `SmoothFn.smooth_pulse`.
    """
    import mpmath as mp

    mp.mp.dps = 30
    p = {k: mp.mpf(v) for k, v in cfg["params"].items()}
    gcfg = cfg["g"]
    if (cfg["phi"] != {"kind": "constant", "value": 0.0} or p["gamma"] != 0
            or gcfg["kind"] != "pulse"):
        raise ValueError("the mpmath closure covers phi = gamma = 0 with a "
                         "pulse inlet only")
    t0 = mp.mpf(cfg["grid"]["t0"])
    r = p["v"] / (2 * p["D"])
    s = (p["v"] ** 2 / (4 * p["D"]) + p["mu"]) / p["R"]
    kap = p["D"] / p["R"]
    ell = p["ell"]
    a, b = mp.mpf(gcfg["start"]), mp.mpf(gcfg["stop"])
    lev = mp.mpf(gcfg.get("level", 1.0))
    ramp = mp.mpf(gcfg["ramp"]) if "ramp" in gcfg else (b - a) / 20
    knots = [a, a + ramp, b, b + ramp]

    def edge(u):
        u = min(max(u, mp.mpf(0)), mp.mpf(1))
        return u * u * (3 - 2 * u)

    def g(t):
        return lev * (edge((t - a) / ramp) - edge((t - b) / ramp))

    out = []
    for t in times:
        t = mp.mpf(t)
        smax = mp.sqrt(t - t0)
        cuts = sorted({mp.mpf(0), smax, min(smax, ell / (2 * mp.sqrt(kap)))}
                      | {mp.sqrt(t - k) for k in knots if t0 < k < t})

        def duhamel(sig):
            if sig == 0:
                return mp.mpf(0)
            return (mp.exp(-ell * ell / (4 * kap * sig * sig)) / (sig * sig)
                    * g(t - sig * sig) * mp.exp(-s * sig * sig))

        bdry = ell / mp.sqrt(mp.pi * kap) * mp.quad(duhamel, cuts)
        out.append(float(mp.exp(r * ell) * bdry))
    return np.array(out)


def _richardson(data, t_end, rows_t, cols_x):
    """Extrapolated Crank-Nicolson values at output instants and positions."""
    from coltrans import FdGrid, fd_solve

    sols = []
    for nx, nt in _FD_GRIDS:
        fd = fd_solve(data, t_end, FdGrid(nx=nx, nt=nt))
        it = np.rint((rows_t - data.t0) / (t_end - data.t0) * nt).astype(int)
        ix = np.rint(cols_x / data.params.ell * (nx - 1)).astype(int)
        sols.append(fd.C[np.ix_(it, ix)])
        del fd
    coarse, fine = sols
    return fine + (fine - coarse) / 3.0


def compute_reference(cfg: dict, ini_path: Path) -> dict:
    """Reference arrays for one generated run file (slow; cache the result)."""
    from coltrans import resolve_exit
    from coltrans.config import load_config

    if cfg["command"] == "verify":
        return {}
    rc = load_config(ini_path)
    data = rc.data
    t_end = rc.t_end
    ts = np.linspace(data.t0, t_end, rc.nt)
    ref = {"exit_mp_err": 0.0}
    if data.exit is None:
        n_grid = rc.exit_n_grid
        data = resolve_exit(data, t_end, n_grid=n_grid)
        grid = np.linspace(data.t0, t_end, n_grid)
        mp_t = grid[np.rint(_MP_FRACTIONS * (n_grid - 1)).astype(int)]
        curve_vals = np.asarray(data.exit.eval(mp_t), dtype=float)
        ref["exit_mp_err"] = _rel(curve_vals, _mp_exit(cfg, mp_t))
    ref["exit"] = np.asarray(data.exit.eval(ts), dtype=float)
    xs = np.linspace(0.0, data.params.ell, rc.nx)
    ref["C"] = _richardson(data, t_end, ts, xs)
    return ref


def load_reference(name: str, cfg: dict, ini_path: Path, cache_dir: Path) -> dict:
    """compute_reference, cached on disk by the run file's text."""
    key = hashlib.sha256((REF_VERSION + name + ini_path.read_text())
                         .encode()).hexdigest()[:20]
    path = cache_dir / f"{name}-{key}.npz"
    if path.exists():
        with np.load(path) as z:
            return {k: (z[k] if z[k].ndim else float(z[k])) for k in z.files}
    ref = compute_reference(cfg, ini_path)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **ref)
    tmp.replace(path)
    return ref


# -------------------------------------------------------------------- checks

def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rel(a, b) -> float:
    """Largest deviation of a from b, relative to the largest |b|."""
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def check(command: str, out_dir: Path, returncode: int, ref: dict) -> dict:
    """Judge one command run.

    Returns {"ok": bool, "digits": float, "errors": {...}, "reason": str}.
    `digits` is -log10 of the worst relative error; a run that fails any
    check scores 0, since none of its digits can be trusted.
    """
    res = {"ok": False, "digits": 0.0, "errors": {}, "reason": ""}
    if returncode != 0:
        res["reason"] = f"exit code {returncode}"
        return res
    missing = [f for f in OUTPUTS[command] if not (out_dir / f).is_file()]
    if missing:
        res["reason"] = f"missing outputs {missing}"
        return res
    errs = res["errors"]
    tols = {}
    try:
        if command == "verify":
            text = (out_dir / "verify_summary.txt").read_text()
            verdicts = re.findall(r"^(PASS|FAIL)  ", text, flags=re.M)
            m = re.search(r"series mass balance \(max relative\): (\S+)", text)
            if len(verdicts) != 4 or m is None:
                res["reason"] = "verify summary malformed"
                return res
            if "FAIL" in verdicts:
                res["reason"] = "a verify check failed"
                return res
            errs["series_balance"] = float(m.group(1))
        else:
            prof = _csv(out_dir / "profile.csv")
            bt = _csv(out_dir / "breakthrough.csv")
            if (prof.shape != (ref["C"].size, 3)
                    or bt.shape != (ref["exit"].size, 3)):
                res["reason"] = "output grid has the wrong shape"
                return res
            errs["conc"] = _rel(prof[:, 2].reshape(ref["C"].shape), ref["C"])
            errs["exit"] = max(_rel(bt[:, 2], ref["exit"]), ref["exit_mp_err"])
            tols = {"conc": CONC_TOL, "exit": EXIT_TOL}
    except (OSError, ValueError) as exc:
        res["reason"] = f"unreadable output: {exc}"
        return res
    bad = [k for k, tol in tols.items() if not errs[k] <= tol]
    if bad:
        res["reason"] = "outside tolerance: " + ", ".join(
            f"{k} {errs[k]:.3g} > {tols[k]:.3g}" for k in bad)
        return res
    res["ok"] = True
    res["digits"] = _digits(max(errs.values()))
    return res
