"""INI run configuration.

A run file has the shape

    [params]
    R = 1.0
    D = 0.5
    v = 1.0
    mu = 0.1
    gamma = 0.0
    ell = 1.0

    [grid]
    t0 = 0.0
    t_end = 2.0
    nx = 101
    nt = 81

    [phi]
    kind = constant
    value = 0.0

    [g]
    kind = pulse
    start = 0.1
    stop = 0.6
    level = 1.0

plus optional [exit], [policy], [verify] and [chain] sections.  Function
sections ([phi], [g], measured [exit]) accept kinds constant, polynomial,
pulse, gaussian and table; omitted sections default to zero.  Without a
measured [exit] the exit concentration is computed from the half-line
closure on a grid of exit.n_grid points.
"""

from __future__ import annotations

import configparser
import numpy as np
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError
from .model import ProblemData, SmoothFn, TransportParams
from .series import TruncationPolicy

__all__ = ["RunConfig", "VerifyOptions", "ChainOptions", "load_config"]


@dataclass(frozen=True)
class VerifyOptions:
    fd_nx: int = 201
    fd_nt: int = 400
    balance_tol: float = 1e-4
    compare_tol: float = 1e-3
    n_times: int = 33


@dataclass(frozen=True)
class ChainOptions:
    lengths: tuple
    n_grid: int = 512


@dataclass(frozen=True)
class RunConfig:
    data: ProblemData            # exit present only when measured
    policy: TruncationPolicy
    t_end: float
    nx: int = 101
    nt: int = 81
    exit_n_grid: int = 512
    out_dir: str = "out"
    verify: VerifyOptions = field(default_factory=VerifyOptions)
    chain: ChainOptions | None = None
    source: str = ""             # raw run-file text, echoed into manifests


def _floats(raw: str) -> list:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {raw!r}") from exc


_REQUIRED = object()


def _get(cp, section, key, conv=float, default=_REQUIRED):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return conv(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if default is _REQUIRED:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return default


def _parse_fn(cp, section: str) -> SmoothFn:
    kind = _get(cp, section, "kind", str, "constant").strip().lower()
    if kind == "constant":
        return SmoothFn.constant(_get(cp, section, "value", float, 0.0))
    if kind == "polynomial":
        coeffs = _floats(_get(cp, section, "coeffs", str))
        if not coeffs:
            raise ConfigError(f"[{section}] polynomial needs coeffs")
        return SmoothFn.polynomial(coeffs)
    if kind == "pulse":
        start = _get(cp, section, "start")
        stop = _get(cp, section, "stop")
        level = _get(cp, section, "level", float, 1.0)
        ramp = _get(cp, section, "ramp", float, None)
        try:
            return SmoothFn.smooth_pulse(start, stop, level, ramp=ramp)
        except ParameterError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    if kind == "gaussian":
        return SmoothFn.exp_pulse(
            level=_get(cp, section, "level", float, 1.0),
            center=_get(cp, section, "center"),
            width=_get(cp, section, "width"),
        )
    if kind == "table":
        knots = _floats(_get(cp, section, "knots", str))
        values = _floats(_get(cp, section, "values", str))
        try:
            return SmoothFn.from_table(knots, values)
        except ParameterError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    raise ConfigError(f"[{section}] unknown kind {kind!r}")


def load_config(path) -> RunConfig:
    """Read and validate a run file; raises ConfigError on any defect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    cp = configparser.ConfigParser()
    try:
        source = path.read_text()
        cp.read_string(source, source=str(path))
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc

    known = {"params", "grid", "phi", "g", "exit", "policy",
             "verify", "chain", "output"}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"unknown section [{sec}]")
    if not cp.has_section("params"):
        raise ConfigError("missing [params] section")
    if not cp.has_section("grid"):
        raise ConfigError("missing [grid] section")

    try:
        params = TransportParams(
            R=_get(cp, "params", "R", float, 1.0),
            D=_get(cp, "params", "D"),
            v=_get(cp, "params", "v"),
            mu=_get(cp, "params", "mu", float, 0.0),
            gamma=_get(cp, "params", "gamma", float, 0.0),
            ell=_get(cp, "params", "ell"),
        )
    except ParameterError as exc:
        raise ConfigError(f"[params]: {exc}") from exc

    t0 = _get(cp, "grid", "t0", float, 0.0)
    t_end = _get(cp, "grid", "t_end")
    if not np.isfinite(t_end) or t_end <= t0:
        raise ConfigError("[grid] t_end must be finite and exceed t0")
    nx = _get(cp, "grid", "nx", int, 101)
    nt = _get(cp, "grid", "nt", int, 81)
    if nx < 2 or nt < 2:
        raise ConfigError("[grid] nx and nt must be at least 2")

    phi = _parse_fn(cp, "phi") if cp.has_section("phi") else SmoothFn.constant(0.0)
    g = _parse_fn(cp, "g") if cp.has_section("g") else SmoothFn.constant(0.0)

    exit_fn = None
    exit_n_grid = 512
    if cp.has_section("exit"):
        ekind = _get(cp, "exit", "kind", str, "computed").strip().lower()
        exit_n_grid = _get(cp, "exit", "n_grid", int, 512)
        if exit_n_grid < 8:
            raise ConfigError("[exit] n_grid must be at least 8")
        if ekind != "computed":
            exit_fn = _parse_fn(cp, "exit")

    try:
        data = ProblemData(params=params, phi=phi, g=g, exit=exit_fn, t0=t0)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        policy = TruncationPolicy(
            n_max=_get(cp, "policy", "n_max", int, 200),
            tail_tol=_get(cp, "policy", "tail_tol", float, 1e-8),
        )
    except ParameterError as exc:
        raise ConfigError(f"[policy]: {exc}") from exc

    verify = VerifyOptions(
        fd_nx=_get(cp, "verify", "fd_nx", int, 201),
        fd_nt=_get(cp, "verify", "fd_nt", int, 400),
        balance_tol=_get(cp, "verify", "balance_tol", float, 1e-4),
        compare_tol=_get(cp, "verify", "compare_tol", float, 1e-3),
        n_times=_get(cp, "verify", "n_times", int, 33),
    )
    if verify.fd_nx % 2 == 0:
        raise ConfigError("[verify] fd_nx must be odd for the balance audit")

    chain = None
    if cp.has_section("chain"):
        lengths = tuple(_floats(_get(cp, "chain", "lengths", str)))
        if not lengths or any(L <= 0 for L in lengths):
            raise ConfigError("[chain] lengths must be positive numbers")
        chain = ChainOptions(
            lengths=lengths,
            n_grid=_get(cp, "chain", "n_grid", int, 512),
        )
        if chain.n_grid < 8:
            raise ConfigError("[chain] n_grid must be at least 8")

    out_dir = _get(cp, "output", "dir", str, "out")

    return RunConfig(data=data, policy=policy, t_end=float(t_end), nx=nx, nt=nt,
                     exit_n_grid=exit_n_grid, out_dir=out_dir, verify=verify,
                     chain=chain, source=source)
