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

    [phi]
    kind = constant
    value = 0.0

    [g]
    kind = pulse
    start = 0.1
    stop = 0.6
    level = 1.0

plus optional [grid] nx and nt, and optional [exit], [policy], [verify],
[chain] and [output] sections.  Function sections ([phi], [g], measured
[exit]) accept kinds constant, polynomial, pulse, gaussian and table;
omitted sections default to zero.  Without a measured [exit] the exit
concentration is computed from the half-line closure on a grid of
[exit] n_grid points, for every command and every `chain` segment; a
measured [exit] takes no n_grid.  Each option's default and range check
live in the dataclass that holds it (`TransportParams`, `ProblemData`
for t0, `TruncationPolicy`, `VerifyOptions`, `ChainOptions`, `RunConfig`)
or in the constant it reads; the loader passes on only the keys a run
file sets, and the CLI flags go through the same checks.  A key that the
loader does not read is a ConfigError.
"""

from __future__ import annotations

import configparser
import numpy as np
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParameterError
from .exitflux import N_GRID, N_GRID_MIN
from .model import ProblemData, SmoothFn, TransportParams
from .series import TruncationPolicy
from .verification import BALANCE_TIMES, FdGrid

__all__ = ["RunConfig", "VerifyOptions", "ChainOptions", "load_config"]


@dataclass(frozen=True)
class VerifyOptions:
    fd_nx: int = FdGrid.nx
    fd_nt: int = FdGrid.nt
    balance_tol: float = 1e-4
    compare_tol: float = 1e-3
    n_times: int = BALANCE_TIMES

    def __post_init__(self):
        FdGrid(nx=self.fd_nx, nt=self.fd_nt)  # the oracle's own checks
        if self.fd_nx % 2 == 0:
            raise ParameterError("fd_nx must be odd for the balance audit")
        if self.fd_nt < 4:
            raise ParameterError("fd_nt must be at least 4 for the balance audit")
        for tol in ("balance_tol", "compare_tol"):
            if not 0.0 < getattr(self, tol) < np.inf:
                raise ParameterError(f"{tol} must be positive and finite")
        if self.n_times < 1:
            raise ParameterError("n_times must be at least 1")


@dataclass(frozen=True)
class ChainOptions:
    lengths: tuple

    def __post_init__(self):
        if not self.lengths or not all(0.0 < L < np.inf for L in self.lengths):
            raise ParameterError("lengths must be positive numbers")


@dataclass(frozen=True)
class RunConfig:
    data: ProblemData            # exit present only when measured
    policy: TruncationPolicy
    t_end: float
    nx: int = 101
    nt: int = 81
    exit_n_grid: int = N_GRID
    out_dir: str = "out"
    verify: VerifyOptions = field(default_factory=VerifyOptions)
    chain: ChainOptions | None = None
    source: str = ""             # raw run-file text, echoed into manifests

    def __post_init__(self):
        # its fields come from three sections, so each message names its key
        if not np.isfinite(self.t_end) or self.t_end <= self.data.t0:
            raise ParameterError("[grid] t_end must be finite and exceed t0")
        if self.nx < 2 or self.nt < 2:
            raise ParameterError("[grid] nx and nt must be at least 2")
        if self.exit_n_grid < N_GRID_MIN:
            raise ParameterError(f"[exit] n_grid must be at least {N_GRID_MIN}")


def _floats(raw: str) -> list:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {raw!r}") from exc


_REQUIRED = object()

# run-file text -> value, by the annotation of the field it sets
_PARSE = {"int": int, "float": float, "str": str,
          "tuple": lambda raw: tuple(_floats(raw))}


class _RunFile(configparser.ConfigParser):
    """The run file's parser; `used` records each (section, key) whose value is read."""

    def __init__(self):
        super().__init__()
        self.used = set()

    def get(self, section, option, **kwargs):
        self.used.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


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


def _set_in(cp, section: str, cls, **keys) -> dict:
    """{field: value} for the fields of cls that [section] sets, or requires.

    `keys` maps the fields to read to their run-file keys; by default every
    field is read under its own name.
    """
    out = {}
    for f in fields(cls):
        key = keys.get(f.name) if keys else f.name
        required = f.default is MISSING and f.default_factory is MISSING
        if key is not None and (required or cp.has_option(section, key)):
            out[f.name] = _get(cp, section, key, _PARSE[f.type])
    return out


def _checked(make, where: str, *args, **kwargs):
    """make(*args, **kwargs), with a ParameterError as a ConfigError led by `where`."""
    try:
        return make(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{where}{exc}") from exc


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
        return _checked(SmoothFn.smooth_pulse, f"[{section}]: ", start, stop,
                        level, ramp=ramp)
    if kind == "gaussian":
        return _checked(SmoothFn.exp_pulse, f"[{section}]: ",
                        level=_get(cp, section, "level", float, 1.0),
                        center=_get(cp, section, "center"),
                        width=_get(cp, section, "width"))
    if kind == "table":
        knots = _floats(_get(cp, section, "knots", str))
        values = _floats(_get(cp, section, "values", str))
        return _checked(SmoothFn.from_table, f"[{section}]: ", knots, values)
    raise ConfigError(f"[{section}] unknown kind {kind!r}")


def load_config(path) -> RunConfig:
    """Read and validate a run file; raises ConfigError on any defect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    cp = _RunFile()
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

    params = _checked(TransportParams, "[params]: ",
                      **_set_in(cp, "params", TransportParams))
    phi = _parse_fn(cp, "phi") if cp.has_section("phi") else SmoothFn.constant(0.0)
    g = _parse_fn(cp, "g") if cp.has_section("g") else SmoothFn.constant(0.0)
    computed = _get(cp, "exit", "kind", str, "computed").strip().lower() == "computed"
    if not computed and cp.has_option("exit", "n_grid"):
        raise ConfigError("[exit] n_grid sets the grid of a computed exit; "
                          "a measured exit is used as given")
    exit_fn = None if computed else _parse_fn(cp, "exit")
    data = _checked(ProblemData, "", params=params, phi=phi, g=g, exit=exit_fn,
                    **_set_in(cp, "grid", ProblemData, t0="t0"))

    chain = (_checked(ChainOptions, "[chain]: ", **_set_in(cp, "chain", ChainOptions))
             if cp.has_section("chain") else None)
    cfg = _checked(
        RunConfig, "", data=data,
        policy=_checked(TruncationPolicy, "[policy]: ",
                        **_set_in(cp, "policy", TruncationPolicy)),
        verify=_checked(VerifyOptions, "[verify]: ",
                        **_set_in(cp, "verify", VerifyOptions)),
        chain=chain, source=source,
        **_set_in(cp, "grid", RunConfig, t_end="t_end", nx="nx", nt="nt"),
        **_set_in(cp, "exit", RunConfig, exit_n_grid="n_grid"),
        **_set_in(cp, "output", RunConfig, out_dir="dir"),
    )
    for sec in cp.sections():
        for key in cp.options(sec):
            if (sec, key) not in cp.used:
                raise ConfigError(f"[{sec}] unknown key {key!r}")
    return cfg
