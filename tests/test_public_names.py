"""The names `import coltrans` offers: the README's library API, which holds
the names the benchmark's tracer reaches, and no routine only a test calls
(those live in tests/reference.py)."""

import re
import types
from pathlib import Path

import coltrans

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # data and results
    "TransportParams", "SmoothFn", "ProblemData", "TruncationPolicy", "SeriesSolution",
    "EigenPair", "HalfLineProblem", "FdGrid", "FdResult", "BalanceReport",
    "ROBIN", "DANCKWERTS",
    # the series
    "build_solution", "eval_C", "eval_C_x", "eval_large_t", "project_forcing",
    "coefficient_bound", "tail_bound", "spectrum", "robin_eigenpair", "lift_H", "invert",
    # the exit closure
    "resolve_exit", "exit_curve", "exit_concentration", "exit_concentration_large_t",
    # checks
    "fd_solve", "fd_convergence_order", "mass_balance", "mass_balance_fd",
    "danckwerts_comparison", "danckwerts_error", "inner_product",
    # errors
    "ParameterError", "ConfigError", "BracketingError", "QuadratureError",
    "FluxTransformError", "NumericOverflowError",
}


def test_public_names_are_the_readme_api():
    names = {name for name, value in vars(coltrans).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    text = README.read_text()  # each in code quotes, alone or as a call
    assert [name for name in sorted(PUBLIC)
            if not re.search(rf"`{name}[`(]", text)] == []
