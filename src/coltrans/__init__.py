"""Solute transport in a finite column with flux boundary data.

The column occupies 0 <= x <= ell and the concentration obeys

    R C_t = D C_xx - v C_x - mu C + gamma,

with third-type (flux) conditions at both faces: the inlet carries the
injected concentration g(t), the outlet the concentration C_E(t) of the
medium just past the column.  When C_E is not measured it is computed from
a semi-infinite companion problem in flux form.

Entry points: `build_solution` for the eigenfunction series under either
outlet closure (`kind=DANCKWERTS` for zero gradient), `spectrum` for its
modes, `resolve_exit` / `exit_curve` for the exit closure, `fd_solve` and
`mass_balance` for independent checks, and the `coltrans` command line tool.
"""

from .errors import (
    BracketingError,
    ConfigError,
    FluxTransformError,
    NumericOverflowError,
    ParameterError,
    QuadratureError,
)
from .model import (
    ProblemData,
    SmoothFn,
    TransportParams,
    forcing_F,
    initial_w,
    invert,
    lift_H,
)
from .eigensystem import (
    DANCKWERTS,
    ROBIN,
    EigenPair,
    danckwerts_eigenpair,
    eval_phi,
    inner_product,
    robin_eigenpair,
    spectrum,
)
from .series import (
    SeriesSolution,
    TruncationPolicy,
    build_solution,
    coefficient,
    coefficient_bound,
    eval_C,
    eval_C_x,
    eval_large_t,
    eval_w,
    initial_coefficient,
    project_forcing,
    tail_bound,
)
from .exitflux import (
    HalfLineProblem,
    exit_concentration,
    exit_concentration_large_t,
    exit_curve,
    resolve_exit,
)
from .verification import (
    BalanceReport,
    DanckwertsGap,
    DanckwertsReport,
    FdGrid,
    FdResult,
    danckwerts_comparison,
    danckwerts_error,
    danckwerts_outlet_mismatch,
    fd_convergence_order,
    fd_solve,
    mass_balance,
    mass_balance_fd,
)

__version__ = "0.1.0"
