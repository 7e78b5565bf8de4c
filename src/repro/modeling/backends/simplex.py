"""Educational dense-simplex LP backend.

Wraps the library's own two-phase tableau simplex
(:mod:`repro.vdd.simplex`) as a registered backend so the reproduction's
central polynomial-time result does not rest on an external black box.
The tableau is dense O(rows·cols), so the backend densifies the sparse
system behind an explicit size guard — and it densifies **exactly once**,
at the solver boundary: the finite-upper-bound rows it must append (the
tableau form has no bound support beyond ``x >= 0``) are assembled as
sparse identity selections and stacked with ``sparse.vstack``, so no
intermediate dense copy ever exists on the way there.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
from scipy import sparse

from repro.core.registry import OptionSpec
from repro.modeling.backends.registry import BACKENDS
from repro.modeling.model import MaterializedLP
from repro.utils.errors import SolverError

#: Largest variable count the educational dense simplex backend accepts
#: before densifying the sparse system (the tableau is dense O(rows·cols)).
SIMPLEX_MAX_VARIABLES = 5000

_OPTIONS = (
    OptionSpec("max_iterations", (int,), default=20000,
               doc="pivot cap over both simplex phases"),
)


@BACKENDS.register("simplex", kinds=("lp",), options=_OPTIONS,
                   doc="library's own two-phase dense simplex (educational, "
                       f"capped at {SIMPLEX_MAX_VARIABLES} variables)")
def _solve_simplex(mat: MaterializedLP, options: Mapping[str, Any],
                   hints: Mapping[str, Any]
                   ) -> tuple[np.ndarray, float, dict[str, Any]]:
    # imported at call time: repro.vdd itself declares its LP through the
    # modeling layer, so a module-level import here would be circular
    from repro.vdd.simplex import solve_lp_simplex

    n_vars = mat.n_vars
    if n_vars > SIMPLEX_MAX_VARIABLES:
        raise SolverError(
            f"the dense simplex backend is educational and capped at "
            f"{SIMPLEX_MAX_VARIABLES} variables; LP {mat.name!r} has "
            f"{n_vars} — use backend='highs', which consumes the sparse "
            "matrices natively"
        )
    lower = mat.lower
    if not np.isfinite(lower).all():
        raise SolverError(
            f"simplex backend expects finite lower bounds on LP {mat.name!r}"
        )
    # shift x = lower + x' so the tableau sees x' >= 0; the right-hand
    # sides, upper bounds and objective absorb the shift
    b_ub = mat.b_ub - mat.a_ub @ lower
    b_eq = mat.b_eq - mat.a_eq @ lower
    # fold finite upper bounds into extra <= rows, keeping them sparse until
    # the single densification below
    up_cols = np.flatnonzero(np.isfinite(mat.upper))
    a_ub_sparse = mat.a_ub
    if len(up_cols):
        bound_rows = sparse.csr_matrix(
            (np.ones(len(up_cols)), (np.arange(len(up_cols)), up_cols)),
            shape=(len(up_cols), n_vars))
        a_ub_sparse = sparse.vstack([mat.a_ub, bound_rows], format="csr")
        b_ub = np.concatenate([b_ub, (mat.upper - lower)[up_cols]])
    result = solve_lp_simplex(
        mat.c, a_ub=a_ub_sparse.toarray(), b_ub=b_ub,
        a_eq=mat.a_eq.toarray(), b_eq=b_eq,
        max_iterations=int(options.get("max_iterations", 20000)))
    if result.status != "optimal":
        raise SolverError(
            f"simplex backend reports LP {mat.name!r} is {result.status}"
        )
    return lower + result.x, float(result.objective + mat.c @ lower), {
        "iterations": int(result.iterations),
    }
