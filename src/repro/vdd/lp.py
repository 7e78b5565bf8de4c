"""Linear-programming solver for the Vdd-Hopping model (Theorem 3).

Mixing the two modes adjacent to a task's average speed is optimal, so the
energy of task ``T_i`` is a convex piecewise-linear function of its duration
``d`` — one line per pair of adjacent modes ``(s_j, s_{j+1})``:

    ``E_i(d) = max_j (a_j * d + b_j * w_i)``  with
    ``b_j = (P(s_{j+1}) - P(s_j)) / (s_{j+1} - s_j)``,  ``a_j = P(s_j) - b_j * s_j``.

The LP is the epigraph of those functions over ``n`` durations:

Decision variables
    ``d[i]`` in ``[w_i / s_max, w_i / s_min]`` — duration of ``T_i``;
    ``t[i]`` in ``[0, D]``                     — completion time of ``T_i``;
    ``e[i] >= w_i * P(s_min) / s_min``         — energy of ``T_i``.

Linear program
    minimise    sum_i e[i]
    subject to  a_j * d[i] - e[i] <= -b_j * w_i        (``m - 1`` rows per task)
                t[v] >= t[u] + d[v]                    for every edge (u, v)
                t[i] >= d[i]                           (start times >= 0)

The energy bound is ``E_i`` at its longest duration (its minimum), which
also makes the single-mode model, with no lines at all, exact.  The LP has
``3n`` variables and ``(m - 1) n + |E| + n`` rows, so it is solved in
polynomial time — this is exactly the argument of Theorem 3.  Each task's
schedule is recovered from ``d[i]`` by :func:`repro.vdd.mixing.two_mode_mix`
over the modes bracketing ``w_i / d[i]``.

The program is *declared* through :mod:`repro.modeling` — three variable
blocks, the epigraph rows and the shared precedence polytope via
:func:`repro.modeling.declare_precedence` (3 non-zeros per edge row) — and
materialises to sparse CSR exactly once;
:meth:`repro.modeling.MaterializedLP.constraint_memory` reports the actual
sparse footprint next to the dense equivalent.  The same declaration is the
time-sharing relaxation of the Discrete and Incremental models
(:mod:`repro.discrete.relaxation`).  Any LP backend registered on
:data:`repro.modeling.BACKENDS` can consume it: SciPy's HiGHS (default,
sparse-native), the library's own educational dense simplex (size-guarded),
or the optional cvxpy-family backends when installed.
"""

from __future__ import annotations

import numpy as np

from repro.core.models import VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import HoppingAssignment, Solution, make_solution
from repro.modeling import (BACKENDS, LinearModel, MaterializedLP,
                            SIMPLEX_MAX_VARIABLES, declare_precedence)
from repro.utils.errors import InvalidModelError
from repro.vdd.mixing import two_mode_mix

__all__ = ["SIMPLEX_MAX_VARIABLES", "build_vdd_lp", "declare_vdd_lp",
           "solve_vdd_lp"]


def declare_vdd_lp(problem: MinEnergyProblem, *,
                   accepts: tuple[type, ...] = (VddHoppingModel,)
                   ) -> LinearModel:
    """Declare the duration-epigraph LP over the modes of ``problem.model``.

    ``accepts`` lists the admissible model classes; the Discrete relaxation
    passes its own, since time-sharing over a mode set is the same LP.
    """
    model = problem.model
    if not isinstance(model, accepts):
        raise InvalidModelError(
            f"the time-sharing LP expects a "
            f"{' or '.join(c.__name__ for c in accepts)}, got {model.name}"
        )
    idx = problem.graph.index()
    n = idx.n_tasks
    works = idx.works.astype(float)
    speeds = np.asarray(model.modes, dtype=float)
    powers = np.array([problem.power.power(s) for s in model.modes])
    slopes = np.diff(powers) / np.diff(speeds)  # b_j
    intercepts = powers[:-1] - slopes * speeds[:-1]  # a_j
    n_lines = len(slopes)

    lm = LinearModel(name=f"{model.name}-lp")
    duration = lm.add_variables("duration", n, lower=works / speeds[-1],
                                upper=works / speeds[0])
    completion = lm.add_variables("completion", n, lower=0.0,
                                  upper=problem.deadline)
    energy = lm.add_variables("energy", n,
                              lower=works * powers[0] / speeds[0])
    lm.add_objective(energy, 1.0)
    # row i * n_lines + j: a_j * d_i - e_i <= -b_j * w_i
    rows = np.arange(n * n_lines, dtype=np.int64)
    task_of_row = np.repeat(np.arange(n, dtype=np.int64), n_lines)
    lm.add_constraints(
        "epigraph", sense="ub", rhs=-np.outer(works, slopes).ravel(),
        terms=[(duration, rows, task_of_row, np.tile(intercepts, n)),
               (energy, rows, task_of_row, -1.0)])
    declare_precedence(
        lm, completion=completion, duration_block=duration,
        duration_cols=np.arange(n, dtype=np.int64).reshape(n, 1),
        edge_src=idx.edge_src, edge_dst=idx.edge_dst)
    return lm


def build_vdd_lp(problem: MinEnergyProblem) -> MaterializedLP:
    """Assemble the Vdd-Hopping LP for a problem instance (sparse CSR).

    Columns are ``[duration | completion | energy]``, ``n`` each, in the
    order of ``problem.graph.index().names``.
    """
    return declare_vdd_lp(problem).materialize()


def solve_vdd_lp(problem: MinEnergyProblem, *, backend: str = "highs") -> Solution:
    """Optimal Vdd-Hopping solution via linear programming (Theorem 3).

    Parameters
    ----------
    problem:
        The instance; its model must be a :class:`VddHoppingModel`.
    backend:
        Any LP backend registered on :data:`repro.modeling.BACKENDS` —
        ``"highs"`` (default, sparse-native), ``"simplex"`` (the library's
        own solver, intended for small instances and cross-checks), or an
        optional backend such as ``"cvxpy"`` when installed.

    Raises
    ------
    InfeasibleProblemError
        If the deadline cannot be met at the fastest mode.
    UnknownBackendError
        If no registered LP backend matches ``backend``.
    SolverError
        If the LP backend fails.
    """
    problem.ensure_feasible()
    lm = declare_vdd_lp(problem)
    result = BACKENDS.solve(lm, backend=backend)
    model = problem.model
    idx = problem.graph.index()
    segments: dict[str, list[tuple[float, float]]] = {}
    for name, work, dur in zip(idx.names, idx.works.tolist(),
                               result.x[:idx.n_tasks].tolist()):
        segments[name] = two_mode_mix(work, dur,
                                      *model.bracketing_modes(work / dur))

    mat = lm.materialize()
    metadata = dict(result.metadata)
    metadata["lp_objective"] = result.objective
    metadata["n_variables"] = mat.n_vars
    metadata["n_constraints"] = int(mat.a_ub.shape[0] + mat.a_eq.shape[0])
    metadata.update(mat.constraint_memory())
    return make_solution(problem, HoppingAssignment(segments=segments),
                         solver=f"vdd-lp-{backend}", optimal=True,
                         metadata=metadata)
