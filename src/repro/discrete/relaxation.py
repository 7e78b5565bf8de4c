"""LP relaxation of the Discrete model, through the shared time-sharing LP.

A Discrete-model task must run at one constant mode; relaxing that to
*time-sharing* between modes — exactly the Vdd-Hopping semantics over the
same mode set — yields a linear program whose optimum lower-bounds every
discrete schedule (Vdd-Hopping dominates Discrete on any instance with the
same modes).  This module solves that LP — the very declaration of
:func:`repro.vdd.lp.declare_vdd_lp` — with any registered LP backend, and
rounds the relaxed point back to a feasible one-mode-per-task schedule:

* the LP's duration ``d_i`` gives the *ideal* constant speed ``w_i / d_i``;
* rounding each ideal speed **up** to the next mode can only shorten
  durations, so precedence and the deadline stay satisfied.

The returned solution carries the LP optimum as ``lower_bound``, giving
callers a per-instance optimality gap certificate for free.
"""

from __future__ import annotations

from repro.core.models import DiscreteModel, IncrementalModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import Solution, SpeedAssignment, make_solution
from repro.modeling import BACKENDS
from repro.vdd.lp import declare_vdd_lp


def solve_discrete_lp_relaxation(problem: MinEnergyProblem, *,
                                 backend: str = "highs") -> Solution:
    """Feasible Discrete solution by rounding the time-sharing LP optimum.

    Parameters
    ----------
    problem:
        The instance; its model must be Discrete or Incremental.
    backend:
        Any LP backend registered on :data:`repro.modeling.BACKENDS`.

    Raises
    ------
    InfeasibleProblemError
        If the deadline cannot be met at the fastest mode.
    UnknownBackendError
        If no registered LP backend matches ``backend``.
    """
    problem.ensure_feasible()
    model = problem.model
    lm = declare_vdd_lp(problem, accepts=(DiscreteModel, IncrementalModel))
    result = BACKENDS.solve(lm, backend=backend)
    idx = problem.graph.index()
    speeds: dict[str, float] = {}
    for name, work, dur in zip(idx.names, idx.works.tolist(),
                               result.x[:idx.n_tasks].tolist()):
        # tiny LP tolerances can push the ideal a hair above the top mode
        speeds[name] = model.round_up(min(work / dur, model.modes[-1]))

    metadata = dict(result.metadata)
    metadata["lp_objective"] = result.objective
    metadata["n_variables"] = int(lm.n_variables)
    return make_solution(
        problem, SpeedAssignment(speeds),
        solver=f"discrete-lp-relaxation-{metadata['backend']}",
        optimal=False, lower_bound=result.objective, metadata=metadata)
