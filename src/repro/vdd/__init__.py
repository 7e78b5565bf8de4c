"""Solvers for the Vdd-Hopping energy model (Theorem 3).

Under Vdd-Hopping a task may split its execution across several modes, so
``MinEnergy(G, D)`` becomes a linear program: mixing the two modes adjacent
to a task's average speed is optimal, so each task's energy is a convex
piecewise-linear function of its duration, and the LP minimises the sum of
their epigraph variables over durations and completion times under the
(linear) precedence and deadline constraints.

Modules:

* :mod:`repro.vdd.lp` — the LP formulation, solved either by SciPy's HiGHS
  backend or by the library's own dense simplex;
* :mod:`repro.vdd.simplex` — a self-contained Big-M dense simplex solver
  (no external dependency), used as an alternative backend and as a
  cross-check in tests;
* :mod:`repro.vdd.mixing` — the fast two-adjacent-mode construction: keep
  the Continuous-optimal durations and emulate each ideal speed by mixing
  the two bracketing modes (an upper bound on the LP optimum, exact when
  the continuous speeds are themselves modes).
"""

from repro.vdd.lp import solve_vdd_lp, build_vdd_lp
from repro.vdd.mixing import solve_vdd_mixing, two_mode_mix
from repro.vdd.simplex import SimplexResult, solve_lp_simplex
from repro.vdd.solve import solve_vdd_hopping

__all__ = [
    "solve_vdd_lp",
    "build_vdd_lp",
    "solve_vdd_mixing",
    "two_mode_mix",
    "SimplexResult",
    "solve_lp_simplex",
    "solve_vdd_hopping",
]
