"""The one shared declaration of the precedence polytope.

Every scheduling program in the library constrains the same polytope: for
each DAG edge ``(u, v)`` the successor may only start after its
predecessor finishes (``t_u - t_v + dur_v <= 0``), and every task must fit
between time zero and its own completion (``dur_i - t_i <= 0``).  The only
thing that varies between programs is which variables form a *duration*;
the Continuous program and the Vdd-Hopping LP (with the discrete
relaxation it shares) each hold one variable ``d_i`` per task.

:func:`declare_precedence` captures that shape once: callers pass the
completion-time block, the block holding the duration variables and a
``(n_tasks, k)`` map from each task to the block-local columns whose sum
is its duration — ``arange(n).reshape(n, 1)`` for one duration variable
per task.  Same rows, same declaration, no per-solver COO assembly.
"""

from __future__ import annotations

import numpy as np

from repro.modeling.model import VariableBlock, _BaseModel
from repro.utils.errors import SolverError


def declare_precedence(model: _BaseModel, *, completion: VariableBlock,
                       duration_block: VariableBlock,
                       duration_cols: np.ndarray,
                       edge_src: np.ndarray, edge_dst: np.ndarray) -> None:
    """Declare the edge and start-time rows of the precedence polytope.

    Adds two ``<=``-sense constraint blocks to ``model``:

    * ``"precedence"`` — one row per edge ``(u, v)``:
      ``t_u - t_v + dur_v <= 0``;
    * ``"start"`` — one row per task ``i``: ``dur_i - t_i <= 0``
      (start times are non-negative).

    Parameters
    ----------
    completion:
        Variable block of the per-task completion times (size ``n``).
    duration_block:
        Block holding the variables whose sums form task durations.
    duration_cols:
        Integer array of shape ``(n, k)``: row ``i`` lists the block-local
        columns of ``duration_block`` whose sum is task ``i``'s duration.
    edge_src, edge_dst:
        The DAG's edge arrays (task indices, aligned with ``completion``).
    """
    duration_cols = np.asarray(duration_cols, dtype=np.int64)
    n = completion.size
    if duration_cols.ndim != 2 or duration_cols.shape[0] != n:
        raise SolverError(
            f"duration_cols must have shape ({n}, k), got "
            f"{duration_cols.shape}"
        )
    k = duration_cols.shape[1]
    esrc = np.asarray(edge_src, dtype=np.int64)
    edst = np.asarray(edge_dst, dtype=np.int64)
    n_edges = len(esrc)
    edge_rows = np.arange(n_edges, dtype=np.int64)
    task_rows = np.arange(n, dtype=np.int64)

    model.add_constraints(
        "precedence", sense="ub", rhs=np.zeros(n_edges),
        terms=[
            (completion, edge_rows, esrc, 1.0),
            (completion, edge_rows, edst, -1.0),
            (duration_block, np.repeat(edge_rows, k),
             duration_cols[edst].ravel(), 1.0),
        ])
    model.add_constraints(
        "start", sense="ub", rhs=np.zeros(n),
        terms=[
            (duration_block, np.repeat(task_rows, k),
             duration_cols.ravel(), 1.0),
            (completion, task_rows, task_rows, -1.0),
        ])
