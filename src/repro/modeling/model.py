"""Declarative LP / convex model builder.

Every optimisation path of the library used to hand-roll its own COO/CSR
constraint assembly: the Vdd-Hopping LP, the sparse Continuous program and
the discrete relaxation each re-derived the same precedence polytope.  This
module replaces those three copies with one declaration layer:

* variables are declared as **named blocks** with per-variable bounds
  (:meth:`_BaseModel.add_variables`);
* constraints are declared as **named blocks of COO triplets** against
  those variable blocks (:meth:`_BaseModel.add_constraints`) — columns are
  block-local, so a declaration never needs to know the global layout;
* the objective is either a linear cost vector (:class:`LinearModel`) or a
  declarative power form ``sum w_i * x_i ** p`` over one block
  (:class:`ConvexModel`) from which a consuming backend derives values,
  gradients and Hessians itself.

:meth:`materialize` turns the declaration into canonical solver inputs —
``c, A_eq, b_eq, A_ub, b_ub`` CSR for an LP, an inequality-only ``G, h``
CSR (finite variable bounds folded into rows) for a convex program —
**exactly once**: the result is cached on the model, stamped with its
assembly wall-clock (``build_seconds``) and a content hash
(``fingerprint``) suitable for result-cache keys, and the model is frozen
against further edits so a fingerprint can never go stale.

Backends that consume materialised models live in
:mod:`repro.modeling.backends`; the shared precedence-polytope declaration
is :func:`repro.modeling.precedence.declare_precedence`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.utils.errors import SolverError


@dataclass(frozen=True)
class VariableBlock:
    """A named, contiguous run of decision variables.

    ``lower``/``upper`` are per-variable bound arrays (``-inf``/``+inf``
    for unbounded).  ``offset`` is the block's first global column; the
    block object itself is what constraint declarations reference, so
    callers never compute global columns by hand.
    """

    name: str
    size: int
    offset: int
    lower: np.ndarray
    upper: np.ndarray

    def columns(self, local: np.ndarray | Sequence[int]) -> np.ndarray:
        """Global column indices of block-local variable indices."""
        return self.offset + np.asarray(local, dtype=np.int64)


@dataclass(frozen=True)
class PowerObjective:
    """The declarative objective ``sum_i weights[i] * x[offset + i] ** exponent``.

    Convex for positive weights whenever ``exponent >= 1`` or
    ``exponent <= 0`` and ``x > 0`` — the energy objective
    ``sum w_i**alpha * d_i**(1 - alpha)`` of the paper is the
    ``exponent = 1 - alpha`` instance.  Backends derive what they need:

    * value     ``sum(w * x**p)``
    * gradient  ``w * p * x**(p - 1)`` over the block, zero elsewhere
    * Hessian   ``diag(w * p * (p - 1) * x**(p - 2))`` over the block
    """

    offset: int
    size: int
    weights: np.ndarray
    exponent: float

    def block_slice(self) -> slice:
        return slice(self.offset, self.offset + self.size)

    def value(self, x: np.ndarray) -> float:
        return float(np.sum(self.weights * x[self.block_slice()] ** self.exponent))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        grad = np.zeros(len(x))
        xb = x[self.block_slice()]
        grad[self.block_slice()] = self.weights * self.exponent * xb ** (self.exponent - 1.0)
        return grad

    def hessian_diagonal(self, x: np.ndarray) -> np.ndarray:
        hess = np.zeros(len(x))
        xb = x[self.block_slice()]
        hess[self.block_slice()] = (self.weights * self.exponent
                                    * (self.exponent - 1.0)
                                    * xb ** (self.exponent - 2.0))
        return hess


@dataclass
class _ConstraintBlock:
    """One declared constraint block, already in global-column COO form."""

    name: str
    sense: str  # "eq" or "ub"
    n_rows: int
    rhs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray


@dataclass(frozen=True)
class MaterializedLP:
    """Canonical LP inputs: ``min c @ x`` s.t. equalities, inequalities, bounds."""

    name: str
    kind: str
    n_vars: int
    c: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fingerprint: str
    build_seconds: float

    @property
    def bounds(self) -> list[tuple[float, float | None]]:
        """``scipy.optimize.linprog``-style per-variable bound pairs."""
        return [(float(lo), None if np.isinf(hi) else float(hi))
                for lo, hi in zip(self.lower, self.upper)]

    def constraint_memory(self) -> dict[str, int]:
        """Actual sparse constraint-matrix bytes vs the dense equivalent."""
        mats = (self.a_ub, self.a_eq)
        return {
            "sparse_bytes": int(sum(m.data.nbytes + m.indices.nbytes
                                    + m.indptr.nbytes for m in mats)),
            "dense_equivalent_bytes": int(sum(m.shape[0] * m.shape[1] * 8
                                              for m in mats)),
        }


@dataclass(frozen=True)
class MaterializedConvex:
    """Canonical convex-program inputs: objective over ``G x <= h`` (CSR).

    Finite variable bounds are folded into rows of ``G`` (upper bounds
    first across blocks, then lower bounds) so interior-point consumers see
    one homogeneous inequality system.
    """

    name: str
    kind: str
    n_vars: int
    g_matrix: sparse.csr_matrix
    h: np.ndarray
    objective: PowerObjective | None
    fingerprint: str
    build_seconds: float


class _BaseModel:
    """Shared declaration machinery of :class:`LinearModel` / :class:`ConvexModel`."""

    kind = ""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._blocks: dict[str, VariableBlock] = {}
        self._constraints: list[_ConstraintBlock] = []
        self._n_vars = 0
        self._materialized: Any = None

    # ------------------------------------------------------------------ #
    # declaration
    # ------------------------------------------------------------------ #
    def add_variables(self, name: str, size: int, *,
                      lower: float | np.ndarray | None = 0.0,
                      upper: float | np.ndarray | None = None) -> VariableBlock:
        """Declare ``size`` variables as the named block; returns the block.

        ``lower=None`` / ``upper=None`` mean unbounded on that side.
        """
        self._check_open("add_variables")
        if name in self._blocks:
            raise SolverError(f"variable block {name!r} declared twice")
        if size < 0:
            raise SolverError(f"variable block {name!r} has negative size {size}")
        lo = np.full(size, -np.inf) if lower is None else np.broadcast_to(
            np.asarray(lower, dtype=float), (size,)).copy()
        hi = np.full(size, np.inf) if upper is None else np.broadcast_to(
            np.asarray(upper, dtype=float), (size,)).copy()
        block = VariableBlock(name=name, size=size, offset=self._n_vars,
                              lower=lo, upper=hi)
        self._blocks[name] = block
        self._n_vars += size
        return block

    def block(self, name: str) -> VariableBlock:
        try:
            return self._blocks[name]
        except KeyError:
            declared = ", ".join(self._blocks) or "<none>"
            raise SolverError(
                f"unknown variable block {name!r} (declared: {declared})"
            ) from None

    @property
    def n_variables(self) -> int:
        return self._n_vars

    def add_constraints(self, name: str, *, sense: str,
                        rhs: np.ndarray | Sequence[float],
                        terms: Iterable[tuple[VariableBlock, np.ndarray,
                                              np.ndarray, np.ndarray | float]],
                        ) -> None:
        """Declare a block of ``sense`` constraints from COO triplet terms.

        Each term is ``(block, rows, local_cols, data)``: ``rows`` are
        block-local row indices (0-based within this constraint block),
        ``local_cols`` index into ``block``, and scalar ``data``
        broadcasts.  Duplicate ``(row, col)`` entries sum, as in COO.
        """
        self._check_open("add_constraints")
        if sense not in ("eq", "ub"):
            raise SolverError(f"constraint sense must be 'eq' or 'ub', got {sense!r}")
        rhs_arr = np.asarray(rhs, dtype=float)
        n_rows = len(rhs_arr)
        all_rows: list[np.ndarray] = []
        all_cols: list[np.ndarray] = []
        all_data: list[np.ndarray] = []
        for block, rows, local_cols, data in terms:
            rows_arr = np.asarray(rows, dtype=np.int64)
            cols_arr = block.columns(local_cols)
            if rows_arr.size and (rows_arr.min() < 0 or rows_arr.max() >= n_rows):
                raise SolverError(
                    f"constraint block {name!r}: row indices outside "
                    f"[0, {n_rows})"
                )
            local = np.asarray(local_cols, dtype=np.int64)
            if local.size and (local.min() < 0 or local.max() >= block.size):
                raise SolverError(
                    f"constraint block {name!r}: columns outside variable "
                    f"block {block.name!r} of size {block.size}"
                )
            data_arr = np.broadcast_to(np.asarray(data, dtype=float),
                                       rows_arr.shape).copy()
            all_rows.append(rows_arr)
            all_cols.append(cols_arr)
            all_data.append(data_arr)
        self._constraints.append(_ConstraintBlock(
            name=name, sense=sense, n_rows=n_rows, rhs=rhs_arr,
            rows=np.concatenate(all_rows) if all_rows else np.empty(0, np.int64),
            cols=np.concatenate(all_cols) if all_cols else np.empty(0, np.int64),
            data=np.concatenate(all_data) if all_data else np.empty(0, float),
        ))

    def _check_open(self, action: str) -> None:
        if self._materialized is not None:
            raise SolverError(
                f"cannot {action}: model {self.name!r} is frozen (it was "
                "already materialised and its fingerprint is cached)"
            )

    # ------------------------------------------------------------------ #
    # materialisation helpers
    # ------------------------------------------------------------------ #
    def _stack_sense(self, sense: str) -> tuple[sparse.csr_matrix, np.ndarray]:
        """One CSR matrix + rhs for all constraint blocks of ``sense``."""
        blocks = [c for c in self._constraints if c.sense == sense]
        n_rows = sum(c.n_rows for c in blocks)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        row_offset = 0
        for c in blocks:
            rows.append(c.rows + row_offset)
            cols.append(c.cols)
            data.append(c.data)
            rhs.append(c.rhs)
            row_offset += c.n_rows
        matrix = sparse.csr_matrix(
            (np.concatenate(data) if data else np.empty(0, float),
             (np.concatenate(rows) if rows else np.empty(0, np.int64),
              np.concatenate(cols) if cols else np.empty(0, np.int64))),
            shape=(n_rows, self._n_vars))
        return matrix, (np.concatenate(rhs) if rhs else np.empty(0, float))

    def _fingerprint(self, extra: Iterable[bytes]) -> str:
        """Content hash of the declaration (order-sensitive by design)."""
        digest = hashlib.sha256()
        digest.update(f"{self.kind}:{self._n_vars}".encode())
        for block in self._blocks.values():
            digest.update(f"|b:{block.name}:{block.size}:{block.offset}".encode())
            digest.update(np.ascontiguousarray(block.lower).tobytes())
            digest.update(np.ascontiguousarray(block.upper).tobytes())
        for c in self._constraints:
            digest.update(f"|c:{c.name}:{c.sense}:{c.n_rows}".encode())
            for arr in (c.rows, c.cols, c.data, c.rhs):
                digest.update(np.ascontiguousarray(arr).tobytes())
        for chunk in extra:
            digest.update(chunk)
        return digest.hexdigest()[:16]


class LinearModel(_BaseModel):
    """A declarative linear program: blocks, eq/ub constraint blocks, ``c``."""

    kind = "lp"

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._objective_terms: list[tuple[VariableBlock, np.ndarray]] = []

    def add_objective(self, block: VariableBlock,
                      coefficients: np.ndarray | Sequence[float]) -> None:
        """Add linear cost ``coefficients @ x[block]`` (blocks accumulate)."""
        self._check_open("add_objective")
        coeffs = np.broadcast_to(np.asarray(coefficients, dtype=float),
                                 (block.size,)).copy()
        self._objective_terms.append((block, coeffs))

    def materialize(self) -> MaterializedLP:
        """Assemble (once) and return the canonical LP arrays."""
        if self._materialized is not None:
            return self._materialized
        start = time.perf_counter()
        c = np.zeros(self._n_vars)
        for block, coeffs in self._objective_terms:
            c[block.offset:block.offset + block.size] += coeffs
        a_eq, b_eq = self._stack_sense("eq")
        a_ub, b_ub = self._stack_sense("ub")
        lower = np.concatenate([b.lower for b in self._blocks.values()]) \
            if self._blocks else np.empty(0)
        upper = np.concatenate([b.upper for b in self._blocks.values()]) \
            if self._blocks else np.empty(0)
        fingerprint = self._fingerprint([b"|obj:", c.tobytes()])
        self._materialized = MaterializedLP(
            name=self.name, kind=self.kind, n_vars=self._n_vars, c=c,
            a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
            lower=lower, upper=upper, fingerprint=fingerprint,
            build_seconds=time.perf_counter() - start)
        return self._materialized


class ConvexModel(_BaseModel):
    """A declarative convex program: power objective over ``G x <= h``."""

    kind = "convex"

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._objective: PowerObjective | None = None

    def add_power_objective(self, block: VariableBlock,
                            weights: np.ndarray | Sequence[float],
                            exponent: float) -> None:
        """Declare ``sum weights * x[block] ** exponent`` as the objective."""
        self._check_open("add_power_objective")
        if self._objective is not None:
            raise SolverError(
                f"model {self.name!r} already declared a power objective"
            )
        w = np.broadcast_to(np.asarray(weights, dtype=float), (block.size,)).copy()
        self._objective = PowerObjective(offset=block.offset, size=block.size,
                                         weights=w, exponent=float(exponent))

    def materialize(self) -> MaterializedConvex:
        """Assemble (once) the inequality-only ``G, h`` system.

        Constraint blocks come first in declaration order; finite variable
        bounds follow as folded rows — upper bounds (``x_j <= u_j``) across
        all blocks, then lower bounds (``-x_j <= -l_j``) — so the row
        layout is deterministic and bound rows participate in the same
        slack/multiplier machinery as every other row.
        """
        if self._materialized is not None:
            return self._materialized
        if any(c.sense == "eq" for c in self._constraints):
            raise SolverError(
                f"convex model {self.name!r} declared equality rows; the "
                "inequality-only materialisation has no equality support"
            )
        start = time.perf_counter()
        g_decl, h_decl = self._stack_sense("ub")
        lower = np.concatenate([b.lower for b in self._blocks.values()]) \
            if self._blocks else np.empty(0)
        upper = np.concatenate([b.upper for b in self._blocks.values()]) \
            if self._blocks else np.empty(0)
        up_cols = np.flatnonzero(np.isfinite(upper))
        lo_cols = np.flatnonzero(np.isfinite(lower))
        parts = [g_decl]
        rhs_parts = [h_decl]
        if len(up_cols):
            parts.append(sparse.csr_matrix(
                (np.ones(len(up_cols)),
                 (np.arange(len(up_cols)), up_cols)),
                shape=(len(up_cols), self._n_vars)))
            rhs_parts.append(upper[up_cols])
        if len(lo_cols):
            parts.append(sparse.csr_matrix(
                (-np.ones(len(lo_cols)),
                 (np.arange(len(lo_cols)), lo_cols)),
                shape=(len(lo_cols), self._n_vars)))
            rhs_parts.append(-lower[lo_cols])
        g_matrix = sparse.vstack(parts, format="csr") if len(parts) > 1 \
            else g_decl
        h = np.concatenate(rhs_parts)
        obj = self._objective
        extra = [b"|pow:"]
        if obj is not None:
            extra.append(f"{obj.offset}:{obj.size}:{obj.exponent}".encode())
            extra.append(obj.weights.tobytes())
        fingerprint = self._fingerprint(extra)
        self._materialized = MaterializedConvex(
            name=self.name, kind=self.kind, n_vars=self._n_vars,
            g_matrix=g_matrix, h=h, objective=obj, fingerprint=fingerprint,
            build_seconds=time.perf_counter() - start)
        return self._materialized
