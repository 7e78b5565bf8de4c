"""The in-process workload, ``large_dag``, and the sweep phase of its
traced run.

Both call the program's public Python API from this process.  Set-up is
measured in fresh child processes (``run.py --setup-probe``), because a
cold set-up includes the interpreter and the imports.

The sweep is not a workload of its own: its cold pass is bimodal across
seeds and its cache-served re-run follows the host's load (see
``README.md``), so no bound could hold.  Its layers are measured in the
traced ``large_dag`` run instead, after the DAG passes.
"""

from __future__ import annotations

import contextlib
import json
import signal
import time
from typing import Any, Iterator

from common import Tracer, geomean, median, nproc, run_child, tail
from inputs import MODELS, SWEEP_MODELS, large_dag_problems, sweep_grid

SETUP_STARTS = 3         # cold set-ups per run; setup_s is their median
SETUP_TIMEOUT = 60.0
POOLED_BUDGET = 60.0
RESERVE = 8.0            # seconds kept back for checks and reporting
PROBE_ROUNDS = 5
WARM_RERUNS = 5

#: Columns a warm (cache-served) sweep row must repeat from its cold row.
SAME_COLUMNS = ("graph_class", "n_tasks", "slack", "alpha", "seed", "ok",
                "solver", "energy", "makespan", "error", "grid_fingerprint")

_CLOSED_FORMS = frozenset({
    "continuous-chain", "continuous-fork-closed-form",
    "continuous-join-closed-form", "continuous-series-parallel",
    "continuous-single", "continuous-tree"})


class BudgetExceeded(BaseException):
    """Raised by the alarm when a phase outlives its budget.  A
    ``BaseException`` so the engine's per-instance ``except Exception``
    capture does not swallow it."""


@contextlib.contextmanager
def budget(seconds: float) -> Iterator[None]:
    def _expire(_signum, _frame):
        raise BudgetExceeded(f"phase exceeded its {seconds:.0f}s budget")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cold_setups(seed: int) -> tuple[list[float], list[str]]:
    """Wall time of ``SETUP_STARTS`` fresh processes that each import the
    program, generate the inputs and make one warm-up solve per model."""
    times, errors = [], []
    for _ in range(SETUP_STARTS):
        code, out, wall = run_child(["--setup-probe", "--seed", str(seed)],
                                    timeout=SETUP_TIMEOUT)
        if code == 0 and out.strip().endswith("ok"):
            times.append(wall)
        else:
            errors.append(f"set-up probe exited {code}: {out[-300:]}")
    return times, errors


def setup_probe(seed: int) -> None:
    """The body of one cold set-up (runs in a child process)."""
    from repro import solve

    large_dag_problems(seed)
    for problem in large_dag_problems(seed, n_tasks=32).values():
        solve(problem)


def pooled_probe(seed: int) -> None:
    """Cold sweep of both grids with ``workers=nproc`` (child process)."""
    from repro.batch.sweep import sweep
    from repro.cache import memory_cache

    start = time.perf_counter()
    for model in SWEEP_MODELS:
        sweep(workers=nproc(), cache=memory_cache(), **sweep_grid(seed, model))
    print(json.dumps({"pooled_s": time.perf_counter() - start}))


# --------------------------------------------------------------------- #
# large_dag
# --------------------------------------------------------------------- #
def _dag_pass(problems, tracer: Tracer, tag: str):
    from repro import solve

    walls, solutions = {}, {}
    for model in MODELS:
        t0 = time.perf_counter()
        with tracer.span(f"solve.{model}", tag):
            solutions[model] = solve(problems[model])
        walls[model] = time.perf_counter() - t0
    return walls, solutions


def run_large_dag(seed: int, seconds: float, tracer: Tracer,
                  deadline: float) -> dict[str, Any]:
    """``deadline`` (perf-counter time) is when the whole run must be done;
    the traced run's sweep phase gets what is left of it."""
    from repro.core.validation import check_solution

    # A traced run prints layers only, so it skips the cold set-ups and
    # takes one untraced pass as the baseline of the traced one: the sweep
    # phase, whose dense instances have no time bound, gets the rest.
    setups, errors = cold_setups(seed) if not tracer.enabled else ([], [])
    setup_probe(seed)  # warm this process the same way
    problems = large_dag_problems(seed)

    passes = []
    start = time.perf_counter()
    while not passes or (not tracer.enabled
                         and time.perf_counter() - start < seconds):
        passes.append(_dag_pass(problems, Tracer(False), f"pass-{len(passes)}"))
    elapsed = time.perf_counter() - start
    traced = _dag_pass(problems, tracer, "traced") if tracer.enabled else None

    bad, check_ms = 0, 0.0
    ratios = []
    for _walls, solutions in passes + ([traced] if traced else []):
        for model, solution in solutions.items():
            t0 = time.perf_counter()
            try:
                with tracer.span("core.validation.check", model):
                    check_solution(solution)
            except Exception as exc:  # a bad solution is a failed op
                bad += 1
                errors.append(f"{model}: check_solution: {exc}")
            check_ms += (time.perf_counter() - t0) * 1e3
        e = {m: s.energy for m, s in solutions.items()}
        tol = 1 + 1e-9
        if not (e["continuous"] <= e["vdd"] * tol
                and e["vdd"] <= e["discrete"] * tol
                and e["continuous"] <= e["incremental"] * tol):
            bad += 1
            errors.append(f"model order violated: {e}")
        ratios.extend(e[m] / e["continuous"]
                      for m in ("vdd", "discrete", "incremental"))

    latencies = [sum(walls.values()) * 1e3 for walls, _s in passes]
    tail_ms, tail_pct, _ = tail(latencies)
    e2e = {
        "solves_per_s": ("1/s", len(MODELS) * len(passes) / elapsed),
        "op_p50_ms": ("ms", median(latencies)),
        "op_tail_ms": ("ms", tail_ms),
        "setup_s": ("s", median(setups) if setups else 0.0),
        "energy_over_bound": ("ratio", geomean(ratios)),
    }
    per_model = {m: median([walls[m] for walls, _s in passes]) for m in MODELS}
    info: dict[str, Any] = {
        "passes": len(passes), "tail_percentile": tail_pct,
        "tail_samples": len(latencies), "setup_samples_s": setups,
        "model_wall_s": per_model, "n_tasks": problems["continuous"].n_tasks,
    }
    attempted = len(MODELS) * (len(passes) + (traced is not None))
    layers: dict[str, tuple[str, float]] = {}
    if traced is not None:
        meta = {m: s.metadata for m, s in passes[0][1].items()}
        relaxation = per_model["continuous"]
        layers = {
            "continuous_s": ("s", per_model["continuous"]),
            "vdd_s": ("s", per_model["vdd"]),
            "discrete_s": ("s", per_model["discrete"]),
            "incremental_s": ("s", per_model["incremental"]),
            "modeling.build_s": ("s", sum(
                meta[m].get("build_seconds") or 0.0
                for m in ("continuous", "vdd"))),
            "continuous.solve_s": (
                "s", meta["continuous"].get("solve_seconds") or 0.0),
            "vdd.solve_s": ("s", meta["vdd"].get("solve_seconds") or 0.0),
            "continuous.sparse.iterations": (
                "count", meta["continuous"].get("iterations") or 0),
            "vdd.lp.iterations": ("count", meta["vdd"].get("iterations") or 0),
            "continuous.relaxation_s": ("s", relaxation),
            "discrete.rounding_s": ("s", per_model["discrete"] - relaxation),
            "incremental.rounding_s": (
                "s", per_model["incremental"] - relaxation),
            "core.validation.check_ms": (
                "ms", check_ms / (len(passes) + 1)),
            "trace.overhead_ms": ("ms", (sum(traced[0].values())
                                         - sum(passes[0][0].values())) * 1e3),
        }
        sweep = sweep_phase(seed, tracer, deadline)
        attempted += sweep["attempted"]
        bad += sweep["failed"]
        errors.extend(sweep["errors"])
        layers.update(sweep["layers"])
        info["sweep"] = sweep["info"]
    return {"attempted": attempted, "failed": bad, "errors": errors,
            "e2e": e2e, "layers": layers, "info": info}


# --------------------------------------------------------------------- #
# the sweep phase (traced runs only)
# --------------------------------------------------------------------- #
def _solver_family(solver: str | None) -> str | None:
    if solver == "continuous-convex":
        return "continuous.convex"
    if solver in _CLOSED_FORMS:
        return "continuous.closed_form"
    if solver and solver.startswith("vdd-lp-"):  # vdd-lp-<backend>
        return "vdd.lp"
    return None


def _rows(table) -> list[dict[str, Any]]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def sweep_phase(seed: int, tracer: Tracer, deadline: float) -> dict[str, Any]:
    """``repro.batch.sweep`` of both grids with a ``memory_cache()``: one
    cold pass (serial, like ``repro sweep``), then cache-served re-runs,
    then the pooled leg.  Every row is checked."""
    from repro import solve
    from repro.batch.sweep import build_sweep_coords, plan_sweep, sweep
    from repro.cache import memory_cache, solution_from_envelope
    from repro.core.validation import check_solution
    from repro.solve import cache_key_for

    for model in SWEEP_MODELS:  # first solve of each path in this process
        solve(plan_sweep(**sweep_grid(seed, model)).problems[0])
    caches = {model: memory_cache() for model in SWEEP_MODELS}
    expected = {m: build_sweep_coords(**sweep_grid(seed, m))
                for m in SWEEP_MODELS}
    cold, cold_wall, errors = {}, {}, []
    try:
        with budget(max(1.0, deadline - time.perf_counter() - RESERVE)):
            for model in SWEEP_MODELS:
                t0 = time.perf_counter()
                with tracer.span("batch.sweep.cold", f"cold-{model}"):
                    cold[model] = sweep(cache=caches[model],
                                        **sweep_grid(seed, model))
                cold_wall[model] = time.perf_counter() - t0
    except BudgetExceeded as exc:
        errors.append(f"cold sweep: {exc} (the dense SLSQP path has no "
                      "budget of its own)")
        missing = sum(len(expected[m]) for m in SWEEP_MODELS if m not in cold)
        return {"attempted": missing, "failed": missing, "errors": errors,
                "layers": {}, "info": {"cold_wall_s": cold_wall}}

    bad = 0
    for model, table in cold.items():
        if [tuple(row[:5]) for row in table.rows] != expected[model]:
            bad += len(expected[model])
            errors.append(f"{model} rows are not in grid order")
        for row in _rows(table):
            if not row["ok"]:
                bad += 1
                errors.append(f"{model} row failed: {row['error']}")
    ratios = []
    for c, v in zip(_rows(cold["continuous"]), _rows(cold["vdd"])):
        if c["ok"] and v["ok"]:
            if c["energy"] <= v["energy"] * (1 + 1e-9):
                ratios.append(v["energy"] / c["energy"])
            else:
                bad += 1
                errors.append(f"continuous {c['energy']} > vdd {v['energy']}"
                              f" on {c['graph_class']}-{c['n_tasks']}")

    # cache-served re-runs of both grids
    warm, warm_rows, warm_hits = [], 0, 0
    start = time.perf_counter()
    for k in range(WARM_RERUNS):
        with tracer.span("batch.sweep.warm", f"warm-{k}"):
            warm.append({m: sweep(cache=caches[m], **sweep_grid(seed, m))
                         for m in SWEEP_MODELS})
    warm_elapsed = time.perf_counter() - start
    for tables in warm:
        for model, table in tables.items():
            for row, cold_row in zip(_rows(table), _rows(cold[model])):
                warm_rows += 1
                warm_hits += bool(row["cache_hit"])
                if not (row["cache_hit"] and all(
                        row[c] == cold_row[c] for c in SAME_COLUMNS)):
                    bad += 1
                    errors.append(f"warm {model} row {row['graph_class']}-"
                                  f"{row['n_tasks']} differs from its cold "
                                  "row or missed the cache")
            if len(table.rows) != len(cold[model].rows):
                bad += len(cold[model].rows)
                errors.append(f"warm {model} pass has {len(table.rows)} rows")

    totals: dict[str, float] = {}
    maxima: dict[str, float] = {}
    row_seconds = 0.0
    for table in cold.values():
        for solver, seconds in zip(table.column("solver"),
                                   table.column("seconds")):
            row_seconds += seconds
            family = _solver_family(solver)
            if family is not None:
                totals[family] = totals.get(family, 0.0) + seconds
                maxima[family] = max(maxima.get(family, 0.0), seconds)

    plan_ms, check_ms = [], 0.0
    for r in range(PROBE_ROUNDS):
        for model in SWEEP_MODELS:
            t0 = time.perf_counter()
            with tracer.span("batch.sweep.plan", f"plan-{r}-{model}"):
                plan = plan_sweep(**sweep_grid(seed, model))
            plan_ms.append((time.perf_counter() - t0) * 1e3)
            if r:
                continue
            for i, problem in enumerate(plan.problems):
                envelope = caches[model].peek(cache_key_for(problem))
                solution = solution_from_envelope(problem, envelope)
                t0 = time.perf_counter()
                with tracer.span("core.validation.check", f"{model}-{i}"):
                    check_solution(solution)
                check_ms += (time.perf_counter() - t0) * 1e3

    serial = sum(cold_wall.values())
    allowed = min(POOLED_BUDGET, deadline - time.perf_counter() - RESERVE)
    code, out = None, ""
    if allowed > 0:
        code, out, _wall = run_child(["--pooled-probe", "--seed", str(seed)],
                                     timeout=allowed)
    pooled = 0.0
    if code == 0 and out.strip():
        pooled = json.loads(out.strip().splitlines()[-1])["pooled_s"] / serial
    print(f"# pooled leg: workers={nproc()} cold sweep over serial cold "
          f"sweep = {pooled:.4f} (serial {serial:.3f}s; 0 = did not finish "
          f"within {max(allowed, 0):.0f}s)", flush=True)

    cold_rows = sum(len(t.rows) for t in cold.values())
    layers: dict[str, tuple[str, float]] = {
        "batch.sweep.plan_ms": ("ms", median(plan_ms)),
        "batch.sweep.cold_solves_per_s": ("1/s", cold_rows / serial),
        "batch.sweep.warm_solves_per_s": ("1/s", warm_rows / warm_elapsed),
        "batch.sweep.energy_over_bound": (
            "ratio", geomean(ratios) if ratios else 0.0),
        "core.validation.sweep_check_ms": ("ms", check_ms),
        "batch.engine.overhead_ms": ("ms", (serial - row_seconds) * 1e3),
        "cache.lookup_ms": ("ms", median([
            sum(sum(t.column("seconds")) for t in tables.values()) * 1e3
            for tables in warm])),
        "cache.hit_ratio": ("ratio", warm_hits / warm_rows),
        "batch.engine.pooled_over_serial": ("ratio", pooled),
    }
    for family in ("continuous.convex", "continuous.closed_form", "vdd.lp"):
        layers[f"{family}_s"] = ("s", totals.get(family, 0.0))
        layers[f"{family}_max_s"] = ("s", maxima.get(family, 0.0))
    info = {"cold_wall_s": cold_wall, "pooled_over_serial": pooled,
            "grid_fingerprint": {m: t.column("grid_fingerprint")[0]
                                 for m, t in cold.items()}}
    return {"attempted": cold_rows + warm_rows, "failed": bad,
            "errors": errors, "layers": layers, "info": info}
