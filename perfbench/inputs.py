"""Seeded inputs of every workload.

The program receives only what these functions generate; one seed always
gives the same request bytes, sweep grid and DAG.  Instances are kept
exactly as the seed draws them: nothing is re-drawn or filtered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.protocol import SCHEMA_VERSION
from repro.core.models import ContinuousModel
from repro.core.power import PowerLaw
from repro.core.problem import MinEnergyProblem
from repro.experiments.workloads import WorkloadSpec, make_workload, matching_models
from repro.graphs.analysis import longest_path_length
from repro.graphs.generators import random_series_parallel, random_tree
from repro.graphs.io import graph_to_dict
from repro.graphs.taskgraph import TaskGraph

# serve workloads: small instances on the vectorized fast path
S_MAX = 2.0
ALPHA = 3.0
SLACK = 1.8
N_TASKS = 8
BATCH = 512          # instances per solve_batch body
BATCH_BODIES = 4     # distinct bodies the batch clients cycle through
SINGLES_POOL = 256   # distinct single-solve bodies the clients cycle through

# sweep: a `repro sweep` grid, serial, for two models
SWEEP_AXES: dict[str, Any] = dict(
    graph_classes=("tree", "series_parallel", "layered", "erdos"),
    sizes=(16, 32, 48), slacks=(1.5, 2.5), repetitions=1)
SWEEP_MODELS = ("continuous", "vdd")

# large_dag: one layered DAG, all four models sharing s_max = 1
LARGE_DAG_TASKS = 2000
LARGE_DAG_SLACK = 1.5
MODELS = ("continuous", "vdd", "discrete", "incremental")


@dataclass(frozen=True)
class Instance:
    """One served instance: the graph object and its wire request."""

    kind: str  # "tree" or "sp"
    graph: TaskGraph
    deadline: float
    wire: dict[str, Any]

    def problem(self) -> MinEnergyProblem:
        """The same instance built directly, for the scalar reference."""
        return MinEnergyProblem(graph=self.graph, deadline=self.deadline,
                                model=ContinuousModel(s_max=S_MAX),
                                power=PowerLaw(alpha=ALPHA),
                                name=self.wire["name"])


def _instance(kind: str, seed: int, name: str) -> Instance:
    make = random_tree if kind == "tree" else random_series_parallel
    graph = make(N_TASKS, seed=seed)
    deadline = SLACK * longest_path_length(
        graph, weight=lambda n: graph.work(n) / S_MAX)
    wire = {"schema_version": SCHEMA_VERSION, "graph": graph_to_dict(graph),
            "deadline": deadline, "model": "continuous", "s_max": S_MAX,
            "alpha": ALPHA, "name": name}
    return Instance(kind=kind, graph=graph, deadline=deadline, wire=wire)


def _seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def serve_batch_inputs(seed: int) -> tuple[list[bytes], list[list[Instance]]]:
    """``BATCH_BODIES`` solve_batch bodies of ``BATCH`` random 8-task trees."""
    seeds = _seeds(seed, 1, BATCH_BODIES * BATCH)
    bodies, instances = [], []
    for b in range(BATCH_BODIES):
        rows = [_instance("tree", seeds[b * BATCH + i], f"b{b}-{i}")
                for i in range(BATCH)]
        bodies.append(json.dumps({"schema_version": SCHEMA_VERSION,
                                  "requests": [r.wire for r in rows],
                                  "keep_speeds": False}).encode("utf-8"))
        instances.append(rows)
    return bodies, instances


def serve_singles_inputs(seed: int) -> tuple[list[bytes], list[Instance]]:
    """``SINGLES_POOL`` solve bodies: a seeded mix of 8-task trees and
    8-task series-parallel graphs."""
    seeds = _seeds(seed, 2, SINGLES_POOL)
    kinds = np.random.default_rng([seed, 3]).random(SINGLES_POOL) < 0.5
    instances = [_instance("tree" if tree else "sp", s, f"s{i}")
                 for i, (s, tree) in enumerate(zip(seeds, kinds))]
    return [json.dumps(i.wire).encode("utf-8") for i in instances], instances


def sweep_grid(seed: int, model: str) -> dict[str, Any]:
    """Keyword arguments of ``repro.batch.sweep`` for one model's grid."""
    return dict(SWEEP_AXES, model=model, seed=seed)


def sweep_fingerprints(seed: int) -> dict[str, str]:
    from repro.batch.sweep import grid_identity

    return {model: grid_identity(**sweep_grid(seed, model))[1]
            for model in SWEEP_MODELS}


def large_dag_problems(seed: int, n_tasks: int = LARGE_DAG_TASKS
                       ) -> dict[str, MinEnergyProblem]:
    """One seeded layered DAG under each of the four models."""
    base = make_workload(WorkloadSpec(graph_class="layered", n_tasks=n_tasks,
                                      n_processors=0, mapping="none",
                                      slack=LARGE_DAG_SLACK, seed=seed))
    return {name: MinEnergyProblem(graph=base.graph, deadline=base.deadline,
                                   model=model, name=f"{base.name}/{name}")
            for name, model in matching_models(1.0, 5).items()}
