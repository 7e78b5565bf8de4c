"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench/selftests.py -q

They check that inputs are a pure function of the seed and that the tail
rule picks the right rank; they do not run any workload.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from common import Tracer, geomean, tail  # noqa: E402
from inputs import (large_dag_problems, serve_batch_inputs,  # noqa: E402
                    serve_singles_inputs, sweep_fingerprints)


def test_one_seed_gives_identical_inputs_and_a_new_seed_changes_them():
    batch, _ = serve_batch_inputs(5)
    singles, _ = serve_singles_inputs(5)
    fingerprints = sweep_fingerprints(5)
    assert serve_batch_inputs(5)[0] == batch
    assert serve_singles_inputs(5)[0] == singles
    assert sweep_fingerprints(5) == fingerprints

    assert all(a != b for a, b in zip(serve_batch_inputs(6)[0], batch))
    assert serve_singles_inputs(6)[0] != singles
    other = sweep_fingerprints(6)
    assert all(other[m] != fingerprints[m] for m in fingerprints)


def test_large_dag_is_a_function_of_the_seed():
    def edges(seed):
        problem = large_dag_problems(seed, n_tasks=64)["continuous"]
        return problem.graph.edges(), problem.deadline

    assert edges(3) == edges(3)
    assert edges(3) != edges(4)


def test_tail_rule_small_samples_report_the_maximum():
    for n in (1, 5, 10):
        values = random.Random(n).sample(range(1000), n)
        assert tail(values) == (max(values), 100.0, 0)


def test_tail_rule_leaves_ten_samples_beyond():
    values = list(range(1, 12))  # 11 samples: rank 1 has 10 beyond it
    random.Random(0).shuffle(values)
    assert tail(values) == (1.0, 100.0 / 11, 10)

    values = list(range(1, 1001))
    random.Random(1).shuffle(values)
    value, percentile, beyond = tail(values)
    assert (value, beyond) == (990.0, 10)
    assert percentile == 99.0
    assert sum(v > value for v in values) == 10


def test_geomean_and_span_self_time():
    assert abs(geomean([1.0, 4.0]) - 2.0) < 1e-12
    tracer = Tracer(True)
    with tracer.span("outer", "r1"):
        with tracer.span("inner", "r1"):
            pass
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["count"] == inner["count"] == 1
    assert abs(outer["self_ms"] - (outer["total_ms"] - inner["total_ms"])) < 1e-9
    (inner_span,) = [s for s in tracer.spans if s[1] == "inner"]
    (outer_span,) = [s for s in tracer.spans if s[1] == "outer"]
    assert inner_span[4] == outer_span[0] and inner_span[5] == "r1"
    assert Tracer(False).span("x").__class__.__name__ == "nullcontext"
