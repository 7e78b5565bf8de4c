"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the program (``src/repro``); the
benchmark builds nothing and imports the program from ``src``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Earlier lines (prefixed ``#``) carry provenance, sample
counts and the failed checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, SRC, Tracer, program_present, provenance  # noqa: E402

WORKLOADS = ("serve_batch", "serve_singles", "large_dag")
#: A run must exit within 180 s; phases without a fixed length share this.
RUN_LIMIT = 172.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metrics(result: dict, trace: bool) -> dict:
    """Every metric the spec names for this mode; a layer the workload
    does not reach reads 0."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    found = result["layers"] if trace else result["e2e"]
    out = {}
    for metric in wanted:
        unit, value = found.get(metric["name"], (metric["unit"], 0.0))
        if unit != metric["unit"]:
            raise SystemExit(f"unit mismatch for {metric['name']}: "
                             f"{unit} vs {metric['unit']}")
        out[metric["name"]] = {"value": float(value), "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pooled-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"error: no program to measure: {SRC / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import library  # noqa: E402 - needs the program on the path

    if args.setup_probe:
        library.setup_probe(args.seed)
        print("ok")
        return 0
    if args.pooled_probe:
        library.pooled_probe(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    tracer = Tracer(bool(args.trace))
    started = time.perf_counter()
    if args.workload.startswith("serve_"):
        import serve

        result = serve.run(args.workload, args.seed, args.seconds, tracer)
    else:
        result = library.run_large_dag(args.seed, args.seconds, tracer,
                                       started + RUN_LIMIT)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {"provenance": provenance(workload=args.workload, seed=args.seed,
                                     seconds=args.seconds,
                                     trace=bool(args.trace)),
            "run_wall_s": time.perf_counter() - started,
            "e2e": {k: v[1] for k, v in result["e2e"].items()},
            **result["info"]}
    if tracer.enabled:
        spans = OUT / f"spans-{stamp}.jsonl"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["span_summary"] = tracer.summary()
        result["layers"]["trace.spans"] = ("count", len(tracer.spans))
        # the tail is measured on every run but bounded on none: across
        # host load regimes it moves far more than any allowed bound
        result["layers"]["op_tail_ms"] = result["e2e"]["op_tail_ms"]
    for line in result["errors"][:20]:
        print(f"# check failed: {line}")
    if len(result["errors"]) > 20:
        print(f"# ... {len(result['errors']) - 20} more failed checks")
    print("# " + json.dumps(info, default=str))

    final = {"correct": result["failed"] == 0 and not result["errors"],
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": _metrics(result, bool(args.trace))}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stamp}.json").write_text(
        json.dumps({"info": info, "result": final}, indent=2, default=str)
        + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
