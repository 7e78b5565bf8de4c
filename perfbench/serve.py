"""The serve workloads: ``repro serve`` in its own process, loaded closed
loop by two client connections from this process.

End-to-end numbers come from the HTTP loop.  The per-layer split comes
from timing the same public functions the request handler calls
(``SolveRequest.from_wire``, ``to_instance``, ``solve_batch``,
``SolveResponse.from_result``, ``encode_rows``, ``SolverService.solve``)
on the same request bodies, in this process.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Callable

from common import (ROOT, Tracer, child_env, geomean, loop_stats, median,
                    rel_close, scratch_dir, stop_process)
from inputs import serve_batch_inputs, serve_singles_inputs

CLIENTS = 2          # closed loop: each client waits for its reply
COLD_STARTS = 5      # server starts per run; setup_s is their median
START_TIMEOUT = 60.0
PROBE_ROUNDS = 5     # repetitions of each in-process stage probe

_URL = re.compile(r"on http://([0-9.]+):([0-9]+)")
_JSON = {"Content-Type": "application/json"}


class Server:
    """One ``python -m repro serve`` process with default settings, on an
    ephemeral port and a fresh jobs directory inside the checkout."""

    def __init__(self) -> None:
        self.jobs_dir = scratch_dir("jobs-")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs-dir", str(self.jobs_dir)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self.host, self.port = "", 0
        self._bound = threading.Event()
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        if not self._bound.wait(START_TIMEOUT) or not self.port:
            self.stop()
            raise RuntimeError("repro serve did not report its address")

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            match = _URL.search(line)
            if match and not self._bound.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._bound.set()
        self._bound.set()  # exited before binding: wake the waiter

    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=_JSON)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict[str, Any]:
        status, payload = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def stop(self) -> None:
        stop_process(self.proc)
        shutil.rmtree(self.jobs_dir, ignore_errors=True)


def cold_start(path: str, body: bytes) -> tuple[float, Server]:
    """Start a server; the set-up ends at the first healthy, warmed
    response (``/v1/healthz``, then one real request)."""
    start = time.perf_counter()
    server = Server()
    try:
        deadline = start + START_TIMEOUT
        while True:
            try:
                if server.call("GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)
        status, payload = server.call("POST", path, body)
        if status != 200:
            raise RuntimeError(f"warm-up {path} answered {status}: "
                               f"{payload[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - start, server


def closed_loop(server: Server, path: str, bodies: list[bytes],
                seconds: float, tracer: Tracer
                ) -> tuple[list[tuple[int, float, float, int, bytes]], float]:
    """``CLIENTS`` persistent connections, each sending its next request
    when the previous reply is fully read, until ``seconds`` have passed.

    Returns ``(records, start)``; a record is ``(body index, sent, done,
    status, payload)`` and status 0 marks a connection error.
    """
    records: list[list[tuple[int, float, float, int, bytes]]] = \
        [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(c: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        order = list(range(c, len(bodies), CLIENTS)) or [0]
        k = 0
        while time.perf_counter() < deadline:
            index = order[k % len(order)]
            k += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("http." + path, f"c{c}-{k}"):
                    conn.request("POST", path, body=bodies[index],
                                 headers=_JSON)
                    response = conn.getresponse()
                    payload, status = response.read(), response.status
            except (OSError, http.client.HTTPException) as exc:
                payload, status = repr(exc).encode(), 0
                conn.close()
                conn = http.client.HTTPConnection(server.host, server.port,
                                                  timeout=60)
            records[c].append((index, t0, time.perf_counter(), status,
                               payload))
        conn.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for per_client in records for r in per_client], start


def _references(instances) -> list[float]:
    from repro import solve

    return [solve(instance.problem()).energy for instance in instances]


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def _check_batch(records, instances, refs) -> tuple[int, list[str], list[float]]:
    """Bad rows and their reasons; energy ratios of the good rows."""
    from repro.api.rowcodec import decode_rows
    from repro.utils.errors import ReproError

    bad, errors, ratios = 0, [], []
    for index, _t0, _t1, status, payload in records:
        expected = instances[index]
        if status != 200:
            bad += len(expected)
            errors.append(f"HTTP {status}: {payload[:160]!r}")
            continue
        try:
            rows = decode_rows(json.loads(payload))
        except (ValueError, ReproError) as exc:
            bad += len(expected)
            errors.append(f"undecodable frame: {exc}")
            continue
        if len(rows) != len(expected):
            bad += len(expected)
            errors.append(f"{len(rows)} rows for {len(expected)} requests")
            continue
        for row, inst, ref in zip(rows, expected, refs[index]):
            if row.ok and row.name == inst.wire["name"] \
                    and rel_close(row.energy, ref):
                ratios.append(row.energy / ref)
            else:
                bad += 1
                errors.append(f"row {inst.wire['name']}: ok={row.ok} "
                              f"energy={row.energy} reference={ref} "
                              f"error={row.error}")
    return bad, errors, ratios


def _check_singles(records, instances, refs) -> tuple[int, list[str], list[float]]:
    from repro.api.protocol import SolveResponse
    from repro.utils.errors import ReproError

    bad, errors, ratios = 0, [], []
    for index, _t0, _t1, status, payload in records:
        inst, ref = instances[index], refs[index]
        try:
            row = SolveResponse.from_wire(json.loads(payload)) \
                if status == 200 else None
        except (ValueError, ReproError) as exc:
            row, payload = None, str(exc).encode()
        if row is not None and row.ok and row.name == inst.wire["name"] \
                and rel_close(row.energy, ref):
            ratios.append(row.energy / ref)
        else:
            bad += 1
            errors.append(f"{inst.wire['name']}: HTTP {status} "
                          f"{payload[:160]!r}")
    return bad, errors, ratios


# --------------------------------------------------------------------- #
# per-layer probes (same bodies, same public functions, this process)
# --------------------------------------------------------------------- #
def _probe_batch(bodies: list[bytes], tracer: Tracer) -> dict[str, float]:
    from repro.api.client import execute_solve_batch
    from repro.api.protocol import SolveRequest, SolveResponse
    from repro.api.rowcodec import encode_rows
    from repro.batch.vectorized import solve_batch
    from repro.service import SolverService

    stages: dict[str, list[float]] = {k: [] for k in (
        "decode", "lower", "solve", "respond", "encode", "inprocess")}
    fallback = rows_seen = 0
    service = SolverService(workers=1, use_threads=True)
    try:
        for _round in range(PROBE_ROUNDS):
            for b, body in enumerate(bodies):
                rid = f"probe-{_round}-{b}"
                with tracer.span("api.protocol.decode", rid):
                    dt, requests = _timed(lambda: [
                        SolveRequest.from_wire(p)
                        for p in json.loads(body)["requests"]])
                stages["decode"].append(dt)
                with tracer.span("api.protocol.lower", rid):
                    dt, items = _timed(
                        lambda: [r.to_instance() for r in requests])
                stages["lower"].append(dt)
                with tracer.span("batch.vectorized.solve", rid):
                    dt, results = _timed(lambda: solve_batch(items))
                stages["solve"].append(dt)
                with tracer.span("api.protocol.respond", rid):
                    dt, rows = _timed(
                        lambda: [SolveResponse.from_result(r) for r in results])
                stages["respond"].append(dt)
                with tracer.span("api.rowcodec.encode", rid):
                    dt, _frame = _timed(lambda: json.dumps(
                        encode_rows(rows), default=repr).encode("utf-8"))
                stages["encode"].append(dt)
                fallback += sum(1 for r in results
                                if not r.metadata.get("vectorized"))
                rows_seen += len(results)

                # the handler's chain as one block, to check the stage sum
                def chain() -> bytes:
                    payload = json.loads(body)
                    reqs = [SolveRequest.from_wire(p)
                            for p in payload["requests"]]
                    out = execute_solve_batch(service, reqs)
                    return json.dumps(encode_rows(out),
                                      default=repr).encode("utf-8")
                with tracer.span("api.inprocess_batch", rid):
                    dt, _ = _timed(chain)
                stages["inprocess"].append(dt)
    finally:
        service.shutdown()
    out = {f"{name}_ms": median(values) * 1e3
           for name, values in stages.items()}
    out["fallback_ratio"] = fallback / rows_seen
    return out


def _probe_singles(bodies: list[bytes], instances, tracer: Tracer
                   ) -> dict[str, float]:
    from repro.api.protocol import SolveRequest, SolveResponse
    from repro.batch.vectorized import solve_batch
    from repro.graphs.sp_decomposition import sp_decompose
    from repro.service import SolverService

    decode, respond, single, sp = [], [], [], []
    fallback = 0
    items = []
    for i, (body, inst) in enumerate(zip(bodies, instances)):
        with tracer.span("api.protocol.decode_single", f"probe-{i}"):
            dt, request = _timed(
                lambda: SolveRequest.from_wire(json.loads(body)))
        decode.append(dt)
        item = request.to_instance()
        items.append(item)
        with tracer.span("batch.vectorized.solve_single", f"probe-{i}"):
            dt, (result,) = _timed(lambda: solve_batch([item]))
        single.append(dt)
        fallback += not result.metadata.get("vectorized")
        with tracer.span("api.protocol.respond_single", f"probe-{i}"):
            dt, _ = _timed(lambda: json.dumps(
                SolveResponse.from_result(result).to_wire(),
                default=repr).encode("utf-8"))
        respond.append(dt)
        if inst.kind == "sp":
            with tracer.span("graphs.sp_decompose", f"probe-{i}"):
                dt, _ = _timed(lambda: sp_decompose(inst.graph))
            sp.append(dt)

    # SolverService.solve from CLIENTS threads, like the server's handlers
    waits: list[list[float]] = [[] for _ in range(CLIENTS)]
    service = SolverService(workers=1, use_threads=True)

    def caller(c: int) -> None:
        for _round in range(PROBE_ROUNDS):
            for k in range(c, len(items), CLIENTS):
                with tracer.span("service.solve", f"probe-{c}-{k}"):
                    dt, _ = _timed(lambda: service.solve(items[k]))
                waits[c].append(dt)

    try:
        threads = [threading.Thread(target=caller, args=(c,))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service.shutdown()
    service_ms = median([w for per in waits for w in per]) * 1e3
    single_ms = median(single) * 1e3
    return {"decode_single_us": median(decode) * 1e6,
            "respond_single_us": median(respond) * 1e6,
            "solve_single_ms": single_ms,
            "service_solve_ms": service_ms,
            "service_wait_ms": service_ms - single_ms,
            "sp_decompose_us": median(sp) * 1e6 if sp else 0.0,
            "fallback_ratio": fallback / len(items)}


# --------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, tracer: Tracer
        ) -> dict[str, Any]:
    batch = workload == "serve_batch"
    path = "/v1/solve_batch" if batch else "/v1/solve"
    if batch:
        bodies, instances = serve_batch_inputs(seed)
    else:
        bodies, instances = serve_singles_inputs(seed)

    setups, server = [], None
    try:
        for _ in range(COLD_STARTS):
            if server is not None:
                server.stop()
            dt, server = cold_start(path, bodies[0])
            setups.append(dt)
        assert server is not None
        stats0 = server.get_json("/v1/batch_stats")
        records, loop_start = closed_loop(server, path, bodies, seconds,
                                          Tracer(False))
        stats1 = server.get_json("/v1/batch_stats")
        traced: list = []
        if tracer.enabled:
            traced, _ = closed_loop(server, path, bodies, seconds, tracer)
        shed = server.get_json("/v1/healthz")["admission"]["shed"]
    finally:
        if server is not None:
            server.stop()

    if batch:
        refs = [_references(rows) for rows in instances]
        bad, errors, ratios = _check_batch(records + traced, instances, refs)
        per_op = len(instances[0])
    else:
        refs = _references(instances)
        bad, errors, ratios = _check_singles(records + traced, instances, refs)
        per_op = 1
    attempted = per_op * (len(records) + len(traced))
    stats = loop_stats([(t0, t1, per_op if status == 200 else 0)
                        for _i, t0, t1, status, _p in records], loop_start)
    e2e = {
        "solves_per_s": ("1/s", stats["solves_per_s"]),
        "op_p50_ms": ("ms", stats["op_p50_ms"]),
        "op_tail_ms": ("ms", stats["op_tail_ms"]),
        "setup_s": ("s", median(setups)),
        "energy_over_bound": ("ratio", geomean(ratios) if ratios else 0.0),
    }
    info: dict[str, Any] = {
        "loop": stats, "solves_per_request": per_op,
        "setup_samples_s": setups, "clients": CLIENTS,
    }
    layers: dict[str, tuple[str, float]] = {}
    if tracer.enabled:
        ticks = stats1["ticks"] - stats0["ticks"]
        submitted = stats1["submitted"] - stats0["submitted"]
        traced_lat = [(t1 - t0) * 1e3 for _i, t0, t1, _s, _p in traced]
        latencies = [(t1 - t0) * 1e3 for _i, t0, t1, _s, _p in records]
        layers.update({
            "service.batcher.ticks": ("count", ticks),
            "service.batcher.mean_occupancy": (
                "count", submitted / ticks if ticks else 0.0),
            "server.admission.shed": ("count", shed),
            "trace.overhead_ms": ("ms", median(traced_lat)
                                  - median(latencies)),
        })
        if batch:
            probe = _probe_batch(bodies, tracer)
            stage_sum = sum(probe[f"{k}_ms"] for k in (
                "decode", "lower", "solve", "respond", "encode"))
            layers.update({
                "api.protocol.decode_ms": ("ms", probe["decode_ms"]),
                "api.protocol.lower_ms": ("ms", probe["lower_ms"]),
                "batch.vectorized.solve_ms": ("ms", probe["solve_ms"]),
                "api.protocol.respond_ms": ("ms", probe["respond_ms"]),
                "api.rowcodec.encode_ms": ("ms", probe["encode_ms"]),
                "api.inprocess_batch_ms": ("ms", probe["inprocess_ms"]),
                "api.request_bytes": ("bytes", median(
                    [len(b) for b in bodies])),
                "api.response_bytes": ("bytes", median(
                    [len(r[4]) for r in records if r[3] == 200] or [0])),
                "server.http.residual_ms": (
                    "ms", e2e["op_p50_ms"][1] - stage_sum),
                "batch.vectorized.fallback_ratio": (
                    "ratio", probe["fallback_ratio"]),
            })
            info["stage_sum_ms"] = stage_sum
            info["stage_sum_over_inprocess"] = stage_sum / probe["inprocess_ms"]
        else:
            probe = _probe_singles(bodies, instances, tracer)
            layers.update({
                "service.solve_ms": ("ms", probe["service_solve_ms"]),
                "batch.vectorized.solve_single_ms": (
                    "ms", probe["solve_single_ms"]),
                "service.wait_ms": ("ms", probe["service_wait_ms"]),
                "graphs.sp_decompose_us": ("us", probe["sp_decompose_us"]),
                "api.protocol.decode_single_us": (
                    "us", probe["decode_single_us"]),
                "api.protocol.respond_single_us": (
                    "us", probe["respond_single_us"]),
                "batch.vectorized.fallback_ratio": (
                    "ratio", probe["fallback_ratio"]),
            })
    return {"attempted": attempted, "failed": bad, "errors": errors,
            "e2e": e2e, "layers": layers, "info": info}
