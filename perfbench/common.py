"""Shared pieces of the benchmark: checkout paths, statistics, spans and
provenance.

Nothing here imports the program (``repro``); the workload modules do,
after :mod:`run` has checked that the checkout holds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Sequence

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (span dumps, result files, server job stores).
OUT = ROOT / ".perfbench"

#: BLAS / OpenMP thread variables, recorded as found and never set.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scratch_dir(prefix: str) -> Path:
    """A fresh directory inside the checkout (runs write nowhere else)."""
    base = OUT / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def child_env() -> dict[str, str]:
    """Environment for child processes: the program on the path and temp
    files inside the checkout; every other variable passes through as is."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def stop_process(proc: subprocess.Popen, *, grace: float = 10.0) -> None:
    """SIGTERM a child's process group, SIGKILL it after ``grace`` seconds,
    and wait until the child has ended."""
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    # the group may hold grandchildren (pool workers) even after the leader
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_child(args: Sequence[str], *, timeout: float) -> tuple[int | None, str, float]:
    """Run ``python3 perfbench/run.py <args>`` to completion in its own
    process group; return ``(exit code or None on timeout, stdout, wall)``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "run.py"),
                             *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code: int | None = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", None
    finally:
        stop_process(proc, grace=0.0)
    return code, out, time.perf_counter() - start


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``.  The sample of rank
    ``k`` (1-based, ascending) has ``n - k`` samples beyond it, so the rank
    is ``n - 10``.  With ten samples or fewer no percentile qualifies and
    the maximum is reported, with zero samples beyond it.
    """
    ranked = sorted(values)
    n = len(ranked)
    if n > 10:
        rank = n - 10
        return float(ranked[rank - 1]), 100.0 * rank / n, 10
    return float(ranked[-1]), 100.0, 0


#: A closed loop's ops are cut into blocks of this many consecutive ops.
BLOCK = 100


def loop_stats(ops: Sequence[tuple[float, float, int]],
               start: float) -> dict[str, Any]:
    """End-to-end numbers of a closed loop.

    ``ops`` are ``(sent, done, solves)`` perf-counter stamps.  The ops,
    in completion order, are cut into blocks of ``BLOCK`` (one block when
    there are fewer than two blocks' worth).  Throughput and the tail are
    medians over the blocks, so a burst of host contention that covers a
    minority of the run cannot decide them; in a full block the tail is
    its 90th percentile.  The median latency is taken over all ops.
    """
    ordered = sorted(ops, key=lambda op: op[1])
    count = max(1, len(ordered) // BLOCK)
    size = len(ordered) // count
    bounds = [i * size for i in range(count)] + [len(ordered)]
    rates, tails = [], []
    begin = start
    for lo, hi in zip(bounds, bounds[1:]):
        block = ordered[lo:hi]
        end = block[-1][1]
        rates.append(sum(n for _s, _d, n in block) / (end - begin))
        tails.append(tail([(done - sent) * 1e3 for sent, done, _n in block]))
        begin = end
    return {"solves_per_s": median(rates),
            "op_p50_ms": median([(done - sent) * 1e3
                                 for sent, done, _n in ordered]),
            "op_tail_ms": median([t[0] for t in tails]),
            "tail_percentile": median([t[1] for t in tails]),
            "block_ops": size, "blocks": count,
            "block_solves_per_s": rates,
            "block_tail_ms": [t[0] for t in tails],
            "elapsed_s": ordered[-1][1] - start}


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rel_close(a: float | None, b: float, tol: float = 1e-9) -> bool:
    return a is not None and abs(a - b) <= tol * max(abs(a), abs(b))


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory spans around the calls the benchmark makes into each layer.

    A span is ``(id, name, start_ns, end_ns, parent id, request id)``; the
    parent is the innermost open span of the same thread.  Disabled, a
    span is a shared no-op context manager.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, int, int, int | None, str | None]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, request_id: str | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request_id)

    @contextlib.contextmanager
    def _span(self, name: str, request_id: str | None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent,
                                   request_id))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds (self time is
        the duration minus the time covered by child spans)."""
        child_ns: dict[int, int] = {}
        for _sid, _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent, _rid in self.spans:
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns.get(sid, 0)) / 1e6
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request_id": rid}) + "\n")


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    """Content hash of the program's sources (a checkout need not be a git
    repository, so this identifies the code when no SHA is available)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (AttributeError, KeyError, TypeError):  # older numpy layouts
        return {"name": None, "version": None, "config": None}


def provenance(*, workload: str, seed: int, seconds: int,
               trace: bool) -> dict[str, Any]:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
