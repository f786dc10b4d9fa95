"""Thread-safe serving statistics: QPS, latency percentiles, batching.

One :class:`ServeStats` instance aggregates everything the ``/stats``
endpoint, the ``serve.stats`` telemetry event and the serving benchmark
report.  Latencies are kept in a bounded window (newest
``latency_window`` requests) so a long-lived server's percentiles track
recent behaviour instead of averaging over its whole lifetime.  Each
batched request's latency is also split into its parts: the queue wait
(submit → its batch starts) and the compute time (its batch's run).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Dict, List

__all__ = ["ServeStats", "percentile"]


def _tails_ms(seconds: List[float]) -> Dict[str, float]:
    """The p50 and p99 of ``seconds``, in milliseconds."""
    return {"p50": percentile(seconds, 50) * 1e3, "p99": percentile(seconds, 99) * 1e3}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by nearest-rank, 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class ServeStats:
    """Counters and reservoirs behind one lock (all methods thread-safe)."""

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=latency_window)
        self._waits: deque = deque(maxlen=latency_window)
        self._execs: deque = deque(maxlen=latency_window)
        self._status = Counter()
        self._batch_sizes = Counter()
        self._batches = 0
        self._batched_requests = 0
        self._max_queue_depth = 0
        self._worker_restarts = 0
        self._stream_batches = 0
        self._stream_rows = 0
        self._stream_steps = 0
        self._stream_max_rows = 0
        self._stream_max_occupancy = 0
        self._stream_evictions = 0
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        self._first_request: float = 0.0
        self._last_request: float = 0.0

    # -- recording -------------------------------------------------------

    def record_request(self, latency_s: float, status: str = "ok") -> None:
        """One finished (or rejected) request and its outcome."""
        now = time.perf_counter()
        with self._lock:
            self._status[status] += 1
            if status == "ok":
                self._latencies.append(latency_s)
            if self._first_request == 0.0:
                self._first_request = now
            self._last_request = now

    def record_batch(self, size: int, queue_depth: int,
                     waits_s: List[float], exec_s: float) -> None:
        """One executed micro-batch, the queue depth at formation, each
        request's queue wait and the batch's compute time."""
        with self._lock:
            self._waits.extend(waits_s)
            self._execs.extend([exec_s] * len(waits_s))
            self._batches += 1
            self._batched_requests += size
            self._batch_sizes[int(size)] += 1
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)

    def record_worker_restart(self) -> None:
        with self._lock:
            self._worker_restarts += 1

    def record_stream_batch(self, rows: int, steps: int, occupancy: int,
                            waits_s: List[float], exec_s: float) -> None:
        """One executed fleet step batch: how many stream rows advanced
        together, the longest chunk in the batch, the fleet occupancy at
        execution, each chunk's queue wait and the step's compute time."""
        with self._lock:
            self._waits.extend(waits_s)
            self._execs.extend([exec_s] * len(waits_s))
            self._stream_batches += 1
            self._stream_rows += rows
            self._stream_steps += steps
            self._stream_max_rows = max(self._stream_max_rows, rows)
            self._stream_max_occupancy = max(self._stream_max_occupancy, occupancy)

    def record_stream_eviction(self) -> None:
        """One streaming session detached from its fleet by LRU pressure."""
        with self._lock:
            self._stream_evictions += 1

    def record_plan(self, hit: bool, evicted: bool = False) -> None:
        with self._lock:
            if hit:
                self._plan_hits += 1
            else:
                self._plan_misses += 1
            if evicted:
                self._plan_evictions += 1

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-serialisable summary (``/stats`` payload, ``serve.stats``
        event, benchmark record)."""
        with self._lock:
            latencies = list(self._latencies)
            ok = self._status.get("ok", 0)
            elapsed = max(self._last_request - self._first_request, 1e-9)
            qps = ok / elapsed if ok > 1 else float(ok)
            mean_batch = (
                self._batched_requests / self._batches if self._batches else 0.0
            )
            return {
                "requests": sum(self._status.values()),
                "by_status": dict(self._status),
                "qps": qps,
                "latency_ms": {
                    "p50": percentile(latencies, 50) * 1e3,
                    "p99": percentile(latencies, 99) * 1e3,
                    "mean": (sum(latencies) / len(latencies) * 1e3)
                    if latencies
                    else 0.0,
                },
                "wait_ms": _tails_ms(list(self._waits)),
                "exec_ms": _tails_ms(list(self._execs)),
                "batches": self._batches,
                "mean_batch_size": mean_batch,
                "batch_size_histogram": {
                    str(k): v for k, v in sorted(self._batch_sizes.items())
                },
                "max_queue_depth": self._max_queue_depth,
                "worker_restarts": self._worker_restarts,
                "stream": {
                    "batches": self._stream_batches,
                    "rows_stepped": self._stream_rows,
                    "mean_rows_per_batch": (
                        self._stream_rows / self._stream_batches
                        if self._stream_batches
                        else 0.0
                    ),
                    "max_rows_per_batch": self._stream_max_rows,
                    "max_occupancy": self._stream_max_occupancy,
                    "evictions": self._stream_evictions,
                },
                "plan_cache": {
                    "hits": self._plan_hits,
                    "misses": self._plan_misses,
                    "evictions": self._plan_evictions,
                },
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"ServeStats(requests={snap['requests']}, qps={snap['qps']:.1f}, "
            f"batches={snap['batches']})"
        )
