"""Inference serving tier: frozen forward plans behind micro-batching.

The deployment face of the reproduction (ROADMAP item 1).  A trained
:class:`~repro.core.PrintedTemporalClassifier` is frozen into a
graph-free :class:`~repro.compile.ForwardPlan` (bit-equal to the live
model — see ``tests/compile/test_plan.py``) and served by:

* :class:`MicroBatchService` — bounded request queue, natural
  batching of the compatible requests queued together into one
  ``(batch, time, features)`` forward, per-model LRU of compiled plans,
  optional crash-isolated worker processes, and graceful degradation
  (queue-full rejections, per-request timeouts, worker restarts);
* :class:`ServeHTTPServer` — the stdlib HTTP transport
  (``/predict``, ``/predict_mc``, ``/predict_stream``, ``/healthz``,
  ``/stats``, ``/models``).  ``/predict_stream`` hosts stateful
  :class:`~repro.core.StreamingSession` instances (LRU-bounded by
  ``ServeOptions.max_sessions``) whose filter state carries across
  requests — chunked delivery is bit-equal to one-shot;
* ``serve.*`` telemetry events streamed into the active
  :class:`repro.telemetry.Run` and rendered by ``python -m repro
  report`` (see ``docs/SERVING.md`` and ``docs/OBSERVABILITY.md``).

Start a server from the CLI with ``python -m repro serve``; benchmark
the micro-batching speedup with ``benchmarks/bench_serving.py``.
"""

from .batching import MicroBatchService, ServeOptions
from .errors import (
    PoolBrokenError,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    UnknownModelError,
    UnknownSessionError,
    WorkerCrashError,
)
from .registry import PlanRegistry
from .service import MAX_BODY_BYTES, ServeHTTPServer
from .stats import ServeStats, percentile
from .workers import PlanWorkerPool, serve_worker_main

__all__ = [
    "MAX_BODY_BYTES",
    "MicroBatchService",
    "PlanRegistry",
    "PlanWorkerPool",
    "PoolBrokenError",
    "QueueFullError",
    "RequestTimeoutError",
    "ServeError",
    "ServeHTTPServer",
    "ServeOptions",
    "ServeStats",
    "UnknownModelError",
    "UnknownSessionError",
    "WorkerCrashError",
    "percentile",
    "serve_worker_main",
]
