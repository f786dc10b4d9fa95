"""Sweep worker process entry point and telemetry forwarding.

A sweep worker runs exactly one experiment cell per process (process
isolation is what makes per-task timeouts, kills and crash retries
clean: the parent can always ``terminate()`` a wedged cell without
poisoning a shared pool).  The worker communicates with the parent over
one pipe carrying three message kinds::

    ("event",  {"kind": ..., "fields": {...}})   # streamed telemetry
    ("result", {"value": ..., "span_totals": ..., "pid": ...})
    ("error",  {"error": ..., "traceback": ..., "pid": ...})

Telemetry forwarding
--------------------
Instrumented library code (``Trainer.fit`` epoch events,
``evaluate_under_*`` evaluation events, …) emits through
:func:`repro.telemetry.emit`, which consults the *process-local* active
run.  On fork the child would inherit the parent's open
:class:`~repro.telemetry.Run` — including its ``events.jsonl`` file
handle — so the first thing a worker does is clear that inherited state
(two processes appending to one JSONL stream interleave corruptly).  In
its place the worker installs a :class:`WorkerTelemetry` shim that
duck-types the small Run surface the library uses (``emit`` / ``span``
/ ``record_span`` / ``update_manifest``) and forwards events over the
pipe; the parent re-emits them into the real run wrapped as
``sweep.worker`` events, so ``python -m repro runs tail`` watches a
live sweep.  Span durations are aggregated locally (spans are hot) and
shipped once with the final result.
"""

from __future__ import annotations

import os
import sys
import traceback
from typing import Callable, Dict, Tuple

from ..telemetry.gauges import Gauge

__all__ = ["WorkerTelemetry", "reset_inherited_telemetry", "worker_main"]


class _ShimSpan:
    """Timing context mirroring :class:`repro.telemetry.run._Span`."""

    __slots__ = ("_owner", "_name", "_start")

    def __init__(self, owner: "WorkerTelemetry", name: str) -> None:
        self._owner = owner
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_ShimSpan":
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        import time

        self._owner.record_span(self._name, time.perf_counter() - self._start)


class WorkerTelemetry:
    """In-worker stand-in for :class:`repro.telemetry.Run`.

    Implements the subset of the Run interface that instrumented
    library code touches, so a sweep worker can run the exact same
    code path as an observed in-process run:

    * :meth:`emit` — forwards the event over the parent pipe (dropped
      silently once the pipe breaks: a dying parent must not crash the
      cell);
    * :meth:`span` / :meth:`record_span` — aggregate locally into a
      :class:`~repro.telemetry.gauges.Gauge` (shipped with the result);
    * :meth:`update_manifest` — no-op (workers own no manifest);
    * ``dir`` — ``None``, so :meth:`repro.core.Trainer.fit` never
      routes checkpoints into a nonexistent run directory.
    """

    #: Never stream one event per span from a worker.
    emit_span_events = False
    #: Workers have no run directory (Trainer checks before using it).
    dir = None

    def __init__(self, conn=None, run_id: str = "sweep-worker") -> None:
        self._conn = conn
        self.run_id = f"{run_id}-{os.getpid()}"
        self._spans = Gauge()

    def emit(self, kind: str, **fields) -> None:
        """Forward one event to the parent (best-effort)."""
        if self._conn is None:
            return
        try:
            self._conn.send(("event", {"kind": str(kind), "fields": fields}))
        except (BrokenPipeError, OSError):
            self._conn = None

    # close() parity with Run is intentionally absent: workers never
    # own files; the orchestrator finalises everything parent-side.

    def span(self, name: str) -> _ShimSpan:
        """Aggregate a ``with``-block duration under ``name``."""
        return _ShimSpan(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Add a pre-measured duration under ``name``."""
        self._spans.add(name, seconds)

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregated ``{name: {seconds, calls}}`` totals so far."""
        return self._spans.snapshot()

    def update_manifest(self, **fields) -> None:
        """Workers own no manifest; accepted and discarded."""

    def __repr__(self) -> str:
        return f"WorkerTelemetry(run_id={self.run_id!r})"


def reset_inherited_telemetry() -> None:
    """Drop any Run state forked from the parent process.

    The inherited ``events.jsonl`` handle is *not* closed — closing a
    dup'd append-mode descriptor is harmless but the Run object still
    belongs to the parent; the child simply stops routing into it.
    Every forked worker (sweep cells, serving plan workers) calls this
    before doing anything observable.
    """
    from ..telemetry import run as _run_module

    _run_module._ACTIVE.clear()


#: Backwards-compatible private alias (pre-serving name).
_reset_inherited_telemetry = reset_inherited_telemetry


def worker_main(
    conn,
    fn: Callable[..., Dict],
    args: Tuple,
    forward_events: bool = True,
) -> None:
    """Run one cell function in this process and report over ``conn``.

    Installs a :class:`WorkerTelemetry` shim as the active run, calls
    ``fn(*args)``, and sends exactly one terminal message (``result``
    or ``error``).  Exits non-zero on failure so the parent can
    distinguish clean completion from a crashed interpreter even if the
    pipe message was lost.
    """
    from ..telemetry import run as _run_module

    reset_inherited_telemetry()
    shim = WorkerTelemetry(conn if forward_events else None)
    _run_module._ACTIVE.append(shim)
    failed = False
    try:
        value = fn(*args)
        conn.send(
            (
                "result",
                {
                    "value": value,
                    "span_totals": shim.span_totals(),
                    "pid": os.getpid(),
                },
            )
        )
    except BaseException as exc:  # noqa: BLE001 — report, then exit non-zero
        failed = True
        try:
            conn.send(
                (
                    "error",
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(limit=30),
                        "pid": os.getpid(),
                    },
                )
            )
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
    if failed:
        sys.exit(1)
