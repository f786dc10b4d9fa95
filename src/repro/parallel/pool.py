"""Persistent work-stealing worker pool for sweep campaigns.

The ``"parallel"`` executor spawns one short-lived process per cell
attempt — robust, but a campaign of hundreds of small cells pays
interpreter/import startup for every one.  The ``"pool"`` executor
keeps ``max_workers`` worker processes alive for the whole campaign:

* **Task queue + work-stealing.**  Cells are sharded into contiguous
  per-worker blocks (preserving cache-friendly submission order); an
  idle worker first drains its own shard, then picks up ready retries,
  then *steals* from the back of the largest remaining shard — so
  heterogeneous cell costs (a slow dataset in one shard) cannot leave
  cores idle.  Every steal is observable as a ``sweep.pool.steal``
  event.
* **Kill + replace.**  The per-attempt timeout and crash handling of
  the spawn-per-cell executor carry over, but because workers are
  shared, a wedged or killed worker is *replaced* (terminate, spawn a
  fresh process, ``sweep.pool.worker_replace``) rather than simply
  discarded, mirroring the serving tier's ``PlanWorkerPool``.  A
  bounded replacement budget (``SweepOptions.pool_restarts``) converts
  systemic worker death into a :class:`PoolBrokenError` instead of an
  infinite respawn loop.
* **Bit-equality.**  Scheduling only decides *where* a cell runs;
  cells are pure functions of their args, so the pool is bit-equal to
  the serial oracle (asserted over result tables and order-normalised
  ``sweep.cell_end`` payloads in ``tests/parallel/``).

Pipe protocol (duplex, extending ``worker.py``'s message kinds with a
task id so one connection serves many cells)::

    parent → worker:  ("task", task_id, fn, args) | ("stop",)
    worker → parent:  ("event",  task_id, {"kind": ..., "fields": ...})
                      ("result", task_id, {"value", "span_totals", "pid"})
                      ("error",  task_id, {"error", "traceback", "pid"})

While a campaign runs, the pool registers a ``"sweep.pool"`` provider
in the process-wide gauge registry (per-slot busy seconds and cell
counts — the dashboard's occupancy column); registration, like worker
processes themselves, is torn down in ``finally`` so a broken pool
leaves no global state behind.
"""

from __future__ import annotations

import collections
import multiprocessing
import multiprocessing.connection
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from .worker import WorkerTelemetry, reset_inherited_telemetry

__all__ = ["POOL_GAUGE", "PoolBrokenError", "pool_worker_main", "run_pool", "shard_cells"]

#: Name the pool registers in :data:`repro.telemetry.gauges` while a
#: campaign runs (per-slot busy seconds / completed cells).
POOL_GAUGE = "sweep.pool"


class PoolBrokenError(RuntimeError):
    """Worker replacements exceeded the pool's restart budget.

    Raised when workers keep dying faster than the campaign makes
    progress — a systemic failure (broken cell function, OOM-killer)
    that retrying per-cell cannot fix.  The orchestrator guarantees the
    campaign store is closed and the pool gauge unregistered when this
    propagates (regression-tested).
    """


# -- worker side -------------------------------------------------------------


class _PoolTaskTelemetry(WorkerTelemetry):
    """Per-task telemetry shim tagging forwarded events with a task id."""

    def __init__(self, conn, task_id: int) -> None:
        super().__init__(conn, run_id="pool-worker")
        self._task_id = task_id

    def emit(self, kind: str, **fields) -> None:
        """Forward one event to the parent, tagged for its task."""
        if self._conn is None:
            return
        try:
            self._conn.send(
                ("event", self._task_id, {"kind": str(kind), "fields": fields})
            )
        except (BrokenPipeError, OSError):
            self._conn = None


def pool_worker_main(conn, forward_events: bool = True) -> None:
    """Persistent worker loop: serve tasks until ``("stop",)`` or EOF.

    Each ``("task", task_id, fn, args)`` message runs ``fn(*args)``
    under a fresh per-task telemetry shim (span totals must not bleed
    between cells) and answers with exactly one terminal ``result`` /
    ``error`` message carrying the same ``task_id``.  A failed cell
    does *not* exit the process — the worker survives to serve the next
    task; only a lost parent (pipe EOF) or an explicit stop ends the
    loop.
    """
    from ..telemetry import run as _run_module

    reset_inherited_telemetry()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == "stop":
            break
        _, task_id, fn, args = message
        shim = _PoolTaskTelemetry(conn if forward_events else None, task_id)
        _run_module._ACTIVE.append(shim)
        try:
            value = fn(*args)
            reply = (
                "result",
                task_id,
                {"value": value, "span_totals": shim.span_totals(), "pid": os.getpid()},
            )
        except BaseException as exc:  # noqa: BLE001 — report, keep serving
            reply = (
                "error",
                task_id,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=30),
                    "pid": os.getpid(),
                },
            )
        finally:
            try:
                _run_module._ACTIVE.remove(shim)
            except ValueError:
                pass
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass
    sys.exit(0)


# -- parent side -------------------------------------------------------------


def shard_cells(cells: Sequence, n_shards: int) -> List[collections.deque]:
    """Split cells into ``n_shards`` contiguous per-worker deques.

    Contiguous blocks (not round-robin) keep each worker on adjacent
    grid cells *and* make stealing meaningful: heterogeneous shard
    costs leave real imbalance for the stealing path to erase, which is
    how the steal machinery stays exercised (and tested) even on small
    campaigns.
    """
    n_shards = max(1, n_shards)
    shards: List[collections.deque] = [collections.deque() for _ in range(n_shards)]
    base, extra = divmod(len(cells), n_shards)
    index = 0
    for slot in range(n_shards):
        take = base + (1 if slot < extra else 0)
        for cell in cells[index : index + take]:
            shards[slot].append(cell)
        index += take
    return shards


class _PoolWorker:
    """Parent-side handle of one persistent worker slot."""

    __slots__ = ("slot", "proc", "conn", "task", "busy_s", "done", "task_started")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc = None
        self.conn = None
        self.task = None  # (cell, attempt, task_id, deadline) while busy
        self.busy_s = 0.0
        self.done = 0
        self.task_started = 0.0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


def run_pool(
    fn: Callable[..., Dict],
    cells: Sequence,
    options,
    events,
    persist: Callable,
) -> Dict[Tuple[str, ...], "object"]:
    """Pooled executor driven by :func:`repro.parallel.run_cells`.

    Same signature and outcome semantics as the spawn-per-cell
    ``_run_parallel`` executor (per-cell retries with linear backoff,
    per-attempt timeouts, graceful per-cell failure), but cells are
    dispatched to persistent workers with work-stealing, and worker
    death triggers kill+replace against a bounded restart budget.

    Raises :class:`PoolBrokenError` when replacements exceed
    ``options.pool_restarts``; all workers and the pool gauge are torn
    down before the exception propagates.
    """
    from .orchestrator import CellOutcome

    ctx = multiprocessing.get_context()
    cells = list(cells)
    n_workers = max(1, min(options.max_workers, max(1, len(cells))))
    shards = shard_cells(cells, n_workers)
    workers = [_PoolWorker(slot) for slot in range(n_workers)]
    #: (ready_at, sequence, cell, next_attempt) — retry queue.
    retries: List[Tuple[float, int, object, int]] = []
    seq = len(cells)
    next_task_id = 0
    outcomes: Dict[Tuple[str, ...], CellOutcome] = {}
    first_start: Dict[Tuple[str, ...], float] = {}
    restarts = 0
    steals = 0

    def gauge_snapshot() -> Dict[str, Dict[str, float]]:
        """Per-slot ``{seconds: busy wall-clock, calls: cells done}``."""
        now = time.perf_counter()
        out: Dict[str, Dict[str, float]] = {}
        for worker in workers:
            busy = worker.busy_s
            if worker.task is not None:
                busy += now - worker.task_started
            out[f"slot{worker.slot}"] = {
                "seconds": round(busy, 6),
                "calls": float(worker.done),
            }
        return out

    def spawn(worker: _PoolWorker) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=pool_worker_main,
            args=(child_conn, options.forward_worker_events),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.task = None

    def kill(worker: _PoolWorker) -> None:
        if worker.proc is None:
            return
        try:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
        finally:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.proc = None
            worker.conn = None
            worker.task = None

    def replace(worker: _PoolWorker, reason: str) -> None:
        nonlocal restarts
        old_pid = worker.pid
        kill(worker)
        restarts += 1
        if restarts > options.pool_restarts:
            raise PoolBrokenError(
                f"pool exceeded its restart budget ({options.pool_restarts}): {reason}"
            )
        spawn(worker)
        telemetry.emit(
            "sweep.pool.worker_replace",
            slot=worker.slot,
            old_pid=old_pid,
            new_pid=worker.pid,
            reason=reason,
            restarts=restarts,
        )

    def finish(outcome: CellOutcome) -> None:
        outcomes[outcome.key] = outcome
        persist(outcome)
        events.cell_end(outcome)

    def fail_or_retry(pid: Optional[int], cell, attempt: int, error: str,
                      tb: Optional[str] = None) -> None:
        """Retry a failed attempt, or record it against ``pid``, the
        process that ran it (already replaced after a death/timeout)."""
        nonlocal seq
        if attempt <= options.retries:
            backoff = options.backoff_s * attempt
            events.retry(cell, attempt, error, backoff)
            seq += 1
            retries.append((time.perf_counter() + backoff, seq, cell, attempt + 1))
        else:
            finish(
                CellOutcome(
                    key=cell.key,
                    status="failed",
                    error=error,
                    traceback=tb,
                    attempts=attempt,
                    elapsed_s=time.perf_counter() - first_start[cell.key],
                    worker_pid=pid,
                ),
            )

    def settle(worker: _PoolWorker) -> None:
        """Account a finished task's busy time and free the slot."""
        worker.busy_s += time.perf_counter() - worker.task_started
        worker.done += 1
        worker.task = None

    def next_work(worker: _PoolWorker, now: float):
        """Own shard first, then ready retries, then steal the biggest shard."""
        nonlocal steals
        if shards[worker.slot]:
            return shards[worker.slot].popleft(), 1
        ready = [item for item in retries if item[0] <= now]
        if ready:
            ready.sort(key=lambda item: (item[0], item[1]))
            retries.remove(ready[0])
            return ready[0][2], ready[0][3]
        victim = max(
            (s for s in range(n_workers) if shards[s]),
            key=lambda s: len(shards[s]),
            default=None,
        )
        if victim is not None:
            cell = shards[victim].pop()  # the back: least-soon-needed work
            steals += 1
            telemetry.emit(
                "sweep.pool.steal",
                thief_slot=worker.slot,
                victim_slot=victim,
                cell=cell.label,
            )
            return cell, 1
        return None, 0

    def dispatch(worker: _PoolWorker, cell, attempt: int) -> None:
        nonlocal next_task_id, seq
        next_task_id += 1
        task_id = next_task_id
        try:
            worker.conn.send(("task", task_id, fn, cell.args))
        except (BrokenPipeError, OSError):
            # Worker died before it could accept the task: replace it
            # and requeue the cell at the same attempt (no budget spent).
            replace(worker, f"worker {worker.pid} rejected task ({cell.label})")
            seq += 1
            retries.append((time.perf_counter(), seq, cell, attempt))
            return
        now = time.perf_counter()
        deadline = None if options.timeout_s is None else now + options.timeout_s
        worker.task = (cell, attempt, task_id, deadline)
        worker.task_started = now
        first_start.setdefault(cell.key, now)
        events.cell_start(cell, attempt, pid=worker.pid)

    def work_remains() -> bool:
        return (
            any(shards)
            or bool(retries)
            or any(worker.task is not None for worker in workers)
        )

    telemetry.gauges.register(POOL_GAUGE, gauge_snapshot)
    try:
        for worker in workers:
            spawn(worker)
        telemetry.emit(
            "sweep.pool.start",
            n_workers=n_workers,
            pids=[worker.pid for worker in workers],
            shard_sizes=[len(shard) for shard in shards],
            restart_budget=options.pool_restarts,
        )

        while work_remains():
            now = time.perf_counter()
            for worker in workers:
                if worker.task is None:
                    cell, attempt = next_work(worker, now)
                    if cell is not None:
                        dispatch(worker, cell, attempt)

            busy = [worker for worker in workers if worker.task is not None]
            if not busy:
                if retries:  # everything queued is still backing off
                    time.sleep(max(0.0, min(item[0] for item in retries) - now))
                continue

            # Wake on the earliest of: message, deadline, backoff expiry.
            wake_at: Optional[float] = None
            for worker in busy:
                deadline = worker.task[3]
                if deadline is not None:
                    wake_at = deadline if wake_at is None else min(wake_at, deadline)
            if retries and any(worker.task is None for worker in workers):
                soonest = min(item[0] for item in retries)
                wake_at = soonest if wake_at is None else min(wake_at, soonest)
            wait_s = None if wake_at is None else max(0.0, wake_at - time.perf_counter())
            ready = multiprocessing.connection.wait(
                [worker.conn for worker in busy], timeout=wait_s
            )

            for conn in ready:
                worker = next((w for w in busy if w.conn is conn), None)
                if worker is None or worker.task is None:
                    continue
                cell, attempt, task_id, _ = worker.task
                while True:
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-task (crash / SIGKILL): the
                        # attempt failed and the slot needs a new process.
                        dead_pid = worker.pid
                        settle(worker)
                        replace(
                            worker, f"worker {dead_pid} died mid-cell ({cell.label})"
                        )
                        fail_or_retry(
                            dead_pid, cell, attempt,
                            f"worker died without result (pid {dead_pid})",
                        )
                        break
                    kind = message[0]
                    if kind == "event":
                        if message[1] == task_id:
                            events.worker_event(cell, worker.pid, message[2])
                        if conn.poll():
                            continue
                        break
                    if message[1] != task_id:
                        continue  # stale terminal from a superseded task
                    payload = message[2]
                    elapsed = time.perf_counter() - first_start[cell.key]
                    settle(worker)
                    if kind == "result":
                        finish(
                            CellOutcome(
                                key=cell.key,
                                status="ok",
                                value=payload["value"],
                                attempts=attempt,
                                elapsed_s=elapsed,
                                worker_pid=payload.get("pid", worker.pid),
                                span_totals=payload.get("span_totals", {}),
                            ),
                        )
                    else:  # "error"
                        fail_or_retry(
                            worker.pid, cell, attempt,
                            payload["error"], payload.get("traceback"),
                        )
                    break

            # Enforce per-attempt deadlines; a timed-out worker is replaced
            # (it may be wedged beyond interruption), not merely signalled.
            now = time.perf_counter()
            for worker in workers:
                if worker.task is None:
                    continue
                cell, attempt, _, deadline = worker.task
                if deadline is not None and now >= deadline:
                    timed_out_pid = worker.pid
                    settle(worker)
                    events.timeout(cell, attempt)
                    replace(worker, f"cell {cell.label} exceeded timeout")
                    fail_or_retry(
                        timed_out_pid, cell, attempt,
                        f"cell exceeded timeout of {options.timeout_s:.3g}s "
                        f"(attempt {attempt})",
                    )

        telemetry.emit(
            "sweep.pool.end",
            n_workers=n_workers,
            restarts=restarts,
            steals=steals,
            busy_s={
                f"slot{worker.slot}": round(worker.busy_s, 6) for worker in workers
            },
            cells_per_slot={
                f"slot{worker.slot}": worker.done for worker in workers
            },
        )
    finally:
        telemetry.gauges.unregister(POOL_GAUGE)
        for worker in workers:
            if worker.conn is not None:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in workers:
            if worker.proc is not None:
                worker.proc.join(timeout=1.0)
            kill(worker)
    return outcomes
