"""Process-pool sweep orchestrator with a bit-equal serial oracle.

Experiment campaigns (Table I, Fig. 7) are grids of *independent*
cells — one ``(dataset, model, seed)`` training+evaluation unit each.
:func:`run_cells` executes such a grid under one of three executors:

* ``"serial"`` — every cell in deterministic submission order, in this
  process.  This is the **oracle**: both process executors must
  produce bit-identical values.
* ``"parallel"`` — cells sharded across up to ``max_workers`` worker
  *processes* (one short-lived process per cell, so a wedged or killed
  cell never poisons a pool), with per-task timeouts, bounded
  retry-with-backoff and graceful degradation: a cell that still fails
  after its retries yields a ``failed`` :class:`CellOutcome` instead of
  aborting the sweep.
* ``"pool"`` — persistent workers with a task queue and work-stealing
  (:mod:`repro.parallel.pool`): interpreter/import startup is paid
  once per worker instead of once per cell, dead workers are replaced
  against a bounded restart budget, and the same timeout/retry
  semantics apply.

Bit-equality holds because every cell is a pure function of its
arguments: all randomness inside a cell derives from the cell's own
seeds via per-draw ``SeedSequence`` child streams (the Monte-Carlo
engine's pattern), never from shared mutable state, so values are
independent of scheduling, interleaving and process boundaries.

Caching and resume
------------------
With ``cache_dir`` set, completed cells are persisted through one of
two storage backends behind a common interface (see
:func:`repro.parallel.store.open_storage`): the fingerprinted on-disk
:class:`~repro.parallel.cache.SweepCache` (``store="files"``, one JSON
file per cell) or the SQLite :class:`~repro.parallel.store.CampaignStore`
(``store="sqlite"``, queryable via ``python -m repro query``).  Both
are keyed by the same protocol fingerprint (config + cell function
identity), so a sweep killed mid-run — including SIGKILL — resumes by
rerunning the same command: cached cells short-circuit as
``cached=True`` outcomes and only unfinished cells recompute, on
either backend.  The storage handle is closed in ``finally`` even when
an executor fails to start or breaks mid-campaign (mirroring the
scan-backend override restore in ``core/evaluation.py``).

Telemetry
---------
When a :class:`repro.telemetry.Run` is active the orchestrator emits
``sweep.*`` events (see ``docs/OBSERVABILITY.md``): ``sweep.start`` /
``sweep.end`` around the campaign, per-cell ``sweep.cell_start`` /
``sweep.cell_end``, ``sweep.retry`` / ``sweep.timeout`` for fault
handling, and ``sweep.worker`` wrappers around events the workers
stream back (epoch losses, evaluations), so ``python -m repro runs
tail`` watches a live sweep.  Per-cell wall-clock lands in the
``sweep.cell`` span; worker span totals merge in under
``sweep.worker.<name>``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from .store import STORE_BACKENDS, open_storage

__all__ = [
    "EXECUTORS",
    "SweepOptions",
    "SweepCell",
    "CellOutcome",
    "run_cells",
]

#: Valid sweep executors ("serial" is the bit-equal oracle).
EXECUTORS = ("serial", "parallel", "pool")


@dataclass(frozen=True)
class SweepOptions:
    """Execution policy of one sweep campaign.

    Parameters
    ----------
    executor:
        ``"serial"`` (in-process oracle), ``"parallel"`` (one
        short-lived process per cell) or ``"pool"`` (persistent
        work-stealing workers).
    max_workers:
        Maximum simultaneously live worker processes (process
        executors only).
    timeout_s:
        Per-attempt wall-clock budget of one cell; a worker exceeding
        it is terminated and the attempt counts as failed.  ``None``
        disables the limit.  Enforced by the parallel and pool
        executors (the pool replaces the timed-out worker); the serial
        oracle cannot preempt its own process.
    retries:
        Extra attempts after the first failure (crash, exception or
        timeout); ``retries=2`` means up to 3 attempts total.
    backoff_s:
        Base of the linear retry backoff: attempt *n* (1-based failure
        count) waits ``backoff_s * n`` before relaunching.
    cache_dir:
        Root of the campaign storage; ``None`` disables caching.
    store:
        Storage backend under ``cache_dir``: ``"files"`` (one JSON file
        per cell) or ``"sqlite"`` (the queryable campaign store).  Both
        resume each other's fingerprints bit-equally.
    pool_restarts:
        Worker replacements the ``"pool"`` executor tolerates per
        campaign before raising
        :class:`~repro.parallel.pool.PoolBrokenError`.
    forward_worker_events:
        Stream telemetry events from workers back into the parent run
        (wrapped as ``sweep.worker``); disable to keep only the
        orchestrator's own ``sweep.*`` events.
    """

    executor: str = "serial"
    max_workers: int = 2
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.1
    cache_dir: Optional[str] = None
    store: str = "files"
    pool_restarts: int = 2
    forward_worker_events: bool = True

    def __post_init__(self) -> None:
        """Validate executor name, store backend and numeric ranges."""
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.store not in STORE_BACKENDS:
            raise ValueError(f"store must be one of {STORE_BACKENDS}, got {self.store!r}")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.pool_restarts < 0:
            raise ValueError("pool_restarts must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a stable key plus picklable call args."""

    key: Tuple[str, ...]
    args: Tuple = ()

    def __post_init__(self) -> None:
        """Normalise the key to a tuple of strings."""
        object.__setattr__(self, "key", tuple(str(part) for part in self.key))

    @property
    def label(self) -> str:
        """Human-readable ``"/"``-joined key used in telemetry events."""
        return "/".join(self.key)


@dataclass
class CellOutcome:
    """Terminal state of one cell after caching, retries and fallback."""

    key: Tuple[str, ...]
    status: str  # "ok" | "failed"
    value: Optional[Dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    cached: bool = False
    worker_pid: Optional[int] = None
    span_totals: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the cell produced a value (fresh or cached)."""
        return self.status == "ok"


class _SweepTelemetry:
    """Event/span emission helper shared by both executors."""

    def __init__(self, options: SweepOptions, forward: bool) -> None:
        self.options = options
        self.forward = forward

    def cell_start(self, cell: SweepCell, attempt: int, pid: Optional[int]) -> None:
        telemetry.emit(
            "sweep.cell_start", cell=cell.label, attempt=attempt, worker_pid=pid
        )

    def retry(self, cell: SweepCell, attempt: int, error: str, backoff_s: float) -> None:
        telemetry.emit(
            "sweep.retry", cell=cell.label, attempt=attempt, error=error,
            backoff_s=backoff_s,
        )

    def timeout(self, cell: SweepCell, attempt: int) -> None:
        telemetry.emit(
            "sweep.timeout",
            cell=cell.label,
            attempt=attempt,
            timeout_s=self.options.timeout_s,
        )

    def worker_event(self, cell: SweepCell, pid: Optional[int], payload: Dict) -> None:
        if self.forward:
            telemetry.emit(
                "sweep.worker",
                cell=cell.label,
                worker_pid=pid,
                worker_kind=payload.get("kind"),
                fields=payload.get("fields", {}),
            )

    def cell_end(self, outcome: CellOutcome) -> None:
        telemetry.emit(
            "sweep.cell_end",
            cell="/".join(outcome.key),
            status=outcome.status,
            attempts=outcome.attempts,
            cached=outcome.cached,
            elapsed_s=outcome.elapsed_s,
            values=outcome.value,
            error=outcome.error,
        )
        if not outcome.cached:
            telemetry.record_span("sweep.cell", outcome.elapsed_s)
        for name, entry in (outcome.span_totals or {}).items():
            telemetry.record_span(f"sweep.worker.{name}", entry.get("seconds", 0.0))


def _check_cells(cells: Sequence[SweepCell]) -> None:
    seen = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate sweep cell key: {cell.key}")
        seen.add(cell.key)


def run_cells(
    fn: Callable[..., Dict],
    cells: Sequence[SweepCell],
    options: Optional[SweepOptions] = None,
    fingerprint: Optional[Dict] = None,
) -> Dict[Tuple[str, ...], CellOutcome]:
    """Execute every cell under ``options``; never raises per-cell errors.

    Parameters
    ----------
    fn:
        Module-level (picklable) cell function; ``fn(*cell.args)`` must
        return a JSON-serialisable dict.  Exceptions become ``failed``
        outcomes after the retry budget is spent.
    cells:
        The grid; keys must be unique.
    options:
        Execution policy (defaults to the serial oracle).
    fingerprint:
        Extra JSON-serialisable protocol identity mixed into the cache
        fingerprint (e.g. the experiment config); the cell function's
        module/qualname is always included.

    Returns
    -------
    dict
        ``{cell.key: CellOutcome}`` for every submitted cell, in
        submission order.
    """
    options = options or SweepOptions()
    cells = list(cells)
    _check_cells(cells)

    cache = None
    if options.cache_dir is not None:
        protocol = {
            "fn": f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}",
            "fingerprint": fingerprint or {},
        }
        cache = open_storage(options.cache_dir, protocol, options.store)

    events = _SweepTelemetry(options, options.forward_worker_events)
    t0 = time.perf_counter()
    outcomes: Dict[Tuple[str, ...], CellOutcome] = {}

    # The storage handle must be released however the campaign ends —
    # normal completion, a broken pool, or an executor that failed to
    # start (same try/finally discipline as the scan-backend override
    # in core/evaluation.py).
    try:
        # Cache hits short-circuit identically under every executor.
        to_run: List[SweepCell] = []
        for cell in cells:
            hit = cache.load(cell.key) if cache is not None else None
            if hit is not None:
                outcomes[cell.key] = CellOutcome(
                    key=cell.key, status="ok", value=hit, attempts=0, cached=True
                )
            else:
                to_run.append(cell)

        telemetry.emit(
            "sweep.start",
            executor=options.executor,
            n_cells=len(cells),
            n_cached=len(cells) - len(to_run),
            max_workers=(
                options.max_workers if options.executor in ("parallel", "pool") else 1
            ),
            timeout_s=options.timeout_s,
            retries=options.retries,
            cache_dir=options.cache_dir,
            store=options.store,
            cache_fingerprint=cache.fingerprint if cache is not None else None,
        )
        for cell in cells:
            if cell.key in outcomes:
                events.cell_end(outcomes[cell.key])

        def persist(outcome: CellOutcome) -> None:
            """Store an ok cell the moment it completes.

            Called by every executor as each outcome lands (not batched
            at the end of the sweep), so a campaign killed at any point
            — including SIGKILL of the orchestrator itself — resumes
            with every finished cell already on disk.
            """
            if cache is not None and outcome.ok and not outcome.cached:
                cache.store(
                    outcome.key,
                    outcome.value,
                    meta={
                        "attempts": outcome.attempts,
                        "elapsed_s": outcome.elapsed_s,
                        "worker_pid": outcome.worker_pid,
                    },
                )

        if options.executor == "serial":
            computed = _run_serial(fn, to_run, options, events, persist)
        elif options.executor == "pool":
            from .pool import run_pool

            computed = run_pool(fn, to_run, options, events, persist)
        else:
            computed = _run_parallel(fn, to_run, options, events, persist)

        outcomes.update(computed)
    finally:
        if cache is not None:
            cache.close()

    ordered = {cell.key: outcomes[cell.key] for cell in cells}
    n_ok = sum(1 for o in ordered.values() if o.ok)
    telemetry.emit(
        "sweep.end",
        n_cells=len(cells),
        n_ok=n_ok,
        n_failed=len(cells) - n_ok,
        n_cached=sum(1 for o in ordered.values() if o.cached),
        elapsed_s=time.perf_counter() - t0,
    )
    return ordered


# -- serial oracle -----------------------------------------------------------


def _run_serial(
    fn: Callable[..., Dict],
    cells: Sequence[SweepCell],
    options: SweepOptions,
    events: _SweepTelemetry,
    persist: Callable[[CellOutcome], None],
) -> Dict[Tuple[str, ...], CellOutcome]:
    """In-process executor: deterministic order, same retry semantics."""
    outcomes: Dict[Tuple[str, ...], CellOutcome] = {}
    for cell in cells:
        start = time.perf_counter()
        attempt = 0
        outcome: Optional[CellOutcome] = None
        while attempt <= options.retries:
            attempt += 1
            events.cell_start(cell, attempt, pid=None)
            try:
                value = fn(*cell.args)
            except Exception as exc:  # noqa: BLE001 — degrade, don't abort
                error = f"{type(exc).__name__}: {exc}"
                if attempt <= options.retries:
                    backoff = options.backoff_s * attempt
                    events.retry(cell, attempt, error, backoff)
                    if backoff:
                        time.sleep(backoff)
                    continue
                import traceback as _tb

                outcome = CellOutcome(
                    key=cell.key,
                    status="failed",
                    error=error,
                    traceback=_tb.format_exc(limit=30),
                    attempts=attempt,
                    elapsed_s=time.perf_counter() - start,
                )
                break
            outcome = CellOutcome(
                key=cell.key,
                status="ok",
                value=value,
                attempts=attempt,
                elapsed_s=time.perf_counter() - start,
            )
            break
        assert outcome is not None
        outcomes[cell.key] = outcome
        persist(outcome)
        events.cell_end(outcome)
    return outcomes


# -- parallel executor -------------------------------------------------------


class _Task:
    """One live worker process computing one cell attempt."""

    __slots__ = ("cell", "attempt", "proc", "conn", "started", "deadline", "pid")

    def __init__(self, cell: SweepCell, attempt: int, proc, conn, timeout_s) -> None:
        self.cell = cell
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = time.perf_counter()
        self.deadline = None if timeout_s is None else self.started + timeout_s
        self.pid = proc.pid


def _terminate(task: _Task) -> None:
    """Forcefully stop a task's worker process and release its pipe."""
    try:
        if task.proc.is_alive():
            task.proc.terminate()
            task.proc.join(timeout=1.0)
            if task.proc.is_alive():
                task.proc.kill()
                task.proc.join(timeout=1.0)
    finally:
        try:
            task.conn.close()
        except OSError:
            pass


def _run_parallel(
    fn: Callable[..., Dict],
    cells: Sequence[SweepCell],
    options: SweepOptions,
    events: _SweepTelemetry,
    persist: Callable[[CellOutcome], None],
) -> Dict[Tuple[str, ...], CellOutcome]:
    """Shard cells across worker processes with timeouts and retries."""
    from .worker import worker_main

    ctx = multiprocessing.get_context()
    outcomes: Dict[Tuple[str, ...], CellOutcome] = {}
    #: (ready_at, submission_index, cell, next_attempt, first_started)
    pending: List[Tuple[float, int, SweepCell, int]] = [
        (0.0, i, cell, 1) for i, cell in enumerate(cells)
    ]
    seq = len(cells)  # monotonically increasing sort tiebreaker
    live: Dict[object, _Task] = {}
    first_start: Dict[Tuple[str, ...], float] = {}

    def launch(cell: SweepCell, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, fn, cell.args, options.forward_worker_events),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        task = _Task(cell, attempt, proc, parent_conn, options.timeout_s)
        live[parent_conn] = task
        first_start.setdefault(cell.key, task.started)
        events.cell_start(cell, attempt, pid=proc.pid)

    def finish(task: _Task, outcome: CellOutcome) -> None:
        outcomes[task.cell.key] = outcome
        persist(outcome)
        events.cell_end(outcome)

    def fail_or_retry(task: _Task, error: str, tb: Optional[str] = None) -> None:
        nonlocal seq
        if task.attempt <= options.retries:
            backoff = options.backoff_s * task.attempt
            events.retry(task.cell, task.attempt, error, backoff)
            seq += 1  # retries queue after every fresh cell, in failure order
            pending.append(
                (time.perf_counter() + backoff, seq, task.cell, task.attempt + 1)
            )
        else:
            finish(
                task,
                CellOutcome(
                    key=task.cell.key,
                    status="failed",
                    error=error,
                    traceback=tb,
                    attempts=task.attempt,
                    elapsed_s=time.perf_counter() - first_start[task.cell.key],
                    worker_pid=task.pid,
                ),
            )

    try:
        while pending or live:
            now = time.perf_counter()
            # Fill free slots with launchable (ready_at <= now) cells.
            pending.sort(key=lambda item: (item[0], item[1]))
            while pending and len(live) < options.max_workers and pending[0][0] <= now:
                _, _, cell, attempt = pending.pop(0)
                launch(cell, attempt)

            if not live:
                if pending:  # every queued retry is still backing off
                    time.sleep(max(0.0, pending[0][0] - now))
                continue

            # Wake on the earliest of: message ready, deadline, backoff expiry.
            wake_at: Optional[float] = None
            for task in live.values():
                if task.deadline is not None:
                    wake_at = task.deadline if wake_at is None else min(wake_at, task.deadline)
            if pending and len(live) < options.max_workers:
                wake_at = pending[0][0] if wake_at is None else min(wake_at, pending[0][0])
            wait_s = None if wake_at is None else max(0.0, wake_at - time.perf_counter())
            ready = multiprocessing.connection.wait(list(live), timeout=wait_s)

            for conn in ready:
                task = live.get(conn)
                if task is None:
                    continue
                # Drain every queued message (workers stream telemetry
                # ahead of their terminal result/error message).
                while True:
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        # Worker died without a terminal message (crash/kill).
                        del live[conn]
                        task.proc.join(timeout=1.0)
                        exitcode = task.proc.exitcode
                        _terminate(task)
                        fail_or_retry(
                            task, f"worker died without result (exitcode {exitcode})"
                        )
                        break
                    if kind == "event":
                        events.worker_event(task.cell, task.pid, payload)
                        if conn.poll():
                            continue
                        break
                    if kind == "result":
                        del live[conn]
                        task.proc.join(timeout=5.0)
                        _terminate(task)
                        finish(
                            task,
                            CellOutcome(
                                key=task.cell.key,
                                status="ok",
                                value=payload["value"],
                                attempts=task.attempt,
                                elapsed_s=time.perf_counter()
                                - first_start[task.cell.key],
                                worker_pid=payload.get("pid", task.pid),
                                span_totals=payload.get("span_totals", {}),
                            ),
                        )
                    else:  # "error"
                        del live[conn]
                        task.proc.join(timeout=5.0)
                        _terminate(task)
                        fail_or_retry(task, payload["error"], payload.get("traceback"))
                    break

            # Enforce per-attempt deadlines on whoever is still running.
            now = time.perf_counter()
            for conn, task in list(live.items()):
                if task.deadline is not None and now >= task.deadline:
                    del live[conn]
                    _terminate(task)
                    events.timeout(task.cell, task.attempt)
                    fail_or_retry(
                        task,
                        f"cell exceeded timeout of {options.timeout_s:.3g}s "
                        f"(attempt {task.attempt})",
                    )
    finally:
        for task in list(live.values()):
            _terminate(task)
        live.clear()
    return outcomes
