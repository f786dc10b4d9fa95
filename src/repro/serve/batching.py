"""Micro-batching inference service (transport-agnostic core).

:class:`MicroBatchService` owns the whole serving pipeline behind the
HTTP layer:

* a **bounded request queue** — when it is full, :meth:`submit` raises
  :class:`~repro.serve.errors.QueueFullError` immediately
  (backpressure; the HTTP layer maps it to 503) instead of letting
  latency grow without bound;
* **batch threads** that batch naturally: each takes the oldest
  queued request, adds the compatible ones (same model, same ``(time,
  features)`` shape) already queued behind it, and runs the ``(batch,
  time, features)`` plan forward itself — no timer (see
  :class:`ServeOptions` for when a batch closes).  One thread runs
  in-process plans (they share scratch arenas); a worker pool gets one
  per worker;
* a :class:`~repro.serve.registry.PlanRegistry` LRU of frozen
  :class:`~repro.compile.ForwardPlan` artifacts;
* optionally a :class:`~repro.serve.workers.PlanWorkerPool` executing
  batches in crash-isolated worker processes (``workers=0`` executes
  in-process — the bit-stable oracle configuration the fault tests
  compare against);
* a **fleet scheduler** for ``/predict_stream``: every hosted
  streaming session is one row of a per-model
  :class:`~repro.core.MultiStreamSession`, and one fleet thread batches
  the queued chunks of one model (one per session, any lengths) the
  same way into a single batched fleet step — the per-step Python
  overhead amortises across every active stream instead of being paid
  per session.  Row bit-equality to a lone
  :class:`~repro.core.StreamingSession` is the engine's contract, so
  batching never changes anyone's logits.  The stream queue is
  bounded like the request queue (full → :class:`QueueFullError` →
  HTTP 503 + ``Retry-After``), and LRU eviction under
  ``max_sessions`` pressure detaches the session's fleet row
  (``stream.batch.evict``; the next chunk 404s).

Determinism contract: a request's **prediction** is independent of the
batch companions it happens to be coalesced with; logits agree to
floating-point accumulation tolerance (BLAS may select a different
GEMM kernel per batch shape — see ``docs/SERVING.md``).

All ``serve.*`` telemetry flows through the active
:class:`repro.telemetry.Run` (no-op when none is active), serialised by
an internal lock because batch threads emit concurrently.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
import uuid
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import emit as telemetry_emit
from .errors import (
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    UnknownSessionError,
)
from .registry import PlanRegistry
from .stats import ServeStats
from .workers import PlanWorkerPool

__all__ = ["MicroBatchService", "ServeOptions"]

#: Batch-thread shutdown sentinel (one per thread).
_STOP = object()


@dataclasses.dataclass(frozen=True)
class ServeOptions:
    """Tuning knobs of the micro-batching service.

    A batch closes at ``max_batch``, when no request is left queued, or
    at an incompatible one (held back to start the next) — never on a
    timer.  ``max_batch = 1`` runs every request alone: the unbatched
    baseline the serving benchmark measures speedup against.
    """

    max_batch: int = 32
    queue_size: int = 128
    request_timeout_s: float = 10.0
    batch_timeout_s: float = 30.0
    workers: int = 0
    worker_restart_limit: int = 8
    plan_capacity: int = 4
    max_sessions: int = 64
    #: Bounded queue of pending stream chunks (full → 503, like
    #: ``queue_size`` for ``/predict``).
    stream_queue_size: int = 128
    precision: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.queue_size < 1 or self.plan_capacity < 1:
            raise ValueError("max_batch, queue_size and plan_capacity must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.stream_queue_size < 1:
            raise ValueError("stream_queue_size must be >= 1")
        if self.request_timeout_s <= 0 or self.batch_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


class _Request:
    __slots__ = ("name", "series", "future", "submitted")

    def __init__(self, name: str, series: np.ndarray) -> None:
        self.name = name
        self.series = series
        self.future: Future = Future()
        self.submitted = time.perf_counter()


class _StreamEntry:
    """One hosted streaming session: a claimed row of its model's
    fleet.  ``evicted`` flips (under the service's session lock) when
    the row is detached — by an explicit close or by LRU pressure — so
    an in-flight chunk that raced the detach fails cleanly with
    :class:`UnknownSessionError` instead of stepping a row that may
    have been re-assigned."""

    __slots__ = ("name", "row", "evicted")

    def __init__(self, name: str, row: int = -1) -> None:
        self.name = name
        self.row = row
        self.evicted = False


class _StreamRequest:
    """One pending ``/predict_stream`` chunk awaiting a fleet step."""

    __slots__ = (
        "name", "session_id", "entry", "chunk", "reset", "future", "submitted",
    )

    def __init__(self, name: str, session_id: str, entry: _StreamEntry,
                 chunk: np.ndarray, reset: bool) -> None:
        self.name = name
        self.session_id = session_id
        self.entry = entry
        self.chunk = chunk
        self.reset = reset
        self.future: Future = Future()
        self.submitted = time.perf_counter()


class _Fleet:
    """One model's batched stream engine plus its scheduler state.

    ``lock`` serialises every engine mutation (steps, row open/close).
    ``dead`` collects rows of LRU-evicted sessions; eviction happens
    under the *session* lock and must never wait on a fleet mid-step,
    so it only marks the entry and parks the row here — the next
    holder of ``lock`` reclaims them via ``MicroBatchService.
    _drain_dead_rows`` (its own tiny ``dead_lock`` keeps the handoff
    race-free without ordering against any other lock)."""

    __slots__ = ("name", "engine", "lock", "dead", "dead_lock")

    def __init__(self, name: str, engine) -> None:
        self.name = name
        self.engine = engine
        self.lock = threading.Lock()
        self.dead: List[int] = []
        self.dead_lock = threading.Lock()


def _fail(requests, exc: BaseException) -> None:
    """Deliver ``exc`` to every waiter in ``requests`` still pending."""
    for request in requests:
        if not request.future.done():
            request.future.set_exception(exc)


def _stop(q: "queue.Queue", threads: List[threading.Thread], leftovers: list) -> None:
    """Queue one sentinel per thread, even into a wedged-full queue, and join.

    Pending requests are displaced into ``leftovers`` (the caller fails
    them) rather than stalling shutdown behind threads that may never
    drain them.
    """
    owed, deadline = len(threads), time.perf_counter() + 10.0
    while owed and time.perf_counter() < deadline:
        try:
            q.put_nowait(_STOP)
            owed -= 1
        except queue.Full:
            try:
                item = q.get_nowait()
            except queue.Empty:
                continue
            if item is _STOP:
                owed += 1
            else:
                leftovers.append(item)
    for thread in threads:
        thread.join(timeout=10.0)


class MicroBatchService:
    """The serving core: registry + queue + batch threads (+ worker pool)."""

    def __init__(self, options: Optional[ServeOptions] = None) -> None:
        self.options = options if options is not None else ServeOptions()
        self.stats = ServeStats()
        self._emit_lock = threading.Lock()
        self._mc_lock = threading.Lock()
        self._sessions: "OrderedDict[str, _StreamEntry]" = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._fleets: Dict[str, _Fleet] = {}
        self._fleets_lock = threading.Lock()
        self._closed = False

        self._pool: Optional[PlanWorkerPool] = (
            PlanWorkerPool(
                self.options.workers,
                restart_limit=self.options.worker_restart_limit,
                on_restart=self._on_worker_restart,
            )
            if self.options.workers > 0
            else None
        )
        self.registry = PlanRegistry(
            capacity=self.options.plan_capacity,
            precision=self.options.precision,
            on_compile=self._on_plan_compile,
            on_evict=self._on_plan_evict,
        )
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.options.queue_size)
        # In-process plans share scratch arenas -> exactly one batch
        # thread then; with a worker pool, one thread per worker keeps
        # every process busy.
        self._batch_threads = [
            threading.Thread(
                target=self._batch_loop, name=f"serve-batch-{k}", daemon=True
            )
            for k in range(max(1, self.options.workers))
        ]
        # Stream chunks batch through their own bounded queue and fleet
        # thread: a stateful chunk can never join a /predict batch, but
        # chunks of *different* sessions of the same model step together
        # as one fleet advance.
        self._stream_queue: "queue.Queue" = queue.Queue(
            maxsize=self.options.stream_queue_size
        )
        self._stream_thread = threading.Thread(
            target=self._stream_batch_loop, name="serve-fleet", daemon=True
        )
        for thread in (*self._batch_threads, self._stream_thread):
            thread.start()
        self._emit(
            "serve.start",
            max_batch=self.options.max_batch,
            queue_size=self.options.queue_size,
            workers=self.options.workers,
            precision=self.options.precision or "inherit",
        )

    # -- telemetry hooks -------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        with self._emit_lock:
            telemetry_emit(kind, **fields)

    def _on_plan_compile(self, name, plan, compile_s) -> None:
        if self._pool is not None:
            self._pool.load(name, plan)
        self._emit(
            "serve.plan_compile",
            model=name,
            compile_ms=compile_s * 1e3,
            nbytes=plan.nbytes(),
        )

    def _on_plan_evict(self, name, plan) -> None:
        if self._pool is not None:
            self._pool.unload(name)
        self._emit("serve.plan_evict", model=name)

    def _on_worker_restart(self, pid, reason) -> None:
        self.stats.record_worker_restart()
        self._emit("serve.worker_restart", pid=pid, reason=reason)

    # -- model hosting ---------------------------------------------------

    def register(self, name: str, model, warm: bool = True) -> None:
        """Host ``model`` under ``name``; ``warm`` pre-compiles its plan."""
        self.registry.register(name, model)
        if warm:
            self.registry.plan(name)

    # -- request path ----------------------------------------------------

    def submit(self, name: str, series) -> Future:
        """Validate and enqueue one request; resolves to a result dict.

        Raises :class:`UnknownModelError` / :class:`PlanInputError`
        synchronously (the request never reaches the queue) and
        :class:`QueueFullError` when the bounded queue rejects it.
        """
        if self._closed:
            raise ServeError("service is closed")
        plan, hit = self.registry.plan(name)
        self.stats.record_plan(hit)
        request = _Request(name, plan.coerce_series(series))
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.stats.record_request(0.0, status="queue_full")
            self._emit("serve.queue_full", model=name)
            raise QueueFullError(
                f"request queue full ({self.options.queue_size} pending)"
            ) from None
        return request.future

    def predict(self, name: str, series, timeout: Optional[float] = None) -> Dict:
        """Blocking request: submit, await the micro-batched result.

        Returns ``{model, prediction, logits, latency_ms, batch_size}``.
        """
        budget = timeout if timeout is not None else self.options.request_timeout_s
        t0 = time.perf_counter()
        future = self.submit(name, series)
        try:
            outcome = future.result(timeout=budget)
        except FutureTimeoutError:
            future.cancel()
            self.stats.record_request(0.0, status="timeout")
            self._emit("serve.timeout", model=name)
            raise RequestTimeoutError(f"no result within {budget}s") from None
        except Exception:
            self.stats.record_request(0.0, status="error")
            raise
        latency = time.perf_counter() - t0
        self.stats.record_request(latency, status="ok")
        self._emit(
            "serve.request",
            model=name,
            status="ok",
            latency_ms=latency * 1e3,
            batch_size=outcome["batch_size"],
            wait_ms=outcome["wait_s"] * 1e3,
            exec_ms=outcome["exec_s"] * 1e3,
        )
        logits = outcome["logits"]
        return {
            "model": name,
            "prediction": int(np.argmax(logits)),
            "logits": [float(v) for v in logits],
            "latency_ms": latency * 1e3,
            "batch_size": outcome["batch_size"],
        }

    def predict_mc(
        self,
        name: str,
        series,
        draws: int = 32,
        spread: float = 0.10,
        seed: int = 0,
    ) -> Dict:
        """Monte-Carlo prediction with device-variation confidence.

        Runs the *live* model (not the frozen plan) under a fresh
        ±``spread`` :class:`~repro.circuits.UniformVariation` sampler
        with ``draws`` batched hardware instances; the confidence is the
        fraction of instances voting for the majority class.
        Serialised by a lock (the sampler swap mutates the model).
        """
        from ..autograd import no_grad
        from ..circuits import UniformVariation, VariationSampler

        if not 1 <= draws <= 1024:
            raise ValueError("draws must be in [1, 1024]")
        if not 0 <= spread < 1:
            raise ValueError("spread must be in [0, 1)")
        model = self.registry.model(name)
        plan, _ = self.registry.plan(name)
        arr = plan.coerce_series(series)
        t0 = time.perf_counter()
        sampler = VariationSampler(
            model=UniformVariation(spread), rng=np.random.default_rng(seed)
        )
        with self._mc_lock:
            original = model.sampler
            model.set_sampler(sampler)
            try:
                with no_grad(), sampler.batched(draws):
                    logits = model(arr[None]).data[:, 0, :]
            finally:
                model.set_sampler(original)
        votes = np.bincount(np.argmax(logits, axis=-1), minlength=model.n_classes)
        prediction = int(np.argmax(votes))
        latency = time.perf_counter() - t0
        self.stats.record_request(latency, status="ok")
        self._emit(
            "serve.request",
            model=name,
            status="ok",
            latency_ms=latency * 1e3,
            batch_size=draws,
            mc=True,
        )
        return {
            "model": name,
            "prediction": prediction,
            "confidence": float(votes[prediction] / draws),
            "class_votes": [int(v) for v in votes],
            "mean_logits": [float(v) for v in logits.mean(axis=0)],
            "draws": draws,
            "spread": spread,
            "latency_ms": latency * 1e3,
        }

    # -- streaming fleet --------------------------------------------------

    def _get_fleet(self, name: str, plan) -> _Fleet:
        """The per-model fleet, created on first stream open."""
        from ..core.streaming import MultiStreamSession

        with self._fleets_lock:
            fleet = self._fleets.get(name)
            if fleet is None:
                fleet = _Fleet(
                    name,
                    MultiStreamSession(plan, capacity=self.options.max_sessions),
                )
                self._fleets[name] = fleet
            return fleet

    def _drain_dead_rows(self, fleet: _Fleet) -> None:
        """Reclaim LRU-detached rows.  Caller holds ``fleet.lock``."""
        with fleet.dead_lock:
            dead, fleet.dead = fleet.dead, []
        for row in dead:
            fleet.engine.close(row)

    def _park_dead_row(self, session_id: str, entry: _StreamEntry) -> None:
        """Hand an evicted session's row to its fleet for reclamation."""
        if entry.row < 0:
            return  # still opening; its opener sees ``evicted`` and rolls back
        with self._fleets_lock:
            fleet = self._fleets.get(entry.name)
        if fleet is None:  # pragma: no cover — fleet outlives its sessions
            return
        with fleet.dead_lock:
            fleet.dead.append(entry.row)
        self.stats.record_stream_eviction()
        self._emit(
            "stream.batch.evict",
            model=entry.name,
            session=session_id,
            row=entry.row,
            reason="lru",
        )

    def _open_stream(self, name: str, plan) -> Tuple[str, _StreamEntry]:
        """Claim a fleet row for a new session; LRU-evict on pressure."""
        fleet = self._get_fleet(name, plan)
        session_id = uuid.uuid4().hex
        entry = _StreamEntry(name)
        evicted: List[Tuple[str, _StreamEntry]] = []
        with self._sessions_lock:
            self._sessions[session_id] = entry
            while len(self._sessions) > self.options.max_sessions:
                old_id, old = self._sessions.popitem(last=False)
                old.evicted = True
                evicted.append((old_id, old))
        for old_id, old in evicted:
            self._park_dead_row(old_id, old)
        with fleet.lock:
            self._drain_dead_rows(fleet)
            row = fleet.engine.open()
            entry.row = row
            if entry.evicted:
                # Evicted between map insert and row claim (pathological
                # churn): roll the row back and report like any eviction.
                fleet.engine.close(row)
                raise UnknownSessionError(
                    f"session {session_id} was evicted before its first chunk"
                )
            occupancy = fleet.engine.occupancy
        self._emit(
            "stream.batch.open",
            model=name,
            session=session_id,
            row=row,
            occupancy=occupancy,
            capacity=fleet.engine.capacity,
        )
        return session_id, entry

    def predict_stream(
        self,
        name: str,
        chunk=None,
        session_id: Optional[str] = None,
        reset: bool = False,
        close: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Stateful streaming prediction over a hosted fleet row.

        Without ``session_id`` the model's fleet (a
        :class:`~repro.core.MultiStreamSession` over the registry's
        frozen plan) assigns the new session a state row and its id is
        returned for the caller to thread through subsequent chunks.
        State carries across calls, so feeding a series chunk-by-chunk
        is bit-equal to one shot, and — by the fleet-invariance
        contract of :mod:`repro.core.streaming` — bit-equal no matter
        which other sessions' chunks were coalesced into the same
        batched step.  Sessions are LRU-bounded by
        ``ServeOptions.max_sessions`` (eviction detaches the row; the
        next chunk 404s); ``reset=True`` discharges the filter state
        before processing, ``close=True`` releases the row (``chunk``
        may then be omitted).

        Chunks go through the bounded stream queue (full →
        :class:`QueueFullError`, HTTP 503 + ``Retry-After``) to the
        fleet thread, which steps the queued chunks of one model
        together — at most one chunk per session in a step, so
        per-session FIFO order is preserved.
        """
        if self._closed:
            raise ServeError("service is closed")
        if close:
            if session_id is None:
                raise ValueError('closing a stream requires a "session" id')
            with self._sessions_lock:
                entry = self._sessions.pop(session_id, None)
                if entry is not None:
                    entry.evicted = True
            if entry is None:
                raise UnknownSessionError(f"no such session: {session_id}")
            with self._fleets_lock:
                fleet = self._fleets.get(entry.name)
            steps_seen = 0
            if fleet is not None and entry.row >= 0:
                with fleet.lock:
                    self._drain_dead_rows(fleet)
                    steps_seen = fleet.engine.steps_seen(entry.row)
                    fleet.engine.close(entry.row)
            return {
                "model": entry.name,
                "session": session_id,
                "closed": True,
                "steps_seen": steps_seen,
            }
        if chunk is None:
            raise ValueError('streaming request requires a "series" chunk')
        plan, hit = self.registry.plan(name)
        self.stats.record_plan(hit)
        series = plan.coerce_series(chunk)
        opened = session_id is None
        if opened:
            session_id, entry = self._open_stream(name, plan)
        else:
            with self._sessions_lock:
                entry = self._sessions.get(session_id)
                if entry is not None:
                    self._sessions.move_to_end(session_id)
            if entry is None:
                raise UnknownSessionError(f"no such session: {session_id}")
            if entry.name != name:
                raise ValueError(
                    f"session {session_id} belongs to model {entry.name!r}, "
                    f"not {name!r}"
                )
        request = _StreamRequest(name, session_id, entry, series, reset)
        t0 = time.perf_counter()
        try:
            self._stream_queue.put_nowait(request)
        except queue.Full:
            if opened:
                # Roll the never-fed session back so a rejected open
                # does not leak a fleet row.
                with self._sessions_lock:
                    self._sessions.pop(session_id, None)
                    entry.evicted = True
                self._park_dead_row(session_id, entry)
            self.stats.record_request(0.0, status="queue_full")
            self._emit("serve.queue_full", model=name, stream=True)
            raise QueueFullError(
                f"stream queue full ({self.options.stream_queue_size} pending)"
            ) from None
        budget = timeout if timeout is not None else self.options.request_timeout_s
        try:
            outcome = request.future.result(timeout=budget)
        except FutureTimeoutError:
            request.future.cancel()
            self.stats.record_request(0.0, status="timeout")
            self._emit("serve.timeout", model=name, stream=True)
            raise RequestTimeoutError(f"no result within {budget}s") from None
        except Exception:
            self.stats.record_request(0.0, status="error")
            raise
        latency = time.perf_counter() - t0
        self.stats.record_request(latency, status="ok")
        logits = outcome["logits"]
        self._emit(
            "serve.request",
            model=name,
            status="ok",
            latency_ms=latency * 1e3,
            batch_size=int(logits.shape[0]),
            wait_ms=outcome["wait_s"] * 1e3,
            exec_ms=outcome["exec_s"] * 1e3,
            stream=True,
        )
        return {
            "model": name,
            "session": session_id,
            "prediction": int(np.argmax(logits[-1])),
            "logits": [float(v) for v in logits[-1]],
            "steps_seen": outcome["steps_seen"],
            "chunk_steps": int(logits.shape[0]),
            "batch_rows": outcome["batch_rows"],
            "latency_ms": latency * 1e3,
        }

    def _stream_batch_loop(self) -> None:
        """The fleet thread: step the queued chunks of one model together.

        Takes the oldest chunk and adds, without waiting, every queued
        chunk of the same model whose session is not already in the
        batch.  Held-back chunks (other model, or a second chunk of a
        session already in the batch) stay in arrival order in ``held``
        and seed subsequent batches — per-session FIFO is preserved
        because ``held`` is always scanned before the queue.
        """
        cap = self.options.max_sessions
        held: deque = deque()
        stop = False
        while not stop:
            item = held.popleft() if held else self._stream_queue.get()
            if item is _STOP:
                break
            batch, sids, model = [item], {item.session_id}, item.name
            still: deque = deque()
            for nxt in held:
                if len(batch) < cap and nxt.name == model and nxt.session_id not in sids:
                    batch.append(nxt)
                    sids.add(nxt.session_id)
                else:
                    still.append(nxt)
            held = still
            while len(batch) < cap:
                try:
                    nxt = self._stream_queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                if nxt.name == model and nxt.session_id not in sids:
                    batch.append(nxt)
                    sids.add(nxt.session_id)
                else:
                    held.append(nxt)
            live = [r for r in batch if r.future.set_running_or_notify_cancel()]
            if live:
                try:
                    self._run_stream_batch(live)
                except Exception as exc:  # noqa: BLE001 — a fault outside the step
                    _fail(live, exc)
        _fail(held, ServeError("service closed"))

    def _run_stream_batch(self, live: List[_StreamRequest]) -> None:
        """Advance one model's fleet by one batched ragged step."""
        model = live[0].name
        t0 = time.perf_counter()
        with self._fleets_lock:
            fleet = self._fleets.get(model)
        if fleet is None:  # pragma: no cover — opens precede chunks
            _fail(live, UnknownSessionError(f"no fleet for model {model!r}"))
            return
        with fleet.lock:
            self._drain_dead_rows(fleet)
            ready = []
            for r in live:
                # The evicted flag flips before the row is released, so
                # a chunk that raced a close/eviction dies here instead
                # of stepping a row that may belong to someone else.
                if r.entry.evicted:
                    r.future.set_exception(
                        UnknownSessionError(f"no such session: {r.session_id}")
                    )
                else:
                    ready.append(r)
            if not ready:
                return
            try:
                for r in ready:
                    if r.reset:
                        fleet.engine.reset(r.entry.row)
                results = fleet.engine.process_many(
                    {r.entry.row: r.chunk for r in ready}
                )
                steps_seen = {
                    r.entry.row: fleet.engine.steps_seen(r.entry.row)
                    for r in ready
                }
                occupancy = fleet.engine.occupancy
            except BaseException as exc:  # noqa: BLE001 — delivered to waiters
                _fail(ready, exc)
                self._emit(
                    "stream.batch.step",
                    model=model,
                    rows=len(ready),
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
        exec_s = time.perf_counter() - t0
        waits = [t0 - r.submitted for r in ready]
        steps = max(r.chunk.shape[0] for r in ready)
        self.stats.record_stream_batch(len(ready), steps, occupancy, waits, exec_s)
        self._emit(
            "stream.batch.step",
            model=model,
            rows=len(ready),
            steps=steps,
            occupancy=occupancy,
            capacity=fleet.engine.capacity,
            wait_ms=waits[0] * 1e3,
            exec_ms=exec_s * 1e3,
        )
        for r, wait in zip(ready, waits):
            if not r.future.done():
                r.future.set_result(
                    {
                        "logits": results[r.entry.row],
                        "steps_seen": steps_seen[r.entry.row],
                        "batch_rows": len(ready),
                        "wait_s": wait,
                        "exec_s": exec_s,
                    }
                )

    # -- batch threads ---------------------------------------------------

    def _batch_loop(self) -> None:
        """One batch thread: take the oldest request, add the compatible
        requests already queued behind it (no waiting), run the batch.

        An incompatible request (other model or shape) closes the batch
        and is held back to start this thread's next one.
        """
        max_batch = self.options.max_batch
        held = None
        while True:
            item = held if held is not None else self._queue.get()
            held = None
            if item is _STOP:
                break
            batch = [item]
            while len(batch) < max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP or not (
                    nxt.name == item.name and nxt.series.shape == item.series.shape
                ):
                    held = nxt
                    break
                batch.append(nxt)
            depth = self._queue.qsize()
            live = [r for r in batch if r.future.set_running_or_notify_cancel()]
            if live:
                try:
                    self._run_batch(live, depth)
                except Exception as exc:  # noqa: BLE001 — a fault outside the plan
                    _fail(live, exc)

    def _run_batch(self, live: List[_Request], depth: int) -> None:
        """Run one batch's plan forward and resolve its futures."""
        name = live[0].name
        t0 = time.perf_counter()
        try:
            plan, _ = self.registry.plan(name)
            x = np.stack([r.series for r in live])
            if self._pool is not None:
                logits = self._pool.execute(
                    name, x, timeout=self.options.batch_timeout_s
                )
            else:
                logits = plan(x)
        except BaseException as exc:  # noqa: BLE001 — delivered to every waiter
            _fail(live, exc)
            self._emit(
                "serve.batch",
                model=name,
                size=len(live),
                queue_depth=depth,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        exec_s = time.perf_counter() - t0
        waits = [t0 - r.submitted for r in live]
        self.stats.record_batch(len(live), depth, waits, exec_s)
        self._emit(
            "serve.batch",
            model=name,
            size=len(live),
            queue_depth=depth,
            wait_ms=waits[0] * 1e3,
            exec_ms=exec_s * 1e3,
        )
        for i, request in enumerate(live):
            if not request.future.done():
                request.future.set_result(
                    {
                        "logits": np.array(logits[i]),
                        "batch_size": len(live),
                        "wait_s": waits[i],
                        "exec_s": exec_s,
                    }
                )

    # -- lifecycle -------------------------------------------------------

    def emit_stats(self) -> Dict:
        """Emit (and return) a ``serve.stats`` snapshot."""
        snapshot = self.stats.snapshot()
        self._emit("serve.stats", **snapshot)
        return snapshot

    def close(self) -> None:
        """Drain, stop the batch threads and the pool, emit final stats."""
        if self._closed:
            return
        self._closed = True
        leftovers: list = []
        _stop(self._queue, self._batch_threads, leftovers)
        _stop(self._stream_queue, [self._stream_thread], leftovers)
        # Fail anything the threads never picked up.
        for q in (self._queue, self._stream_queue):
            while True:
                try:
                    leftovers.append(q.get_nowait())
                except queue.Empty:
                    break
        _fail((r for r in leftovers if r is not _STOP), ServeError("service closed"))
        if self._pool is not None:
            self._pool.close()
        with self._sessions_lock:
            self._sessions.clear()
        with self._fleets_lock:
            self._fleets.clear()
        snapshot = self.stats.snapshot()
        self._emit("serve.stats", **snapshot)
        self._emit("serve.end", **snapshot)

    def __enter__(self) -> "MicroBatchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MicroBatchService(models={len(self.registry)}, "
            f"workers={self.options.workers}, closed={self._closed})"
        )
