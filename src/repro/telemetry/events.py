"""Event schema of the structured run telemetry (``events.jsonl``).

Every telemetry event is one JSON object per line in a run directory's
append-only ``events.jsonl``.  The schema is versioned: every event
carries ``"v": SCHEMA_VERSION`` and two clocks,

* ``t`` — seconds since the run started, measured on the *monotonic*
  clock (ordering/duration authority, immune to NTP steps);
* ``wall`` — unix wall time (cross-run correlation only).

plus a free-form ``kind`` discriminator.  The kinds emitted by the
library are listed in :data:`EVENT_KINDS`; consumers must ignore
unknown kinds (the schema is open — new kinds are a *minor* change,
renaming/removing required fields of an existing kind bumps
:data:`SCHEMA_VERSION`).

Well-known kinds
----------------
``fit_start`` / ``fit_end``
    Emitted by :meth:`repro.core.Trainer.fit` around the epoch loop;
    carry the training protocol (config dict, model class, backends)
    and the final summary (``epochs_run``, ``best_val_loss``).
``epoch``
    One per training epoch: ``epoch`` (0-based), ``train_loss``,
    ``val_loss``, ``lr``, ``epoch_s`` wall-clock, and — for
    variation-aware runs — the Monte-Carlo loss distribution across
    draws (``mc_loss_mean``, ``mc_loss_std``, ``mc_draws``).
``evaluation``
    One per ``evaluate_under_*`` call: ``model``, ``variation``,
    ``mc_samples``, ``backend``, ``accuracy_mean``, ``accuracy_std``,
    ``elapsed_s``.
``checkpoint``
    One per checkpoint written by the trainer: ``epoch``, ``path``.
``experiment``
    One per table/figure cell produced by the experiment harness:
    ``artefact`` (``table1``/``table2``/``fig7``/…) plus
    artefact-specific fields (``dataset``, ``model``, means).
``gauges``
    Snapshot of the process-wide gauge registry, emitted by the
    benchmark harnesses (``source``, ``gauges``).
``sweep.start`` / ``sweep.end``
    Emitted by :func:`repro.parallel.run_cells` around a sweep
    campaign: executor, cell counts (total/cached), worker budget and
    cache fingerprint; the end event adds ``n_ok`` / ``n_failed`` /
    ``n_cached`` and the campaign wall-clock.
``sweep.cell_start`` / ``sweep.cell_end``
    One pair per cell attempt/completion: ``cell`` (``"/"``-joined
    key), ``attempt``, ``worker_pid``; the end event carries
    ``status`` (``ok``/``failed``), ``attempts``, ``cached``,
    ``elapsed_s`` and the cell's ``values`` dict (``error`` when it
    failed).
``sweep.retry`` / ``sweep.timeout``
    Fault-handling markers: which cell failed/overran, the attempt
    number, the error string and the backoff before the relaunch
    (``timeout_s`` for timeouts).
``sweep.worker``
    A telemetry event a worker process emitted mid-cell (epoch losses,
    evaluations, …), forwarded by the orchestrator: ``cell``,
    ``worker_pid``, ``worker_kind`` and the original payload under
    ``fields``.
``sweep.pool.start`` / ``sweep.pool.end``
    Emitted by the persistent-pool executor around a campaign:
    ``n_workers``, worker ``pids``, per-worker ``shard_sizes`` and the
    ``restart_budget``; the end event adds totals (``restarts``,
    ``steals``) plus per-slot ``busy_s`` (busy seconds, the dashboard's
    busy column; ``occupancy`` in older runs) and ``cells_per_slot``.
``sweep.pool.steal``
    An idle worker stole a cell from another worker's shard:
    ``thief_slot``, ``victim_slot``, ``cell``.
``sweep.pool.worker_replace``
    A dead or wedged pool worker was killed and replaced: ``slot``,
    ``old_pid``, ``new_pid``, ``reason`` and the running ``restarts``
    count (bounded by ``SweepOptions.pool_restarts``).
``stream.start`` / ``stream.end``
    Emitted by :func:`repro.core.evaluate_streaming` around one online
    evaluation pass: ``scenario``, ``dataset``, ``model``, ``steps``,
    ``chunk_size`` and ``n_changepoints``; the end event adds the
    overall ``accuracy``, per-segment accuracies, the
    pre/post-changepoint and burst/clean accuracy splits (``null`` when
    the scenario has no changepoints/bursts) and ``elapsed_s``.
``stream.chunk``
    One per processed chunk of a streaming evaluation: ``scenario``,
    the half-open step span ``lo``/``hi``, the chunk ``accuracy`` and
    the chunk processing ``latency_ms``.
``stream.batch.open``
    A stream joined a serving fleet (claimed a row of the batched
    multi-stream state matrix): ``model``, ``session``, ``row``, the
    fleet ``occupancy`` after the join and its ``capacity``.
``stream.batch.step``
    One per executed fleet step batch — concurrent ``/predict_stream``
    chunks coalesced into one batched advance: ``model``, ``rows``
    (streams stepped per kernel call), ``steps`` (longest chunk in the
    batch), fleet ``occupancy``/``capacity``, ``wait_ms`` (the oldest
    chunk's queue wait, from submit to batch start) and ``exec_ms``.
``stream.batch.evict``
    A session's fleet row was detached by LRU pressure: ``model``,
    ``session``, ``row``, ``reason`` (``lru``).  The next chunk for
    that session 404s (``UnknownSessionError``).
``serve.start`` / ``serve.end``
    Emitted by :class:`repro.serve.MicroBatchService` on creation and
    close: the serving options (batch/queue bounds, worker count,
    precision); the end event carries the final stats snapshot
    (total requests, QPS, latency percentiles, batch histogram).
``serve.request``
    One per answered ``/predict`` request: ``model``, ``status``
    (``ok``/``error``), ``latency_ms`` (submit → result),
    ``batch_size`` (companions it was coalesced with), and its parts
    ``wait_ms`` (submit → its batch starts) and ``exec_ms`` (its
    batch's compute).
``serve.batch``
    One per executed micro-batch: ``model``, ``size``, ``queue_depth``
    at formation, ``wait_ms`` (its oldest request's queue wait) and
    ``exec_ms`` (plan forward, including worker round-trip).
``serve.queue_full`` / ``serve.timeout``
    Graceful-degradation markers: a request rejected because the
    bounded queue was full (HTTP 503), or one whose result did not
    arrive within the per-request timeout (HTTP 504); both carry
    ``model``.
``serve.plan_compile`` / ``serve.plan_evict``
    Plan-LRU activity: a model's frozen plan was compiled on miss
    (``model``, ``compile_ms``, ``nbytes``) or evicted to make room
    (``model``).
``serve.worker_restart``
    A crashed or hung plan worker was replaced: ``pid`` of the dead
    worker and ``reason`` (``crash``/``hang``).
``serve.stats``
    Periodic/final stats snapshot from the serving tier (same payload
    as the ``/stats`` endpoint).
``span``
    Optional per-span records when the run was opened with
    ``emit_span_events=True``: ``name``, ``dur_s``; aggregated span
    totals are always available in the manifest regardless.
``run_end``
    Final event: ``status``, aggregated ``span_totals`` and the
    process-wide gauge snapshot (``gauges``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterator, List, Union

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "encode_event",
    "read_events",
    "iter_events",
    "validate_event",
]

PathLike = Union[str, pathlib.Path]

#: Version of the event schema; bumped on breaking field changes.
SCHEMA_VERSION = 1

#: Event kinds emitted by the library (the schema is open: consumers
#: must tolerate kinds outside this list).
EVENT_KINDS = (
    "fit_start",
    "epoch",
    "checkpoint",
    "fit_end",
    "evaluation",
    "experiment",
    "sweep.start",
    "sweep.cell_start",
    "sweep.cell_end",
    "sweep.retry",
    "sweep.timeout",
    "sweep.worker",
    "sweep.pool.start",
    "sweep.pool.steal",
    "sweep.pool.worker_replace",
    "sweep.pool.end",
    "sweep.end",
    "stream.start",
    "stream.chunk",
    "stream.end",
    "stream.batch.open",
    "stream.batch.step",
    "stream.batch.evict",
    "serve.start",
    "serve.request",
    "serve.batch",
    "serve.queue_full",
    "serve.timeout",
    "serve.plan_compile",
    "serve.plan_evict",
    "serve.worker_restart",
    "serve.stats",
    "serve.end",
    "span",
    "gauges",
    "run_end",
)

#: Canonical file names inside a run directory.
EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "run.json"

#: Fields every event must carry.
REQUIRED_FIELDS = ("v", "kind", "t", "wall")


def encode_event(kind: str, t: float, wall: float, fields: Dict) -> str:
    """Serialise one event as a single compact JSON line (no newline).

    The envelope fields (``v``/``kind``/``t``/``wall``) win over any
    identically named payload field, so the schema invariants cannot be
    clobbered by callers.
    """
    record = dict(fields)
    record.update({"v": SCHEMA_VERSION, "kind": str(kind), "t": t, "wall": wall})
    return json.dumps(record, sort_keys=True, default=_coerce)


def _coerce(obj: object) -> object:
    """JSON fallback for numpy scalars/arrays appearing in payloads."""
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(f"unserialisable telemetry field of type {type(obj).__name__}")


def validate_event(event: Dict) -> None:
    """Raise ``ValueError`` unless ``event`` satisfies the envelope schema."""
    for field in REQUIRED_FIELDS:
        if field not in event:
            raise ValueError(f"telemetry event missing required field {field!r}: {event}")
    if event["v"] > SCHEMA_VERSION:
        raise ValueError(
            f"event schema version {event['v']} is newer than supported "
            f"{SCHEMA_VERSION} — upgrade repro to read this run"
        )
    if not isinstance(event["kind"], str):
        raise ValueError(f"event kind must be a string, got {event['kind']!r}")


def iter_events(path: PathLike, kind: str | None = None) -> Iterator[Dict]:
    """Stream validated events from an ``events.jsonl`` file.

    ``kind`` filters to one event kind.  A trailing partial line (a run
    killed mid-write) is tolerated and skipped; corruption anywhere
    else raises ``ValueError``.
    """
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return  # interrupted final write — expected for killed runs
            raise ValueError(f"{path}:{i + 1}: corrupt telemetry event: {line[:80]!r}")
        validate_event(event)
        if kind is None or event["kind"] == kind:
            yield event


def read_events(path: PathLike, kind: str | None = None) -> List[Dict]:
    """Load (optionally kind-filtered) events of an ``events.jsonl`` file."""
    return list(iter_events(path, kind=kind))
