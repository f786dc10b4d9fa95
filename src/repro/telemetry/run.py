"""The :class:`Run` context — one training/evaluation run, one directory.

A run directory is the unit of observability::

    runs/20260806-141523-000-powercons/
    ├── run.json        # manifest: schema, git SHA, seed, config, status
    ├── events.jsonl    # append-only monotonic-clock event stream
    └── checkpoints/    # trainer checkpoints (optional)

Opening a :class:`Run` (it is a context manager) makes it the *active*
run of the process; instrumented code everywhere in the library emits
into it through the module-level hooks :func:`emit`, :func:`span` and
:func:`record_span`, which are strict no-ops while no run is active —
the telemetry-off fast path is a single ``None`` check, so hot loops
pay nothing when nobody is observing.

Durations come from the monotonic clock (``time.perf_counter``); wall
time is recorded alongside for cross-run correlation only.  Span
totals aggregate in memory and land in the manifest at close (set
``emit_span_events=True`` to additionally stream one ``span`` event
per completed span).  On close the run also snapshots the process-wide
:data:`~repro.telemetry.gauges.gauges` registry, so Monte-Carlo /
filter-scan counters are preserved with the run that produced them.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
from contextlib import nullcontext
from typing import Dict, Optional, Union

from .events import EVENTS_FILENAME, MANIFEST_FILENAME, SCHEMA_VERSION, encode_event
from .gauges import Gauge, gauges

__all__ = ["Run", "active_run", "emit", "span", "record_span", "git_sha"]

PathLike = Union[str, pathlib.Path]

#: The innermost active run (runs may nest; inner shadows outer).
_ACTIVE: list = []

#: Shared no-op context manager returned by :func:`span` when inactive.
_NULL_SPAN = nullcontext()

#: Monotonic per-process counter making same-second run ids unique.
_SEQ = 0


def git_sha(cwd: Optional[PathLike] = None) -> str:
    """Current git commit SHA, or ``"unknown"`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def active_run() -> Optional["Run"]:
    """The innermost active :class:`Run`, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def emit(kind: str, **fields) -> None:
    """Emit one event into the active run; no-op when none is active."""
    run = active_run()
    if run is not None:
        run.emit(kind, **fields)


def span(name: str):
    """Context manager timing a block into the active run's span totals.

    Returns a shared null context (zero timing work) when no run is
    active, so instrumented hot paths cost one call and a ``None``
    check in the telemetry-off case.
    """
    run = active_run()
    if run is None:
        return _NULL_SPAN
    return run.span(name)


def record_span(name: str, seconds: float) -> None:
    """Add a pre-measured duration to the active run's span totals.

    For code that already owns a stopwatch (e.g. the filter-scan
    kernel): no-op without an active run.
    """
    run = active_run()
    if run is not None:
        run.record_span(name, seconds)


class _Span:
    """Timing context produced by :meth:`Run.span`."""

    __slots__ = ("_run", "_name", "_start")

    def __init__(self, run: "Run", name: str) -> None:
        self._run = run
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._run.record_span(self._name, time.perf_counter() - self._start)


class Run:
    """Owns one run directory: manifest, event stream and span totals.

    Parameters
    ----------
    root:
        Directory under which the run directory is created (default
        ``"runs"``); ignored when ``dir`` names an exact directory.
    name:
        Human-readable suffix of the generated run id.
    dir:
        Exact run directory (created; must not already contain a run).
    seed / dataset / config:
        Manifest fields; ``config`` may be a dataclass (e.g.
        :class:`~repro.core.TrainingConfig`) or a plain dict.
    emit_span_events:
        Stream one ``span`` event per completed span in addition to the
        aggregated totals (off by default: totals are always kept).
    meta:
        Extra JSON-serialisable manifest fields.
    """

    def __init__(
        self,
        root: PathLike = "runs",
        name: Optional[str] = None,
        dir: Optional[PathLike] = None,
        seed: Optional[int] = None,
        dataset: Optional[str] = None,
        config: object = None,
        emit_span_events: bool = False,
        meta: Optional[Dict] = None,
    ) -> None:
        global _SEQ
        if dir is not None:
            self.dir = pathlib.Path(dir)
            run_id = self.dir.name
        else:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            run_id = f"{stamp}-{_SEQ:03d}" + (f"-{name}" if name else "")
            _SEQ += 1
            self.dir = pathlib.Path(root) / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.dir / EVENTS_FILENAME
        self.manifest_path = self.dir / MANIFEST_FILENAME
        if self.manifest_path.exists():
            raise FileExistsError(f"{self.manifest_path} already holds a run manifest")

        self.run_id = run_id
        self.emit_span_events = emit_span_events
        self._spans = Gauge()
        self._events = 0
        self._t0 = time.perf_counter()
        self._fh = None
        self._closed = False

        self.manifest: Dict = {
            "schema_version": SCHEMA_VERSION,
            "run_id": run_id,
            "name": name,
            "created_unix": time.time(),
            "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "pid": os.getpid(),
            "git_sha": git_sha(),
            "seed": seed,
            "dataset": dataset,
            "status": "running",
        }
        if config is not None:
            self.manifest["training_config"] = _config_dict(config)
        if meta:
            self.manifest.update(meta)
        self._write_manifest()
        self._fh = self.events_path.open("a", encoding="utf-8")

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Run":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            _ACTIVE.remove(self)
        except ValueError:
            pass
        self.close(status="failed" if exc_type is not None else "completed")

    def close(self, status: str = "completed") -> None:
        """Flush gauges/span totals, finalise the manifest, close files."""
        if self._closed:
            return
        self._closed = True
        gauge_snapshot = gauges.snapshot()
        span_totals = self._spans.snapshot()
        self.emit_unchecked(
            "run_end", status=status, span_totals=span_totals, gauges=gauge_snapshot
        )
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self.manifest.update(
            {
                "status": status,
                "events": self._events,
                "span_totals": span_totals,
                "gauges": gauge_snapshot,
                "closed_unix": time.time(),
            }
        )
        self._write_manifest()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    # -- manifest --------------------------------------------------------

    def update_manifest(self, **fields) -> None:
        """Merge fields into ``run.json`` and rewrite it atomically.

        Used by :meth:`repro.core.Trainer.fit` to key the manifest with
        the training protocol (config, model, backend switches) without
        the caller having to thread them through :class:`Run`.
        """
        for key, value in fields.items():
            self.manifest[key] = _config_dict(value) if key == "training_config" else value
        self._write_manifest()

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        tmp.replace(self.manifest_path)

    # -- events ----------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Append one event (monotonic offset + wall clock) to the stream."""
        if self._closed:
            raise RuntimeError(f"run {self.run_id} is closed")
        self.emit_unchecked(kind, **fields)

    def emit_unchecked(self, kind: str, **fields) -> None:
        """:meth:`emit` without the closed-run guard (used by close itself)."""
        if self._fh is None:
            return
        line = encode_event(
            kind, t=time.perf_counter() - self._t0, wall=time.time(), fields=fields
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self._events += 1

    # -- spans -----------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Time a ``with`` block under ``name`` (aggregated; see class doc)."""
        return _Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Add a pre-measured duration under ``name``."""
        self._spans.add(name, seconds)
        if self.emit_span_events and not self._closed:
            self.emit("span", name=name, dur_s=seconds)

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregated ``{name: {seconds, calls}}`` span totals so far."""
        return self._spans.snapshot()

    def __repr__(self) -> str:
        return f"Run(id={self.run_id!r}, dir={str(self.dir)!r}, events={self._events})"


def _config_dict(config: object) -> Dict:
    """Coerce a dataclass/dict config into a JSON-serialisable dict."""
    if isinstance(config, dict):
        return dict(config)
    import dataclasses

    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    raise TypeError(f"config must be a dataclass or dict, got {type(config).__name__}")
