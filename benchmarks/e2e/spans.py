"""Benchmark-side tracing: spans around the repository's public functions.

A traced run turns on three sources at once (:class:`Tracing`):

1. a :class:`repro.telemetry.Run` in a scratch directory, so the spans
   and events the program already emits (``forward``, ``backward``,
   ``validation``, ``sweep.*``, ``serve.*`` ...) are recorded;
2. wrappers around the public functions in :func:`_targets`, installed
   for the traced region only and restored in ``finally`` — untraced
   runs measure the unmodified program;
3. a :class:`Tracer` keeping every span in memory (name, start, end,
   parent), with per-thread stacks so self time — a span's duration
   minus the part its child spans cover — is exact.

The telemetry hooks ``repro.telemetry.span`` and the ``record_span``
imported by ``repro.circuits`` are wrapped too, so the program's own
spans nest with the benchmark's.  Inside forked campaign workers the
tracer cannot return its tables directly; it forwards each span through
the worker's telemetry shim instead, and the pool ships the totals back
as ``sweep.worker.trace:<parent>><name>`` spans.

Spans *inside* ``src/`` (per-layer spans in the plan and the fleet) are
deliberately not added here; the benchmark only wraps calls from outside.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import threading
import time
from typing import Dict, List, Optional, Tuple

from metrics import PER_LAYER

#: Raw spans kept for ``--trace-out``; totals are exact beyond the cap.
LOG_CAP = 200_000

#: Spans the program measures itself and reports via ``record_span``.
LEAF_SPANS = frozenset({"scan.fused", "scan.unfused", "sampler.draw", "sampler.spawn"})

#: Share metrics read straight off the span table:
#: metric -> (span names, "total" or "self", parent to exclude).
SPAN_SHARES = {
    "training.forward_share": (("forward",), "total", "validation"),
    "training.forward_self_share": (("forward",), "self", "validation"),
    "training.loss_share": (("training.loss",), "total", None),
    "training.validation_share": (("validation",), "total", None),
    "autograd.backward_share": (("backward",), "total", None),
    "optim.step_share": (("optimizer_step",), "total", None),
    "circuits.filters_share": (("circuits.filters",), "total", None),
    "circuits.crossbar_share": (("circuits.crossbar",), "total", None),
    "circuits.ptanh_share": (("circuits.ptanh",), "total", None),
    "circuits.scan_share": (("scan.fused", "scan.unfused"), "total", None),
    "circuits.sampler_share": (("sampler.draw", "sampler.spawn"), "total", None),
    "evaluation.share": (("evaluation",), "total", None),
    "plan.forward_share": (("plan.forward",), "total", None),
    "plan.coerce_share": (("plan.coerce",), "total", None),
    "serve.submit_share": (("serve.submit",), "total", None),
    "fleet.self_share": (("fleet.process_many",), "self", None),
    "fleet.stage_share": (("fleet.stage",), "total", None),
    "fleet.affine_share": (("fleet.affine",), "total", None),
    "fleet.ptanh_share": (("fleet.ptanh",), "total", None),
    "fleet.lifecycle_share": (("fleet.open", "fleet.close"), "total", None),
}

#: ``{(parent, name): [count, total_s, self_s]}``; parent "" for a root span.
SpanTable = Dict[Tuple[str, str], List[float]]

_FORWARD_PREFIX = "trace:"


class Tracer:
    """In-memory spans with per-thread stacks, exact self time and a raw log."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.log: List[Tuple[str, float, float, str]] = []
        #: ``record_span``-shaped sink; set in forked workers, where the
        #: tables would die with the process.
        self.forward = None
        self._local = threading.local()
        self._tables: List[SpanTable] = []
        self._lock = threading.Lock()

    def _thread(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def enter(self, name: str) -> list:
        """Open a span on this thread; pass the result to :meth:`exit`."""
        stack, _ = self._thread()
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close the innermost span opened by :meth:`enter`."""
        end = time.perf_counter()
        stack, table = self._thread()
        stack.pop()
        self._add(table, stack[-1] if stack else None, frame[0], frame[1], end, frame[2])

    def leaf(self, name: str, seconds: float) -> None:
        """A span the program timed itself and reported on completion."""
        end = time.perf_counter()
        stack, table = self._thread()
        self._add(table, stack[-1] if stack else None, name, end - seconds, end, 0.0)

    def _add(self, table: SpanTable, parent, name, start, end, child) -> None:
        duration = end - start
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else "", name)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.forward is not None:
            label = f"{_FORWARD_PREFIX}{key[0]}>{name}"
            self.forward(label, duration)
            self.forward(label + ":self", duration - child)
        elif len(self.log) < LOG_CAP:
            self.log.append((name, start - self.epoch, end - self.epoch, key[0]))

    def table(self) -> SpanTable:
        """Totals over every thread, merged by ``(parent, name)``."""
        merged: SpanTable = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (count, total, self_s) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_s
        return merged

    def durations(self, name: str, start: float, end: float) -> List[float]:
        """Durations of logged ``name`` spans that started in ``[start, end)``.

        ``start``/``end`` are ``time.perf_counter`` readings; only the
        first :data:`LOG_CAP` spans are logged.
        """
        lo, hi = start - self.epoch, end - self.epoch
        return [e - s for n, s, e, _ in self.log if n == name and lo <= s < hi]


def worker_table(span_totals: Dict[str, Dict[str, float]]) -> SpanTable:
    """Rebuild a span table from the ``sweep.worker.trace:*`` run totals."""
    prefix = "sweep.worker." + _FORWARD_PREFIX
    table: SpanTable = {}
    for label, entry in span_totals.items():
        if not label.startswith(prefix):
            continue
        label = label[len(prefix):]
        is_self = label.endswith(":self")
        parent, _, name = label[: -len(":self")].partition(">") if is_self else label.partition(">")
        row = table.setdefault((parent, name), [0, 0.0, 0.0])
        if is_self:
            row[2] += entry["seconds"]
        else:
            row[0] += int(entry["calls"])
            row[1] += entry["seconds"]
    return table


def span_shares(table: SpanTable, capacity_s: float) -> Dict[str, float]:
    """Every :data:`SPAN_SHARES` metric for one span table."""
    out = {}
    for metric, (names, column, excluded) in SPAN_SHARES.items():
        index = 1 if column == "total" else 2
        seconds = sum(
            row[index]
            for (parent, name), row in table.items()
            if name in names and parent != excluded
        )
        out[metric] = seconds / capacity_s if capacity_s > 0 else 0.0
    return out


def complete(layers: Dict[str, float]) -> Dict[str, float]:
    """All :data:`PER_LAYER` metrics but the overhead, absent layers as 0."""
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {
        name: float(layers.get(name, 0.0))
        for name in PER_LAYER
        if name != "telemetry.overhead"
    }


# -- wrappers ----------------------------------------------------------------


def _targets():
    """``(owner, attribute, span name)`` for every wrapped public function."""
    from repro.circuits import PrintedCrossbar, PrintedTanh
    from repro.circuits.filters import FirstOrderLearnableFilter, SecondOrderLearnableFilter
    from repro.compile import ForwardPlan
    from repro.compile import plan as plan_module
    from repro.core import MultiStreamSession
    from repro.core import training
    from repro.serve import MicroBatchService

    return [
        (training, "mc_cross_entropy", "training.loss"),
        (FirstOrderLearnableFilter, "forward", "circuits.filters"),
        (SecondOrderLearnableFilter, "forward", "circuits.filters"),
        (PrintedCrossbar, "forward", "circuits.crossbar"),
        (PrintedTanh, "forward", "circuits.ptanh"),
        # ``__call__`` is bound to the original ``forward`` at class creation.
        (ForwardPlan, "forward", "plan.forward"),
        (ForwardPlan, "__call__", "plan.forward"),
        (ForwardPlan, "coerce_series", "plan.coerce"),
        (MicroBatchService, "submit", "serve.submit"),
        (MultiStreamSession, "process_many", "fleet.process_many"),
        (MultiStreamSession, "open", "fleet.open"),
        (MultiStreamSession, "close", "fleet.close"),
        (plan_module, "row_stage", "fleet.stage"),
        (plan_module, "row_affine", "fleet.affine"),
        (plan_module, "row_ptanh", "fleet.ptanh"),
    ]


def _telemetry_hooks():
    """``(owner, attribute)`` of the program's own span entry points."""
    import repro.telemetry
    from repro.circuits import filters, variation

    return [(repro.telemetry, "span"), (filters, "record_span"), (variation, "record_span")]


def _timed(fn, name: str, tracer: Tracer):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return wrapper


class _JoinedSpan:
    """The program's telemetry span with a tracer span inside it."""

    __slots__ = ("inner", "tracer", "name", "frame")

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.inner.__enter__()
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        return self.inner.__exit__(*exc)


def _hook(attr: str, original, tracer: Tracer):
    if attr == "span":
        return functools.wraps(original)(lambda name: _JoinedSpan(original(name), tracer, name))

    @functools.wraps(original)
    def record_span(name, seconds):
        if name in LEAF_SPANS:
            tracer.leaf(name, seconds)
        original(name, seconds)

    return record_span


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the record :func:`restore` undoes."""
    patches = []
    try:
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            patches.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, _timed(original, name, tracer))
        for owner, attr in _telemetry_hooks():
            original = getattr(owner, attr)
            patches.append((owner, attr, original, True))
            setattr(owner, attr, _hook(attr, original, tracer))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list) -> None:
    """Put every wrapped attribute back exactly as it was."""
    for owner, attr, original, owned in reversed(patches):
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def originals() -> list:
    """The current value of every attribute :func:`install` replaces."""
    return [getattr(o, a) for o, a, _ in _targets()] + [
        getattr(o, a) for o, a in _telemetry_hooks()
    ]


_RUN_IDS = itertools.count()


class Tracing:
    """Context manager turning all three trace sources on for one region."""

    def __init__(self, workdir: pathlib.Path) -> None:
        self.workdir = pathlib.Path(workdir)
        self.tracer: Optional[Tracer] = None
        self.run = None
        self._patches: list = []

    def __enter__(self) -> "Tracing":
        from repro.telemetry import Run
        from repro.telemetry.run import record_span

        tracer = self.tracer = Tracer()

        def forked() -> None:
            tracer.forward = record_span

        os.register_at_fork(after_in_child=forked)
        run_dir = self.workdir / f"run-{os.getpid()}-{next(_RUN_IDS)}"
        self.run = Run(dir=run_dir).__enter__()
        try:
            self._patches = install(tracer)
        except BaseException:
            self.run.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            restore(self._patches)
        finally:
            self.run.__exit__(*exc)
