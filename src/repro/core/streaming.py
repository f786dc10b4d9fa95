"""Streaming (stateful, chunked) inference over unbounded sensor streams.

A deployed printed circuit never sees a batched sequence: the sensor
voltage arrives one sample per Δt and the filter capacitors carry the
state.  This module mirrors that operating mode in software:

* :class:`StreamingSession` — the single-stream engine.  It executes a
  frozen :class:`~repro.compile.ForwardPlan` (compiled on the fly from
  a live model if needed) one time step at a time, carrying every RC
  stage's ``v_{k-1}`` across :meth:`~StreamingSession.process` calls,
  so an unbounded stream can be consumed in arbitrary chunk sizes.
  :meth:`~StreamingSession.state_dict` / ``save_state`` /
  ``load_state`` snapshot the carried state to an npz for bit-equal
  resume after a restart.
* :class:`MultiStreamSession` — the batched fleet engine.  The filter
  state of up to ``capacity`` concurrent streams lives as one
  ``(streams, features)`` matrix per RC stage.  A call packs the
  called rows' ragged chunks into one zero-padded time-major block and
  runs it layer by layer: one scan per RC stage from the rows' carried
  state, then one crossbar affine and one ptanh over every step of
  every row.  Streams join/leave/reset mid-flight against a row
  free-list.  Each row is **bit-equal** to a lone
  :class:`StreamingSession` fed the same chunks, whatever the
  interleaving (see the contract below).
* :class:`StreamingClassifier` — the sample-by-sample façade kept from
  the original demo (``push``/``run``/``decision_latency``), now a thin
  wrapper over a :class:`StreamingSession` so it shares the *single*
  coefficient-resolution path with ``compile_plan``
  (:func:`repro.circuits.filter_stages` +
  :meth:`~repro.circuits.filters._RCStage.nominal_coefficients`).
* :func:`evaluate_streaming` — the online evaluation harness: stream a
  :class:`~repro.data.SensorStream` scenario through a session, emit
  ``stream.*`` telemetry and produce accuracy-over-time /
  accuracy-around-changepoint curves (rendered by the ``## Streaming``
  report section and the ``python -m repro stream-eval`` CLI).

Split- and fleet-invariance contract
------------------------------------
For **any** partition of a stream into chunks — including single-sample
chunks and one giant chunk — the concatenated per-step logits are
**bit-equal** to processing the whole stream in one call; and a stream
stepped inside a :class:`MultiStreamSession` fleet is bit-equal to the
same stream stepped alone, whatever the other rows are doing.  Both
hold by construction: both engines run the shared row-stable kernels
of :mod:`repro.compile.plan` (the session steps with
:func:`~repro.compile.plan.row_stage`, the fleet scans with
:func:`~repro.compile.plan.row_scan` — the same per-element ops; both
then call :func:`~repro.compile.plan.row_affine` and
:func:`~repro.compile.plan.row_ptanh`), whose per-row results are
independent of how many rows share the matrix — elementwise ufuncs and
``einsum``'s fixed-order sum-of-products loop, never a BLAS GEMM
(whose kernel choice, hence accumulation order, depends on the row
count).  The session agrees with the batched ``model(x)`` /
``plan.forward(x)`` logits to floating-point accumulation tolerance
(≤1e-12 in float64, exercised by test) rather than bitwise; the
stateful recurrence trajectory itself *is* bitwise reproducible (see
``tests/core/test_split_invariance.py`` and
``tests/core/test_multistream.py``).

The model's variation sampler is bypassed: streaming executes the
nominal (ideal) instance frozen into the plan, i.e. one fabricated
circuit at its design point.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..telemetry import emit as telemetry_emit
from .models import PrintedTemporalClassifier

__all__ = [
    "MultiStreamSession",
    "StreamingClassifier",
    "StreamingSession",
    "StreamingEvalResult",
    "evaluate_streaming",
]


def _resolve_plan(source, precision: Optional[str], owner: str):
    """Accept a ForwardPlan or a live model; compile the latter."""
    from ..compile import ForwardPlan, compile_plan

    if isinstance(source, ForwardPlan):
        return source
    if isinstance(source, PrintedTemporalClassifier):
        return compile_plan(source, precision=precision)
    raise TypeError(
        f"{owner} expects a ForwardPlan or a "
        f"PrintedTemporalClassifier, got {type(source).__name__}"
    )


class StreamingSession:
    """Stateful chunked inference over a frozen forward plan.

    Parameters
    ----------
    source:
        A :class:`~repro.compile.ForwardPlan` or a live
        :class:`~repro.core.PrintedTemporalClassifier` (compiled with
        :func:`~repro.compile.compile_plan` on construction, so the
        session and the serving tier resolve recurrence coefficients
        through the same path).
    precision:
        Optional precision policy for on-the-fly compilation; ignored
        when ``source`` is already a plan.

    Example
    -------
    >>> session = StreamingSession(trained_model)
    >>> for chunk in transport:           # any chunk sizes, any cuts
    ...     logits = session.process(chunk)   # (steps, n_classes)
    >>> prediction = session.predict()
    """

    #: npz snapshot format tag (bumped on layout changes).
    STATE_FORMAT = "repro-streaming-state-v1"

    def __init__(self, source, precision: Optional[str] = None) -> None:
        self.plan = _resolve_plan(source, precision, "StreamingSession")
        self._state: List[List[np.ndarray]] = []
        self._scratch = self.plan.stream_scratch(1)
        self._steps = 0
        self._last_logits: Optional[np.ndarray] = None
        self.reset()

    # -- state ----------------------------------------------------------

    @property
    def steps_seen(self) -> int:
        """Samples consumed since the last reset."""
        return self._steps

    @property
    def last_logits(self) -> Optional[np.ndarray]:
        """Logits after the most recent step (``None`` before any)."""
        return self._last_logits

    def reset(self) -> None:
        """Discharge all filter state (power-cycle the circuit)."""
        self._state = self.plan.stream_state(1)
        self._steps = 0
        self._last_logits = None

    # -- snapshot / restore ---------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Everything needed to resume this stream bit-exactly.

        A flat ``{key: ndarray}`` mapping (npz-compatible): the format
        tag, the plan identity (``model_class`` + ``dtype``, checked on
        load), ``steps_seen``, every RC stage's carried ``v`` row as
        ``state_<layer>_<stage>``, and ``last_logits`` when a step has
        been taken.  All arrays are copies — mutating the snapshot does
        not touch the live session.
        """
        d: Dict[str, np.ndarray] = {
            "format": np.array(self.STATE_FORMAT),
            "model_class": np.array(self.plan.model_class),
            "dtype": np.array(np.dtype(self.plan.dtype).name),
            "steps_seen": np.array(self._steps, dtype=np.int64),
        }
        for li, stages in enumerate(self._state):
            for si, v in enumerate(stages):
                d[f"state_{li}_{si}"] = v.copy()
        if self._last_logits is not None:
            d["last_logits"] = self._last_logits.copy()
        return d

    def save_state(self, path) -> None:
        """Snapshot to an ``.npz`` file (see :meth:`state_dict`)."""
        np.savez(path, **self.state_dict())

    def load_state(self, source) -> None:
        """Restore from a :meth:`state_dict` mapping or an npz path.

        Validates the format tag, the plan identity, every state shape
        and value (finite), ``steps_seen`` (a non-negative integer) and
        ``last_logits`` (finite, ``(n_classes,)``, present exactly when
        a step has been taken) before touching the session, so a failed
        load raises ``ValueError`` and leaves the current state intact.
        After a successful load, processing the remainder of a stream is
        bit-equal to never having snapshotted.
        """
        if isinstance(source, (str, os.PathLike)):
            with np.load(source) as npz:
                data = {k: npz[k] for k in npz.files}
        elif isinstance(source, Mapping):
            data = dict(source)
        else:
            raise TypeError(
                "load_state expects a state_dict mapping or an npz path, "
                f"got {type(source).__name__}"
            )

        def scalar(key):
            value = data.get(key)
            return value.item() if isinstance(value, np.ndarray) else value

        fmt = scalar("format")
        if fmt != self.STATE_FORMAT:
            raise ValueError(f"unsupported streaming snapshot format: {fmt!r}")
        if scalar("model_class") != self.plan.model_class:
            raise ValueError(
                f"snapshot is for model {scalar('model_class')!r}, "
                f"session plan is {self.plan.model_class!r}"
            )
        if scalar("dtype") != np.dtype(self.plan.dtype).name:
            raise ValueError(
                f"snapshot dtype {scalar('dtype')!r} does not match plan "
                f"dtype {np.dtype(self.plan.dtype).name!r}"
            )
        fresh = self.plan.stream_state(1)
        for li, stages in enumerate(fresh):
            for si, v in enumerate(stages):
                key = f"state_{li}_{si}"
                if key not in data:
                    raise ValueError(f"snapshot is missing {key!r}")
                arr = np.asarray(data[key])
                if arr.shape != v.shape:
                    raise ValueError(
                        f"snapshot {key} has shape {arr.shape}, "
                        f"plan expects {v.shape}"
                    )
                v[...] = arr
                if not np.isfinite(v).all():
                    raise ValueError(f"snapshot {key} has non-finite values")
        steps = scalar("steps_seen")
        integral = isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)
        if not integral or steps < 0:
            raise ValueError(
                f"snapshot steps_seen must be a non-negative integer, got {steps!r}"
            )
        last = data.get("last_logits")
        if (last is None) != (steps == 0):
            raise ValueError(
                f"snapshot has steps_seen={steps} but "
                f"{'no' if last is None else 'a'} last_logits"
            )
        if last is not None:
            last = np.array(last, dtype=self.plan.dtype)
            if last.shape != (self.plan.n_classes,):
                raise ValueError(
                    f"snapshot last_logits has shape {last.shape}, "
                    f"plan expects {(self.plan.n_classes,)}"
                )
            if not np.isfinite(last).all():
                raise ValueError("snapshot last_logits has non-finite values")
        self._state = fresh
        self._steps = int(steps)
        self._last_logits = last

    # -- execution ------------------------------------------------------

    def process(self, chunk) -> np.ndarray:
        """Consume one chunk ``(time,)`` or ``(time, in_channels)``.

        Returns the per-step logits ``(time, n_classes)`` and carries
        the filter state forward, so consecutive calls are bit-equal to
        one call over the concatenated chunk (see module docstring).
        """
        from ..compile.plan import row_affine, row_ptanh, row_stage

        plan = self.plan
        x = plan.coerce_series(chunk)
        steps = x.shape[0]
        out = np.empty((steps, plan.n_classes), dtype=plan.dtype)
        layers = plan.layers
        state = self._state
        stage_tmp = self._scratch["stage_tmp"]
        affine = self._scratch["affine"]
        for k in range(steps):
            h = x[k : k + 1]
            for li, layer in enumerate(layers):
                tmp = stage_tmp[li]
                for si, (a, b) in enumerate(layer.stages):
                    # Same per-element arithmetic as the batched scan
                    # kernel (FilterScan / ForwardPlan._scan), in place
                    # on the carried (1, in) state row.
                    h = row_stage(a, b, h, state[li][si], out=state[li][si], tmp=tmp)
                mm = row_affine(h, layer.weights, layer.bias, out=affine[li])
                h = row_ptanh(mm, layer.eta, out=mm)
            out[k] = h[0]
        out *= plan.logit_scale
        self._steps += steps
        self._last_logits = out[-1].copy()
        return out

    def predict(self) -> int:
        """Predicted class after the samples consumed so far."""
        if self._last_logits is None:
            raise ValueError("no samples processed yet")
        return int(np.argmax(self._last_logits))

    def __repr__(self) -> str:
        return (
            f"StreamingSession({self.plan.model_class}, "
            f"steps_seen={self._steps}, dtype={self.plan.dtype})"
        )


class MultiStreamSession:
    """A fleet of concurrent streams stepped as one state matrix.

    Where :class:`StreamingSession` pays one Python-level step loop per
    stream, this engine holds the RC filter state of up to ``capacity``
    streams as a single ``(capacity, features)`` matrix per stage and
    advances **all called streams layer by layer over the whole
    chunk**: only the RC stages carry state, so each stage runs one
    :func:`~repro.compile.plan.row_scan` over the ``(time, rows,
    features)`` block from the rows' carried state, and the memoryless
    crossbar and ptanh run once over all ``time·rows`` voltages.  The
    interpreter overhead then scales with the chunk length, not with
    chunk length × layers × kernels.

    Rows are allocated from a free-list: :meth:`open` claims a row,
    :meth:`close` discharges and releases it, :meth:`reset`
    power-cycles it in place — streams join and leave mid-flight
    without disturbing their neighbours.  :meth:`process_many` takes a
    ``{row: chunk}`` mapping of *ragged* chunks (any lengths, any
    subset of open rows): shorter chunks are zero-padded to the
    longest, and each row's new state is read at its own last step, so
    per-stream chunk boundaries never synchronise.  The padded tail is
    computed and dropped (the recurrence is causal, so it never reaches
    a row's real steps).

    **Fleet-invariance.**  Every row's logits are bit-equal to a lone
    :class:`StreamingSession` over the same plan fed the same chunks
    in the same order, for arbitrary interleavings of
    ``process``/``reset``/``open``/``close`` across rows.  Structural
    guarantee: both engines call the row-stable kernels in
    ``repro.compile.plan`` (elementwise ufuncs + fixed-order
    ``einsum``), whose per-row bits do not depend on the row count, and
    ``row_scan``'s ``b·h + a·v`` is ``row_stage``'s ``a·v + b·h``
    (IEEE addition commutes).  Rows left out of a call are never read
    or written.

    Not thread-safe: the serving tier serialises access through its
    fleet scheduler.
    """

    def __init__(self, source, capacity: int = 32,
                 precision: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.plan = _resolve_plan(source, precision, "MultiStreamSession")
        self.capacity = int(capacity)
        self._state = self.plan.stream_state(self.capacity)
        self._occupied = np.zeros(self.capacity, dtype=bool)
        # pop() hands out the lowest free row first.
        self._free: List[int] = list(range(self.capacity - 1, -1, -1))
        self._steps = np.zeros(self.capacity, dtype=np.int64)
        self._last: List[Optional[np.ndarray]] = [None] * self.capacity

    # -- row lifecycle --------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Open rows."""
        return self.capacity - len(self._free)

    @property
    def free_rows(self) -> int:
        """Rows available to :meth:`open`."""
        return len(self._free)

    def open(self) -> int:
        """Claim a discharged row for a new stream; returns its index."""
        if not self._free:
            raise RuntimeError(f"fleet is full ({self.capacity} rows)")
        row = self._free.pop()
        self._occupied[row] = True
        self._discharge(row)
        return row

    def close(self, row: int) -> None:
        """Release a row back to the free-list (state discharged)."""
        self._check_row(row)
        self._discharge(row)
        self._occupied[row] = False
        self._free.append(int(row))

    def reset(self, row: int) -> None:
        """Power-cycle one stream in place; its row stays claimed."""
        self._check_row(row)
        self._discharge(row)

    def _discharge(self, row: int) -> None:
        for stages in self._state:
            for v in stages:
                v[row] = 0.0
        self._steps[row] = 0
        self._last[row] = None

    def _check_row(self, row) -> None:
        if not (0 <= int(row) < self.capacity and self._occupied[int(row)]):
            raise KeyError(f"row {row} is not an open stream")

    # -- per-row views --------------------------------------------------

    def steps_seen(self, row: int) -> int:
        """Samples consumed by one stream since its last reset."""
        self._check_row(row)
        return int(self._steps[row])

    def last_logits(self, row: int) -> Optional[np.ndarray]:
        """One stream's logits after its most recent step."""
        self._check_row(row)
        return self._last[row]

    def predict(self, row: int) -> int:
        """One stream's predicted class so far."""
        self._check_row(row)
        if self._last[row] is None:
            raise ValueError("no samples processed yet")
        return int(np.argmax(self._last[row]))

    # -- execution ------------------------------------------------------

    def process(self, row: int, chunk) -> np.ndarray:
        """Advance a single stream (convenience over :meth:`process_many`)."""
        return self.process_many({row: chunk})[int(row)]

    def process_many(self, chunks: Mapping[int, "np.ndarray"]) -> Dict[int, np.ndarray]:
        """Advance several streams together, layer by layer over the chunk.

        ``chunks`` maps open row indices to series chunks of *any*
        (per-row independent) lengths.  Returns ``{row: (len, n_classes)
        logits}``; each row's state, ``steps_seen`` and ``last_logits``
        advance exactly as if it were processed alone.  Every chunk is
        validated before any state changes: a bad row, shape or value
        raises and leaves the whole fleet as it was.
        """
        from ..compile.plan import _check_finite, row_affine, row_ptanh, row_scan

        plan = self.plan
        picked: List[int] = []
        coerced: List[np.ndarray] = []
        for row, chunk in chunks.items():
            self._check_row(row)
            picked.append(int(row))
            coerced.append(plan._coerce_shape(chunk))
        if not coerced:
            return {}
        rows = np.array(picked, dtype=np.intp)
        lens = np.array([x.shape[0] for x in coerced], dtype=np.intp)
        # Time-major block of the called rows only, zero-padded to the
        # longest chunk.  The recurrence is causal, so a row's padded
        # tail never reaches its own steps; it is computed and dropped.
        X = np.zeros((int(lens.max()), rows.size, plan.in_channels), dtype=plan.dtype)
        for j, x in enumerate(coerced):
            X[: x.shape[0], j] = x
        _check_finite(X, "series")
        # Each row's state after the chunk is its value at its own last step.
        ends = (lens - 1, np.arange(rows.size))
        h = X
        for layer, state in zip(plan.layers, self._state):
            tmp = np.empty((rows.size, layer.in_features), dtype=plan.dtype)
            for (a, b), v in zip(layer.stages, state):
                # ``h`` is this call's own buffer: scan it in place.
                row_scan(a, b, h, v[rows], out=h, tmp=tmp)
                v[rows] = h[ends]
            flat = h.reshape(-1, layer.in_features)
            mm = np.empty((flat.shape[0], layer.out_features), dtype=plan.dtype)
            row_affine(flat, layer.weights, layer.bias, out=mm)
            h = row_ptanh(mm, layer.eta, out=mm).reshape(h.shape[:2] + (-1,))
        h *= plan.logit_scale
        self._steps[rows] += lens
        last = h[ends]
        out: Dict[int, np.ndarray] = {}
        for j, (row, x) in enumerate(zip(picked, coerced)):
            out[row] = h[: x.shape[0], j].copy()
            self._last[row] = last[j]
        return out

    def __repr__(self) -> str:
        return (
            f"MultiStreamSession({self.plan.model_class}, "
            f"occupancy={self.occupancy}/{self.capacity}, "
            f"dtype={self.plan.dtype})"
        )


class StreamingClassifier:
    """Stateful single-stream inference over a trained printed model.

    A sample-by-sample façade over :class:`StreamingSession`: the model
    is frozen through :func:`~repro.compile.compile_plan`, so streaming
    and the serving plan share one coefficient-resolution path and can
    never drift apart (pinned by regression test).

    Example
    -------
    >>> stream = StreamingClassifier(trained_model)
    >>> for sample in sensor_series:
    ...     logits = stream.push(sample)
    >>> prediction = int(np.argmax(logits))
    """

    def __init__(
        self, model: PrintedTemporalClassifier, precision: Optional[str] = None
    ) -> None:
        self.model = model
        self.session = StreamingSession(model, precision=precision)

    @property
    def steps_seen(self) -> int:
        """Samples consumed since the last reset."""
        return self.session.steps_seen

    def reset(self) -> None:
        """Discharge all filter state (power-cycle the circuit)."""
        self.session.reset()

    def push(self, sample) -> np.ndarray:
        """Consume one sensor sample (scalar, or a vector of
        ``in_channels`` values for multivariate models); returns the
        current logits."""
        channels = getattr(self.model, "in_channels", 1)
        x = np.atleast_1d(np.asarray(sample, dtype=np.float64))
        if x.shape != (channels,):
            raise ValueError(f"push() takes {channels} sample value(s), got shape {x.shape}")
        return self.session.process(x.reshape(1, channels))[0]

    def run(self, series: np.ndarray) -> np.ndarray:
        """Stream a whole series; returns logits at every step."""
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise ValueError("series must be 1-D")
        return self.session.process(series)

    def decision_latency(self, series: np.ndarray) -> int:
        """Earliest step from which the predicted class never changes.

        0 means the very first sample already settles the decision;
        ``len(series) - 1`` means the prediction flipped on the last
        sample.  Resets the stream state first.
        """
        self.reset()
        logits = self.run(series)
        predictions = np.argmax(logits, axis=1)
        final = predictions[-1]
        stable_from = predictions.size - 1
        for k in range(predictions.size - 1, -1, -1):
            if predictions[k] != final:
                break
            stable_from = k
        return int(stable_from)


# -- online evaluation harness ---------------------------------------------


def _rolling_accuracy(correct: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling mean of ``correct`` over the last ``window`` steps
    (shorter prefix windows during warm-up)."""
    csum = np.concatenate([[0.0], np.cumsum(correct, dtype=np.float64)])
    steps = correct.size
    idx = np.arange(1, steps + 1)
    lo = np.maximum(idx - window, 0)
    return (csum[idx] - csum[lo]) / (idx - lo)


@dataclasses.dataclass
class StreamingEvalResult:
    """Everything :func:`evaluate_streaming` measured on one scenario."""

    scenario: str
    dataset: str
    model: str
    steps: int
    chunk_size: int
    accuracy: float
    predictions: np.ndarray
    correct: np.ndarray
    #: Causal rolling accuracy per step (window :attr:`curve_window`).
    accuracy_curve: np.ndarray
    curve_window: int
    changepoints: Tuple[int, ...]
    #: Mean correctness aligned at the changepoints over
    #: ``[-halo_pre, +halo_post)`` (``None`` without a complete halo).
    changepoint_curve: Optional[np.ndarray]
    changepoint_halo: Tuple[int, int]
    segment_accuracy: Tuple[float, ...]
    #: Mean accuracy in the halo before / after the changepoints.
    pre_change_accuracy: Optional[float]
    post_change_accuracy: Optional[float]
    #: Accuracy on burst-corrupted vs clean steps (``None`` without bursts).
    burst_accuracy: Optional[float]
    clean_accuracy: Optional[float]
    elapsed_s: float

    def to_record(self) -> dict:
        """JSON-serialisable record (consumed by ``repro.report``)."""
        return {
            "scenario": self.scenario,
            "dataset": self.dataset,
            "model": self.model,
            "steps": int(self.steps),
            "chunk_size": int(self.chunk_size),
            "accuracy": float(self.accuracy),
            "accuracy_curve": [float(v) for v in self.accuracy_curve],
            "curve_window": int(self.curve_window),
            "changepoints": [int(c) for c in self.changepoints],
            "changepoint_curve": (
                None
                if self.changepoint_curve is None
                else [float(v) for v in self.changepoint_curve]
            ),
            "changepoint_halo": [int(h) for h in self.changepoint_halo],
            "segment_accuracy": [float(v) for v in self.segment_accuracy],
            "pre_change_accuracy": self.pre_change_accuracy,
            "post_change_accuracy": self.post_change_accuracy,
            "burst_accuracy": self.burst_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "elapsed_s": float(self.elapsed_s),
        }


def evaluate_streaming(
    source,
    stream,
    chunk_size: int = 16,
    curve_window: int = 64,
    changepoint_halo: Tuple[int, int] = (64, 64),
    precision: Optional[str] = None,
) -> StreamingEvalResult:
    """Online evaluation of one model over one sensor-stream scenario.

    Streams ``stream.x`` through a fresh :class:`StreamingSession` in
    ``chunk_size`` pieces, scoring the per-step prediction against the
    per-step label.  Emits ``stream.start`` / ``stream.chunk`` /
    ``stream.end`` telemetry into the active
    :class:`repro.telemetry.Run` (no-op without one).

    Parameters
    ----------
    source:
        A trained model or an already-compiled plan.
    stream:
        A :class:`repro.data.SensorStream` (or anything with ``x``,
        ``labels``, ``changepoints``, ``burst_mask``, ``name``,
        ``dataset`` attributes).
    chunk_size:
        Steps per :meth:`~StreamingSession.process` call (the transport
        chunking; the result is chunking-invariant, the telemetry
        granularity is not).
    curve_window:
        Rolling window of the accuracy-over-time curve.
    changepoint_halo:
        ``(pre, post)`` steps of the accuracy-around-changepoint curve.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if curve_window < 1:
        raise ValueError("curve_window must be >= 1")
    session = StreamingSession(source, precision=precision)
    x = np.asarray(stream.x, dtype=np.float64)
    labels = np.asarray(stream.labels)
    steps = x.shape[0]
    if labels.shape[0] != steps:
        raise ValueError(
            f"stream has {steps} steps but {labels.shape[0]} labels"
        )
    changepoints = tuple(int(c) for c in stream.changepoints)
    telemetry_emit(
        "stream.start",
        scenario=stream.name,
        dataset=stream.dataset,
        model=session.plan.model_class,
        steps=steps,
        chunk_size=chunk_size,
        n_changepoints=len(changepoints),
    )
    predictions = np.empty(steps, dtype=np.int64)
    t_start = time.perf_counter()
    for lo in range(0, steps, chunk_size):
        hi = min(lo + chunk_size, steps)
        t0 = time.perf_counter()
        logits = session.process(x[lo:hi])
        chunk_pred = np.argmax(logits, axis=-1)
        predictions[lo:hi] = chunk_pred
        telemetry_emit(
            "stream.chunk",
            scenario=stream.name,
            lo=lo,
            hi=hi,
            accuracy=float(np.mean(chunk_pred == labels[lo:hi])),
            latency_ms=(time.perf_counter() - t0) * 1e3,
        )
    elapsed = time.perf_counter() - t_start

    correct = (predictions == labels).astype(np.float64)
    curve = _rolling_accuracy(correct, curve_window)

    pre, post = changepoint_halo
    halos = [
        correct[cp - pre : cp + post]
        for cp in changepoints
        if cp - pre >= 0 and cp + post <= steps
    ]
    cp_curve = np.mean(halos, axis=0) if halos else None
    pre_acc = float(np.mean(cp_curve[:pre])) if cp_curve is not None else None
    post_acc = float(np.mean(cp_curve[pre:])) if cp_curve is not None else None

    edges = [0] + list(changepoints) + [steps]
    segment_accuracy = tuple(
        float(np.mean(correct[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])
    )

    burst_mask = np.asarray(stream.burst_mask, dtype=bool)
    if burst_mask.any():
        burst_acc = float(np.mean(correct[burst_mask]))
        clean_acc = float(np.mean(correct[~burst_mask]))
    else:
        burst_acc = clean_acc = None

    result = StreamingEvalResult(
        scenario=stream.name,
        dataset=stream.dataset,
        model=session.plan.model_class,
        steps=steps,
        chunk_size=chunk_size,
        accuracy=float(np.mean(correct)),
        predictions=predictions,
        correct=correct.astype(bool),
        accuracy_curve=curve,
        curve_window=curve_window,
        changepoints=changepoints,
        changepoint_curve=cp_curve,
        changepoint_halo=(int(pre), int(post)),
        segment_accuracy=segment_accuracy,
        pre_change_accuracy=pre_acc,
        post_change_accuracy=post_acc,
        burst_accuracy=burst_acc,
        clean_accuracy=clean_acc,
        elapsed_s=elapsed,
    )
    telemetry_emit(
        "stream.end",
        scenario=stream.name,
        dataset=stream.dataset,
        model=result.model,
        steps=steps,
        accuracy=result.accuracy,
        segment_accuracy=list(result.segment_accuracy),
        pre_change_accuracy=pre_acc,
        post_change_accuracy=post_acc,
        burst_accuracy=burst_acc,
        clean_accuracy=clean_acc,
        elapsed_s=elapsed,
    )
    return result
