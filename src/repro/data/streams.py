"""Sensor-stream scenario generators for online (streaming) evaluation.

Everything upstream of this module is an offline, fixed-length-64
window; a deployed printed circuit instead sees an *unbounded* sensor
voltage whose statistics shift while it runs.  This module layers
streaming scenarios over the synthetic benchmark generators
(:mod:`repro.data.generators`):

* **concept drift** — the active class changes at configurable
  changepoints (:func:`drift_stream`);
* **sensor fault bursts** — dropout (signal collapses to 0 V),
  saturation (rail-clipping) and stuck-at (the sample-and-hold freezes)
  bursts injected over a drifting stream (:func:`burst_stream`,
  :func:`inject_bursts`);
* **variable-rate resampling** — the effective sensor sampling rate
  wanders, stretching/compressing each segment in time
  (:func:`resampled_stream`);
* **long horizons** — T ≫ 64 concatenations that hold class statistics
  for thousands of steps (:func:`long_horizon_stream`).

Every scenario is **seeded and replayable**: the same ``(scenario,
dataset, seed)`` triple produces a bit-identical
:class:`SensorStream` in any process (pinned by
``tests/data/test_streams.py``).  Streams are built from length-64
windows resized/normalised exactly like the training pipeline
(:func:`~repro.data.preprocessing.resize_series` /
:func:`~repro.data.preprocessing.normalize_series`), so a model trained
offline sees in-distribution segments separated by realistic
discontinuities.

Use :func:`make_stream` (or the :data:`STREAM_SCENARIOS` registry) to
build scenarios by name — the path the ``python -m repro stream-eval``
CLI and the streaming benchmark take.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .datasets import DATASET_INFO
from .generators import generate
from .preprocessing import normalize_series, resize_series

__all__ = [
    "SensorStream",
    "BURST_KINDS",
    "STREAM_SCENARIOS",
    "make_stream",
    "drift_stream",
    "burst_stream",
    "inject_bursts",
    "resampled_stream",
    "long_horizon_stream",
]

#: Supported sensor-fault burst kinds.
BURST_KINDS = ("dropout", "saturation", "stuck")


@dataclasses.dataclass(frozen=True)
class SensorStream:
    """One replayable sensor stream with per-step ground truth.

    ``x`` is the univariate signal ``(steps,)`` in [-1, 1]; ``labels``
    the per-step class; ``changepoints`` the step indices where the
    active class switches; ``burst_mask`` flags the steps a sensor
    fault corrupted.
    """

    name: str
    dataset: str
    seed: int
    x: np.ndarray
    labels: np.ndarray
    changepoints: Tuple[int, ...]
    burst_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 1:
            raise ValueError(f"stream signal must be 1-D, got {self.x.shape}")
        if self.labels.shape != self.x.shape or self.burst_mask.shape != self.x.shape:
            raise ValueError(
                f"labels {self.labels.shape} and burst_mask "
                f"{self.burst_mask.shape} must match signal {self.x.shape}"
            )
        for cp in self.changepoints:
            if not 0 < cp < self.x.size:
                raise ValueError(f"changepoint {cp} outside (0, {self.x.size})")

    @property
    def steps(self) -> int:
        """Stream length in samples."""
        return int(self.x.size)

    def segments(self) -> List[Tuple[int, int, int]]:
        """The ``(lo, hi, label)`` spans between changepoints."""
        edges = [0] + list(self.changepoints) + [self.steps]
        return [
            (lo, hi, int(self.labels[lo])) for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def __repr__(self) -> str:
        return (
            f"SensorStream({self.name!r}, dataset={self.dataset!r}, "
            f"seed={self.seed}, steps={self.steps}, "
            f"changepoints={len(self.changepoints)})"
        )


def _window_pool(
    dataset: str, seed: int, needed: Dict[int, int]
) -> Dict[int, np.ndarray]:
    """Deterministic per-class pools of normalised length-64 windows.

    Draws batches from the dataset's synthetic generator (seed-offset
    per refill, so the pool is a pure function of ``(dataset, seed)``)
    until every class has its requested window count.
    """
    if dataset not in DATASET_INFO:
        raise KeyError(f"unknown dataset {dataset!r} (known: {', '.join(DATASET_INFO)})")
    buckets: Dict[int, List[np.ndarray]] = {c: [] for c in needed}
    batch = max(32, 4 * sum(needed.values()))
    for refill in range(64):
        if all(len(buckets[c]) >= n for c, n in needed.items()):
            break
        x, y = generate(dataset, batch, seed=seed + 1_000_003 * refill)
        x = normalize_series(resize_series(x))
        for xi, yi in zip(x, y):
            c = int(yi)
            if c in buckets and len(buckets[c]) < needed[c]:
                buckets[c].append(xi)
    short = {c: n for c, n in needed.items() if len(buckets[c]) < n}
    if short:
        raise RuntimeError(
            f"generator {dataset!r} did not produce enough windows for "
            f"classes {sorted(short)}"
        )
    return {c: np.stack(buckets[c]) for c in buckets}


def _segment_classes(
    n_segments: int, n_classes: int, rng: np.random.Generator
) -> List[int]:
    """Per-segment classes; consecutive segments always differ (so every
    interior boundary is a genuine changepoint) unless only one class
    exists."""
    classes: List[int] = []
    for _ in range(n_segments):
        c = int(rng.integers(0, n_classes))
        while n_classes > 1 and classes and c == classes[-1]:
            c = int(rng.integers(0, n_classes))
        classes.append(c)
    return classes


def drift_stream(
    dataset: str = "Slope",
    *,
    segments: int = 6,
    windows_per_segment: int = 3,
    seed: int = 0,
    name: str = "drift",
) -> SensorStream:
    """Concept-drift stream: the active class shifts at changepoints.

    Each of ``segments`` spans concatenates ``windows_per_segment``
    in-distribution windows of one class; consecutive segments carry
    different classes, so every interior boundary is a changepoint
    (``segments - 1`` of them, each ``windows_per_segment * 64`` steps
    apart).
    """
    if segments < 1 or windows_per_segment < 1:
        raise ValueError("segments and windows_per_segment must be >= 1")
    if dataset not in DATASET_INFO:
        raise KeyError(f"unknown dataset {dataset!r} (known: {', '.join(DATASET_INFO)})")
    rng = np.random.default_rng(seed)
    n_classes = DATASET_INFO[dataset].n_classes
    classes = _segment_classes(segments, n_classes, rng)
    needed: Dict[int, int] = {}
    for c in classes:
        needed[c] = needed.get(c, 0) + windows_per_segment
    pool = _window_pool(dataset, seed, needed)
    cursor = {c: 0 for c in pool}

    pieces: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    changepoints: List[int] = []
    steps = 0
    for c in classes:
        if steps:
            changepoints.append(steps)
        take = pool[c][cursor[c] : cursor[c] + windows_per_segment]
        cursor[c] += windows_per_segment
        segment = take.reshape(-1)
        pieces.append(segment)
        labels.append(np.full(segment.size, c, dtype=np.int64))
        steps += segment.size
    x = np.concatenate(pieces)
    return SensorStream(
        name=name,
        dataset=dataset,
        seed=seed,
        x=x,
        labels=np.concatenate(labels),
        changepoints=tuple(changepoints),
        burst_mask=np.zeros(x.size, dtype=bool),
    )


def inject_bursts(
    stream: SensorStream,
    kind: str,
    *,
    rate: float = 0.08,
    length_range: Tuple[int, int] = (4, 16),
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> SensorStream:
    """Inject sensor-fault bursts into an existing stream.

    ``rate`` is the target fraction of corrupted steps; bursts have
    uniformly drawn lengths in ``length_range`` and may overlap.  Kinds:

    * ``dropout`` — the sensor line floats to 0 V;
    * ``saturation`` — the front-end clips to the nearer ±1 rail;
    * ``stuck`` — the sample-and-hold repeats the value at burst start.

    Fully deterministic in ``seed`` (defaulting to a fixed offset of the
    stream's own seed); the returned stream's :attr:`~SensorStream.burst_mask`
    marks exactly the corrupted steps.
    """
    if kind not in BURST_KINDS:
        raise ValueError(f"burst kind must be one of {BURST_KINDS}, got {kind!r}")
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    lo, hi = length_range
    if not 1 <= lo <= hi < stream.steps:
        raise ValueError(f"invalid burst length_range {length_range}")
    rng = np.random.default_rng(stream.seed + 7919 if seed is None else seed)
    x = stream.x.copy()
    mask = np.zeros(stream.steps, dtype=bool)
    mean_len = (lo + hi) / 2.0
    n_bursts = max(1, int(round(rate * stream.steps / mean_len)))
    for _ in range(n_bursts):
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, stream.steps - length + 1))
        span = slice(start, start + length)
        if kind == "dropout":
            x[span] = 0.0
        elif kind == "saturation":
            x[span] = np.where(stream.x[span] >= 0.0, 1.0, -1.0)
        else:  # stuck
            x[span] = x[start]
        mask[span] = True
    return SensorStream(
        name=name if name is not None else f"{stream.name}+{kind}",
        dataset=stream.dataset,
        seed=stream.seed,
        x=x,
        labels=stream.labels,
        changepoints=stream.changepoints,
        burst_mask=mask,
    )


def burst_stream(
    dataset: str = "Slope",
    *,
    kind: str = "dropout",
    segments: int = 4,
    windows_per_segment: int = 3,
    rate: float = 0.08,
    length_range: Tuple[int, int] = (4, 16),
    seed: int = 0,
) -> SensorStream:
    """A drifting stream with ``kind`` sensor-fault bursts injected."""
    base = drift_stream(
        dataset,
        segments=segments,
        windows_per_segment=windows_per_segment,
        seed=seed,
        name=kind,
    )
    return inject_bursts(
        base, kind, rate=rate, length_range=length_range, name=kind
    )


def resampled_stream(
    dataset: str = "Slope",
    *,
    segments: int = 4,
    windows_per_segment: int = 3,
    rate_range: Tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
) -> SensorStream:
    """Variable-rate stream: each segment's effective sampling rate is
    drawn from ``rate_range`` and the segment is linearly resampled
    accordingly (rate > 1 compresses — the sensor under-samples; rate <
    1 stretches).  Changepoints move to the resampled boundaries."""
    lo_r, hi_r = rate_range
    if not 0 < lo_r <= hi_r:
        raise ValueError(f"invalid rate_range {rate_range}")
    base = drift_stream(
        dataset,
        segments=segments,
        windows_per_segment=windows_per_segment,
        seed=seed,
        name="resample",
    )
    rng = np.random.default_rng(seed + 104729)
    pieces: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    changepoints: List[int] = []
    steps = 0
    for lo, hi, label in base.segments():
        if steps:
            changepoints.append(steps)
        segment = base.x[lo:hi]
        rate = float(rng.uniform(lo_r, hi_r))
        new_len = max(8, int(round(segment.size / rate)))
        src = np.linspace(0.0, 1.0, segment.size)
        dst = np.linspace(0.0, 1.0, new_len)
        warped = np.interp(dst, src, segment)
        pieces.append(warped)
        labels.append(np.full(new_len, label, dtype=np.int64))
        steps += new_len
    x = np.concatenate(pieces)
    return SensorStream(
        name="resample",
        dataset=dataset,
        seed=seed,
        x=x,
        labels=np.concatenate(labels),
        changepoints=tuple(changepoints),
        burst_mask=np.zeros(x.size, dtype=bool),
    )


def long_horizon_stream(
    dataset: str = "Slope",
    *,
    segments: int = 2,
    windows_per_segment: int = 24,
    seed: int = 0,
) -> SensorStream:
    """Long-horizon stream: T ≫ 64 (default 2 × 24 × 64 = 3072 steps)
    with class statistics held for thousands of steps per segment."""
    return drift_stream(
        dataset,
        segments=segments,
        windows_per_segment=windows_per_segment,
        seed=seed,
        name="long-horizon",
    )


def _dropout_stream(dataset: str = "Slope", *, seed: int = 0, **kw) -> SensorStream:
    """Drift + dropout bursts (see :func:`burst_stream`)."""
    return burst_stream(dataset, kind="dropout", seed=seed, **kw)


def _saturation_stream(dataset: str = "Slope", *, seed: int = 0, **kw) -> SensorStream:
    """Drift + saturation bursts (see :func:`burst_stream`)."""
    return burst_stream(dataset, kind="saturation", seed=seed, **kw)


def _stuck_stream(dataset: str = "Slope", *, seed: int = 0, **kw) -> SensorStream:
    """Drift + stuck-at bursts (see :func:`burst_stream`)."""
    return burst_stream(dataset, kind="stuck", seed=seed, **kw)


#: Scenario registry: name -> builder ``(dataset, *, seed, **kw)``.
STREAM_SCENARIOS: Dict[str, Callable[..., SensorStream]] = {
    "drift": drift_stream,
    "dropout": _dropout_stream,
    "saturation": _saturation_stream,
    "stuck": _stuck_stream,
    "resample": resampled_stream,
    "long-horizon": long_horizon_stream,
}


def make_stream(
    scenario: str, dataset: str = "Slope", seed: int = 0, **overrides
) -> SensorStream:
    """Build one named scenario (the CLI/benchmark entry point)."""
    try:
        builder = STREAM_SCENARIOS[scenario]
    except KeyError:
        raise KeyError(
            f"unknown stream scenario {scenario!r} "
            f"(known: {', '.join(STREAM_SCENARIOS)})"
        ) from None
    return builder(dataset, seed=seed, **overrides)
