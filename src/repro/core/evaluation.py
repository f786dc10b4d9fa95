"""Evaluation under process variation and input perturbation.

Implements the paper's measurement protocol (Sec. IV-B): trained models
are evaluated on an (optionally augmented/perturbed) test set while the
printed components are re-drawn with ±10 % variation per Monte-Carlo
hardware instance; reported accuracy is the mean over instances.

All Monte-Carlo instances are evaluated in one vectorized forward by
default (the sampler's batched-draws context stacks logits as
``(draws, batch, classes)``); the original per-instance loop is kept
behind ``vectorized=False`` as the reference oracle.  Both paths draw
identical ε/μ/V₀ values (one child random stream per draw), so their
accuracy samples are bit-equal.

Deterministic fast path: when no variation is requested
(``mc_samples=0``, ``delta=0`` or a zero-spread variation model) the
model is evaluated exactly once under the ideal sampler instead of
re-entering the variation context per sample.

Telemetry: when a :class:`repro.telemetry.Run` is active, each
:func:`evaluate_under_variation` / :func:`evaluate_under_model` call
emits one ``evaluation`` event (accuracy mean/std, draw count, backend,
wall-clock) and the MC forwards are timed as ``evaluation`` spans.
With no active run every hook is a single ``None``-check no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..autograd import no_grad
from ..autograd.precision import get_precision, use_precision
from ..circuits import (
    NoVariation,
    UniformVariation,
    VariationModel,
    VariationSampler,
    ideal_sampler,
)
from ..nn.module import Module
from ..utils.timing import Stopwatch, mc_counters
from .. import telemetry

__all__ = [
    "accuracy",
    "evaluate_under_variation",
    "evaluate_under_model",
    "select_top_k",
    "EvaluationResult",
]


def accuracy(model: Module, x: np.ndarray, y: np.ndarray) -> float:
    """Single-forward classification accuracy (whatever sampler is installed)."""
    with no_grad():
        logits = model(x)
    pred = np.argmax(logits.data, axis=1)
    return float((pred == np.asarray(y)).mean())


@dataclass
class EvaluationResult:
    """Accuracy statistics over Monte-Carlo hardware instances."""

    mean: float
    std: float
    samples: np.ndarray

    def __repr__(self) -> str:
        return f"EvaluationResult(mean={self.mean:.3f}, std={self.std:.3f})"


@contextmanager
def _scan_backend(model: Module, backend: Optional[str]) -> Iterator[None]:
    """Temporarily select the model's filter-recurrence backend.

    ``None`` (the default) leaves whatever backend the model already
    uses; models without filter banks (no ``set_scan_backend``) ignore
    the request entirely, so the flag is inert for the Elman reference.

    The previous backend is restored even when installing the override
    (or the evaluated body) raises: ``set_scan_backend`` may validate
    and reject its argument mid-mutation, and an evaluation helper must
    never leak a half-switched backend into subsequent calls.
    """
    if backend is None or not hasattr(model, "set_scan_backend"):
        yield
        return
    original = model.scan_backend
    try:
        model.set_scan_backend(backend)
        yield
    finally:
        model.set_scan_backend(original)


@contextmanager
def _precision_scope(model: Module, precision: Optional[str]) -> Iterator[None]:
    """Temporarily evaluate ``model`` under a precision policy.

    ``None`` (the default) keeps the process-level policy and the
    model's current parameter dtypes untouched.  Otherwise the policy is
    activated for the scope and the parameters are cast to its compute
    dtype; the *original parameter arrays* are re-installed afterwards
    (restoration is by reference, so the pre-evaluation float64 values
    survive a float32 evaluation bit-exactly).
    """
    if precision is None:
        yield
        return
    params = list(model.parameters())
    saved = [p.data for p in params]
    with use_precision(precision) as policy:
        try:
            model.cast_(policy.compute)
            yield
        finally:
            for p, data in zip(params, saved):
                p.data = data
                p.grad = None


def _deterministic_result(model: Module, x: np.ndarray, y: np.ndarray) -> EvaluationResult:
    """Nominal (no-variation) evaluation: one ideal-sampler forward."""
    original = model.sampler
    try:
        model.set_sampler(ideal_sampler())
        acc = accuracy(model, x, y)
    finally:
        model.set_sampler(original)
    return EvaluationResult(mean=acc, std=0.0, samples=np.array([acc]))


def _mc_accuracy_samples(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    sampler: VariationSampler,
    mc_samples: int,
    vectorized: bool,
) -> np.ndarray:
    """Per-draw accuracies under ``sampler`` (batched or sequential).

    Both paths consume the same per-draw child random streams, so the
    returned samples are identical; the batched path simply evaluates
    them in one ``(draws, batch, ...)`` forward.
    """
    if vectorized:
        with Stopwatch() as sw, telemetry.span("evaluation"):
            with no_grad(), sampler.batched(mc_samples):
                logits = model(x)  # (draws, batch, classes)
        mc_counters.record_forward(sw.elapsed, mc_samples, backend="batched")
        mc_counters.record_precision(
            str(get_precision().compute), sw.elapsed, mc_samples
        )
        pred = np.argmax(logits.data, axis=-1)  # (draws, batch)
        return (pred == np.asarray(y)).mean(axis=1)
    streams = sampler.spawn_streams(mc_samples)
    parent = sampler.rng
    accs: List[float] = []
    with Stopwatch() as sw, telemetry.span("evaluation"):
        try:
            for stream in streams:
                sampler.rng = stream
                accs.append(accuracy(model, x, y))
        finally:
            sampler.rng = parent
    mc_counters.record_forward(sw.elapsed, mc_samples, backend="sequential")
    mc_counters.record_precision(str(get_precision().compute), sw.elapsed, mc_samples)
    return np.array(accs)


def _emit_evaluation(
    model: Module,
    result: EvaluationResult,
    *,
    variation: str,
    mc_samples: int,
    vectorized: bool,
    elapsed: float,
) -> EvaluationResult:
    """Emit one ``evaluation`` telemetry event describing ``result``.

    A no-op (single ``None``-check) when no run is active; returns
    ``result`` unchanged so callers can emit-and-return in one line.
    """
    telemetry.emit(
        "evaluation",
        model=type(model).__name__,
        variation=variation,
        mc_samples=mc_samples,
        backend="batched" if vectorized else "sequential",
        accuracy_mean=result.mean,
        accuracy_std=result.std,
        elapsed_s=elapsed,
    )
    return result


def _evaluate_with_sampler(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    sampler: VariationSampler,
    mc_samples: int,
    vectorized: bool,
) -> EvaluationResult:
    """Install ``sampler``, collect MC accuracy samples, restore."""
    original = model.sampler
    try:
        model.set_sampler(sampler)
        samples = _mc_accuracy_samples(model, x, y, sampler, mc_samples, vectorized)
    finally:
        model.set_sampler(original)
    return EvaluationResult(
        mean=float(samples.mean()), std=float(samples.std()), samples=samples
    )


def evaluate_under_variation(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    delta: float = 0.10,
    mc_samples: int = 10,
    seed: int = 0,
    vectorized: bool = True,
    scan_backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> EvaluationResult:
    """Mean accuracy over ``mc_samples`` fabricated-instance draws.

    Each draw installs fresh ±``delta`` component variations (plus
    sampled μ and V₀) and classifies the whole test set — all draws in
    a single vectorized forward unless ``vectorized=False`` selects the
    sequential reference oracle.  The model's original sampler is
    restored afterwards.  Hardware-agnostic models (no ``set_sampler``)
    are evaluated once, deterministically, as is the explicit
    no-variation case (``mc_samples=0`` or ``delta=0``).

    ``scan_backend`` temporarily selects the filter-recurrence backend
    (``"fused"``/``"unfused"``) for the duration of the evaluation;
    ``None`` keeps the model's current backend.  ``precision``
    temporarily evaluates under a precision policy (casting parameters
    to its compute dtype and restoring the original arrays afterwards);
    ``None`` keeps the active policy and parameter dtypes.
    """
    if not hasattr(model, "set_sampler"):
        acc = accuracy(model, x, y)
        return EvaluationResult(mean=acc, std=0.0, samples=np.array([acc]))
    if mc_samples < 0:
        raise ValueError("mc_samples must be >= 0")
    with Stopwatch() as sw, _precision_scope(model, precision), _scan_backend(
        model, scan_backend
    ):
        if mc_samples == 0 or delta == 0.0:
            # Deterministic fast path: no variation context is entered at
            # all — one nominal forward under the ideal sampler.
            result = _deterministic_result(model, x, y)
            draws = 0
        else:
            sampler = VariationSampler(
                model=UniformVariation(delta), rng=np.random.default_rng(seed)
            )
            result = _evaluate_with_sampler(model, x, y, sampler, mc_samples, vectorized)
            draws = mc_samples
    return _emit_evaluation(
        model,
        result,
        variation=f"uniform(delta={delta})" if draws else "none",
        mc_samples=draws,
        vectorized=vectorized,
        elapsed=sw.elapsed,
    )


def evaluate_under_model(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    variation: VariationModel,
    mc_samples: int = 10,
    seed: int = 0,
    vectorized: bool = True,
    scan_backend: Optional[str] = None,
    precision: Optional[str] = None,
) -> EvaluationResult:
    """Mean accuracy under an arbitrary variation distribution.

    Generalises :func:`evaluate_under_variation` to any
    :class:`~repro.circuits.VariationModel` — e.g. the Gaussian-mixture
    device-level model of Rasheed et al. [24] — so robustness can be
    compared across printing-process assumptions.  ``mc_samples=0`` or
    a :class:`~repro.circuits.NoVariation` model short-circuit to the
    deterministic nominal evaluation.  ``scan_backend`` and
    ``precision`` temporarily select the filter-recurrence backend and
    the precision policy, as in :func:`evaluate_under_variation`.
    """
    if not hasattr(model, "set_sampler"):
        acc = accuracy(model, x, y)
        return EvaluationResult(mean=acc, std=0.0, samples=np.array([acc]))
    if mc_samples < 0:
        raise ValueError("mc_samples must be >= 0")
    with Stopwatch() as sw, _precision_scope(model, precision), _scan_backend(
        model, scan_backend
    ):
        if mc_samples == 0 or isinstance(variation, NoVariation):
            result = _deterministic_result(model, x, y)
            draws = 0
        else:
            sampler = VariationSampler(model=variation, rng=np.random.default_rng(seed))
            result = _evaluate_with_sampler(model, x, y, sampler, mc_samples, vectorized)
            draws = mc_samples
    return _emit_evaluation(
        model,
        result,
        variation=type(variation).__name__ if draws else "none",
        mc_samples=draws,
        vectorized=vectorized,
        elapsed=sw.elapsed,
    )


def select_top_k(
    scores: Sequence[float], k: int = 3
) -> List[int]:
    """Indices of the top-``k`` scores (descending), per the paper's
    "top three models for each dataset based on their accuracy" rule."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(scores)[::-1]
    return [int(i) for i in order[: min(k, len(order))]]
