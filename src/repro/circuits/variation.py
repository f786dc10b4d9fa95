"""Process-variation models and the reparameterisation sampler.

The paper (Sec. III-A) treats every printed component value as a random
variable ``v = v₀ ⊙ ε`` with multiplicative variation ε drawn from a
distribution describing the printing process: a uniform model for
electrical characteristics [20, 23] and a Gaussian-mixture model at the
device level [24].  :class:`VariationSampler` draws the ε tensors used
by the Monte-Carlo training objective (Eq. 13/14).

Batched Monte-Carlo draws
-------------------------
Inside a :meth:`VariationSampler.batched` context every draw method
(``epsilon`` / ``mu`` / ``initial_voltage``) returns arrays with a
leading ``draws`` axis, so a single forward pass through the printed
modules evaluates *all* Monte-Carlo hardware instances at once as a
``(draws, batch, ...)`` numpy computation.

Equivalence with the sequential oracle is guaranteed by construction:
both paths derive one independent child generator per draw from the
sampler's parent generator (:meth:`spawn_streams`).  Draw ``d`` then
consumes *its own* stream in module-call order, which is exactly the
stream a sequential forward pass for draw ``d`` would consume — so the
sampled ε/μ/V₀ values are bit-identical between the two paths.

Precision policy
----------------
Random draws are always *generated* in float64 — numpy's Generator
produces float64 streams, and keeping the generation dtype fixed means
every precision policy consumes the identical random sequence — and
then cast once to the active policy's compute dtype at the draw-method
boundary (a no-op under the default float64 policy).  A float32 run
therefore sees exactly ``float64_draw.astype(float32)`` of what the
float64 oracle sees.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd.precision import compute_dtype
from ..telemetry import record_span

__all__ = [
    "VariationModel",
    "NoVariation",
    "UniformVariation",
    "GMMVariation",
    "VariationSampler",
]


class VariationModel:
    """Distribution over multiplicative component-value factors ε."""

    def sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw an ε array of the given shape (all entries > 0)."""
        raise NotImplementedError

    def spread(self) -> float:
        """A scalar summary of the dispersion (used in reports)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoVariation(VariationModel):
    """Ideal process: ε ≡ 1 (used by the no-variation-aware baseline)."""

    def sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return np.ones(shape)

    def spread(self) -> float:
        return 0.0


@dataclass(frozen=True)
class UniformVariation(VariationModel):
    """ε ~ U(1 - δ, 1 + δ) — the paper's headline ±10 % printing variation."""

    delta: float = 0.10

    def __post_init__(self) -> None:
        if not 0 <= self.delta < 1:
            raise ValueError("delta must be in [0, 1)")

    def sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(1.0 - self.delta, 1.0 + self.delta, size=shape)

    def spread(self) -> float:
        return self.delta


@dataclass(frozen=True)
class GMMVariation(VariationModel):
    """Gaussian-mixture device-level variation per Rasheed et al. [24].

    Components are ``(weight, mean, sigma)`` triples over the
    multiplicative factor; weights must sum to 1.
    """

    weights: Tuple[float, ...] = (0.7, 0.3)
    means: Tuple[float, ...] = (0.98, 1.05)
    sigmas: Tuple[float, ...] = (0.04, 0.08)

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.means) == len(self.sigmas)):
            raise ValueError("mixture component lists must have equal length")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if any(w < 0 for w in self.weights) or any(s < 0 for s in self.sigmas):
            raise ValueError("weights and sigmas must be non-negative")

    def sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        flat = int(np.prod(shape)) if shape else 1
        component = rng.choice(len(self.weights), size=flat, p=np.asarray(self.weights))
        means = np.asarray(self.means)[component]
        sigmas = np.asarray(self.sigmas)[component]
        eps = rng.normal(means, sigmas)
        return np.clip(eps, 1e-3, None).reshape(shape)

    def spread(self) -> float:
        means = np.asarray(self.means)
        weights = np.asarray(self.weights)
        sigmas = np.asarray(self.sigmas)
        mean = float(weights @ means)
        second = float(weights @ (sigmas**2 + means**2))
        return float(np.sqrt(max(second - mean**2, 0.0)))


@dataclass
class VariationSampler:
    """Sampler bundling the component-variation model with the
    non-trainable randomness of Sec. III-A: the coupling factor
    μ ~ U[mu_low, mu_high] and the filter initial voltage
    V₀ ~ U[0, v0_max].

    One :class:`VariationSampler` is shared across a model so a single
    seed controls the whole Monte-Carlo draw.
    """

    model: VariationModel = field(default_factory=lambda: UniformVariation(0.10))
    mu_low: float = 1.0
    mu_high: float = 1.3
    v0_max: float = 0.1
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    #: Active per-draw child generators; ``None`` outside a
    #: :meth:`batched` context (runtime state, not configuration).
    _draw_streams: Optional[List[np.random.Generator]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 < self.mu_low <= self.mu_high:
            raise ValueError("need 0 < mu_low <= mu_high")
        if self.v0_max < 0:
            raise ValueError("v0_max must be non-negative")

    # -- batched Monte-Carlo draws ------------------------------------------

    @property
    def draws(self) -> Optional[int]:
        """Active batched draw count, or ``None`` in sequential mode."""
        return None if self._draw_streams is None else len(self._draw_streams)

    def spawn_streams(self, draws: int) -> List[np.random.Generator]:
        """Derive ``draws`` independent child generators from the parent.

        Deterministic given the parent generator's state; used by both
        the batched path and the sequential oracle so their per-draw
        random streams are identical.
        """
        if draws < 1:
            raise ValueError("draws must be >= 1")
        start = time.perf_counter()
        try:
            streams = list(self.rng.spawn(draws))
        except AttributeError:  # numpy < 1.25 fallback
            seeds = self.rng.integers(0, 2**63 - 1, size=draws)
            streams = [np.random.default_rng(int(s)) for s in seeds]
        record_span("sampler.spawn", time.perf_counter() - start)
        return streams

    @contextmanager
    def batched(self, draws: int) -> Iterator["VariationSampler"]:
        """Context in which all draw methods gain a leading ``draws`` axis."""
        if self._draw_streams is not None:
            raise RuntimeError("batched() contexts cannot be nested")
        self._draw_streams = self.spawn_streams(draws)
        try:
            yield self
        finally:
            self._draw_streams = None

    def _per_draw(self, fn) -> np.ndarray:
        """Stack ``fn(stream)`` over the active draw streams."""
        assert self._draw_streams is not None
        return np.stack([fn(stream) for stream in self._draw_streams])

    # -- draw methods --------------------------------------------------------

    def epsilon(self, shape: Sequence[int]) -> np.ndarray:
        """Draw component-variation factors ε of the given shape.

        Returns ``shape`` in sequential mode, ``(draws,) + shape``
        inside a :meth:`batched` context.
        """
        shape = tuple(shape)
        start = time.perf_counter()
        if self._draw_streams is not None:
            out = self._per_draw(lambda rng: self.model.sample(shape, rng))
        else:
            out = self.model.sample(shape, self.rng)
        out = np.asarray(out, dtype=compute_dtype())
        record_span("sampler.draw", time.perf_counter() - start)
        return out

    def mu(self, shape: Sequence[int]) -> np.ndarray:
        """Draw coupling factors μ ∈ [mu_low, mu_high] (batched-aware)."""
        shape = tuple(shape)
        if self._draw_streams is not None:
            out = self._per_draw(
                lambda rng: rng.uniform(self.mu_low, self.mu_high, size=shape)
            )
        else:
            out = self.rng.uniform(self.mu_low, self.mu_high, size=shape)
        return np.asarray(out, dtype=compute_dtype())

    def initial_voltage(self, shape: Sequence[int]) -> np.ndarray:
        """Draw filter initial voltages V₀ ∈ [0, v0_max] (batched-aware)."""
        shape = tuple(shape)
        if self.v0_max == 0:
            if self._draw_streams is not None:
                return np.zeros((len(self._draw_streams),) + shape, dtype=compute_dtype())
            return np.zeros(shape, dtype=compute_dtype())
        if self._draw_streams is not None:
            out = self._per_draw(
                lambda rng: rng.uniform(0.0, self.v0_max, size=shape)
            )
        else:
            out = self.rng.uniform(0.0, self.v0_max, size=shape)
        return np.asarray(out, dtype=compute_dtype())

    def reseed(self, seed: int) -> None:
        """Reset the internal generator (per-experiment reproducibility)."""
        self.rng = np.random.default_rng(seed)


def ideal_sampler() -> VariationSampler:
    """Sampler with no component variation, μ = 1 and V₀ = 0.

    Used at clean-evaluation time and by the no-variation-aware
    baseline's training loop.
    """
    return VariationSampler(model=NoVariation(), mu_low=1.0, mu_high=1.0, v0_max=0.0)


__all__.append("ideal_sampler")


def check_draws_input(
    x, features: int, sampler: VariationSampler, axes: str = "batch"
) -> None:
    """Validate a printed module's input shape against the draws context.

    ``axes`` names the leading axes of one instance's input (``"batch"``
    for the crossbar and the ptanh, ``"batch, time"`` for a filter
    bank); the last axis must hold ``features``.  Inside a
    :meth:`VariationSampler.batched` context a leading draws axis is
    also accepted and must equal the active draw count exactly — one
    draw per Monte-Carlo instance, never broadcast.

    Raises
    ------
    ValueError
        Naming the expected and the observed shapes.
    """
    rank = axes.count(",") + 2
    batched = sampler.draws is not None
    if x.ndim == rank and x.shape[-1] == features:
        return
    if batched and x.ndim == rank + 1 and x.shape[-1] == features:
        if x.shape[0] != sampler.draws:
            raise ValueError(
                f"draws axis {x.shape[0]} does not match active batch of "
                f"{sampler.draws} Monte-Carlo draws"
            )
        return
    expected = f"(draws, {axes}, n) or " if batched else ""
    raise ValueError(f"expected {expected}({axes}, {features}), got {x.shape}")
