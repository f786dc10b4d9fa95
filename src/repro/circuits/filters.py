"""Learnable printed low-pass filters — the paper's core contribution.

A first-order printed RC stage driven at step size Δt obeys the
backward-Euler recurrence (paper Eq. 3, with the left-hand index typo
corrected: the first right-hand term reads ``V_out,K−1``):

    V_out,k = a · V_out,k−1 + b · V_in,k
    a = R·C / (R·C + μ·Δt),    b = Δt / (R·C + μ·Δt)

where μ ≥ 1 is the coupling factor accounting for current shunted into
the following stage (Eqs. 6-11; μ = 1 for an unloaded stage).

Note the placement of μ: discretising the *loaded* stage equation
``C dV/dt = (V_in − V)/R − V/R_load`` gives
``V_k = (RC·V_{k−1} + Δt·V_in) / (RC + κ·Δt)`` with
``κ = 1 + R/R_load`` — the coupling factor scales the Δt term, so the
DC gain is 1/κ ∈ [0.77, 1] for κ ∈ [1, 1.3], *independent of RC*.
The paper's Eqs. (10)-(11) print μ against RC instead, which would make
the DC gain collapse as Δt/((μ−1)RC + Δt) for long time constants — an
artefact of the typo'd equations, not of the circuit (the physical DC
gain of a resistively loaded RC stage cannot depend on C).  See
DESIGN.md for the full derivation.

The second-order learnable filter (SO-LF) chains two such stages with
independently trained R₁, C₁, R₂, C₂ — "despite previous work, in our
approach the resistors and capacitors are trained separately"
(Sec. III-1).

R and C are trained in log-space so positivity (printability) is
guaranteed; during variation-aware training each draw multiplies them
by sampled ε factors, and μ and the initial voltage V₀ are themselves
sampled per forward pass (Sec. III-A).

Scan backends
-------------
The time-unrolled recurrence is evaluated by one of two backends:

* ``"fused"`` (default) — the whole scan runs as a single custom
  autograd node (:func:`repro.autograd.filter_scan`) with an analytic
  reverse-time adjoint backward;
* ``"unfused"`` — the original node-per-step graph, retained as the
  bit-equal reference oracle (mirroring the Monte-Carlo engine's
  ``mc_backend`` pattern).

Both perform identical per-element arithmetic, so forward values are
bit-equal and gradients agree to floating-point accumulation order.
Per-backend wall-clock is recorded in
:data:`repro.utils.timing.mc_counters` and, while a
:class:`repro.telemetry.Run` is active, aggregated as
``scan.<backend>`` spans in the run's telemetry.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, stack
from ..autograd.function import FilterScan, FilterScanReadout
from ..nn.module import Module, Parameter
from ..telemetry import record_span
from ..utils.timing import Stopwatch, mc_counters
from .pdk import DEFAULT_PDK, PrintedPDK
from .variation import VariationSampler, check_draws_input, ideal_sampler

__all__ = [
    "FirstOrderLearnableFilter",
    "SecondOrderLearnableFilter",
    "SCAN_BACKENDS",
    "filter_stages",
]

#: Default temporal discretisation: 1 kHz sensor sampling.
DEFAULT_DT = 1e-3

#: Valid recurrence evaluation backends: the fused single-node scan
#: kernel and the node-per-step reference oracle.
SCAN_BACKENDS = ("fused", "unfused")


def _init_log_rc(
    num_filters: int, pdk: PrintedPDK, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Log-space initial R (Ω) and C (F) drawn log-uniformly inside the
    printable window.

    Capacitances start in the upper printable decade — "the
    capacitances are designed as high as the printing technology
    allows" (Sec. IV-A1) — giving time constants RC up to ~100 ms so a
    1 kHz-sampled length-64 sequence fits inside the filter's memory.
    Gradient descent shortens them per channel where the task wants
    faster dynamics.
    """
    log_r = rng.uniform(np.log(pdk.filter_r_min * 4), np.log(pdk.filter_r_max), num_filters)
    log_c = rng.uniform(np.log(10e-6), np.log(pdk.capacitance_max), num_filters)
    return log_r, log_c


def _check_filter_input(x: Tensor, num_filters: int, sampler: VariationSampler) -> None:
    """Validate filter-bank input shape (draws-axis aware).

    Sequential mode expects ``(batch, time, n)``; inside a batched
    sampler context a leading draws axis is also accepted (and, when
    present, must match the active draw count).
    """
    check_draws_input(x, num_filters, sampler, "batch, time")


class _RCStage(Module):
    """One learnable printed RC stage operating on ``(batch, n)`` steps."""

    def __init__(
        self,
        num_filters: int,
        pdk: PrintedPDK,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        log_r, log_c = _init_log_rc(num_filters, pdk, rng)
        self.log_r = Parameter(log_r)
        self.log_c = Parameter(log_c)
        self.num_filters = num_filters
        self.pdk = pdk

    def coefficients(
        self, dt: float, sampler: VariationSampler
    ) -> Tuple[Tensor, Tensor]:
        """Sampled recurrence coefficients ``(a, b)`` for one forward pass.

        ``(n,)`` in sequential mode; ``(draws, n)`` when the sampler is
        inside a :meth:`~repro.circuits.VariationSampler.batched`
        context (every Monte-Carlo draw evaluated in one pass).
        """
        n = self.num_filters
        eps_r = Tensor(sampler.epsilon((n,)))
        eps_c = Tensor(sampler.epsilon((n,)))
        mu = Tensor(sampler.mu((n,)))
        r = self.log_r.exp() * eps_r
        c = self.log_c.exp() * eps_c
        rc = r * c
        # One reciprocal instead of two divides (and no materialised
        # ``np.full(n, dt)`` constant node): a = rc·inv, b = dt·inv.
        inv = 1.0 / (rc + mu * dt)
        return rc * inv, inv * dt

    def nominal_coefficients(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Ideal-instance recurrence coefficients ``(a, b)`` as plain arrays.

        Performs the exact arithmetic of :meth:`coefficients` under
        :func:`~repro.circuits.ideal_sampler` (ε ≡ 1, μ ≡ 1) — one
        reciprocal, then ``a = rc·inv``, ``b = inv·dt`` — so consumers
        that freeze the nominal instance (:class:`~repro.core.StreamingClassifier`,
        :func:`repro.compile.compile_plan`) are bit-equal to the live
        forward pass.  No autograd graph is built.
        """
        rc = np.exp(self.log_r.data) * np.exp(self.log_c.data)
        inv = 1.0 / (rc + dt)
        return rc * inv, inv * dt

    def nominal_values(self) -> Tuple[np.ndarray, np.ndarray]:
        """Nominal (R, C) values in Ω and F, clipped to the printable window."""
        r = np.exp(self.log_r.data)
        c = np.exp(self.log_c.data)
        r = np.clip(r, self.pdk.filter_r_min, self.pdk.filter_r_max)
        c = np.clip(c, self.pdk.capacitance_min, self.pdk.capacitance_max)
        return r, c


def _unfused_recurrence(
    x: Tensor, a: Tensor, b: Tensor, v0: Tensor, readout: bool = False
) -> Tensor:
    """Node-per-step oracle: one autograd node per primitive per step.

    ``readout`` returns the final state ``v_T`` instead of the stacked
    sequence.
    """
    steps = x.shape[-2]
    if a.ndim == 2:
        # (draws, n) -> (draws, 1, n): broadcast over the batch axis.
        a = a.unsqueeze(1)
        b = b.unsqueeze(1)
    v = v0
    outputs: List[Tensor] = []
    for k in range(steps):
        v = a * v + b * x[..., k, :]
        outputs.append(v)
    return v if readout else stack(outputs, axis=-2)


def filter_stages(filters) -> "List[_RCStage]":
    """The ordered :class:`_RCStage` list of a learnable filter bank.

    The **single** dispatch point shared by every consumer that freezes
    or streams a filter bank — :func:`repro.compile.compile_plan`,
    :class:`~repro.core.StreamingSession` and the SPICE exporter all
    resolve stages through here, so their recurrence coefficients can
    never drift apart.
    """
    if isinstance(filters, FirstOrderLearnableFilter):
        return [filters.stage]
    if isinstance(filters, SecondOrderLearnableFilter):
        return [filters.stage1, filters.stage2]
    raise TypeError(f"unsupported filter bank {type(filters).__name__}")


def _run_recurrence(
    x: Tensor,
    a: Tensor,
    b: Tensor,
    v0: Tensor,
    backend: str = "fused",
    readout: bool = False,
) -> Tensor:
    """Apply ``v_k = a v_{k-1} + b x_k`` along the time axis.

    Shape-polymorphic over the Monte-Carlo ``draws`` axis:

    * sequential — ``x`` is ``(batch, time, n)``; ``a``/``b`` are
      ``(n,)``; ``v0`` is ``(batch, n)`` or ``(n,)``;
    * batched — ``a``/``b`` carry a leading draws axis ``(draws, n)``
      and ``v0`` is ``(draws, batch, n)``; ``x`` may be the shared
      input ``(batch, time, n)`` (broadcast over draws) or an already
      draw-dependent ``(draws, batch, time, n)`` stack.

    Returns ``(batch, time, n)`` or ``(draws, batch, time, n)`` — or,
    with ``readout``, only the final step: ``(batch, n)`` or
    ``(draws, batch, n)``.

    ``backend`` selects the evaluation strategy: ``"fused"`` runs the
    whole scan as one custom autograd node with an analytic adjoint
    backward (:func:`repro.autograd.filter_scan`); ``"unfused"`` is the
    original node-per-step graph, kept as the bit-equal reference
    oracle.  Forward wall-clock per backend is recorded in
    :data:`repro.utils.timing.mc_counters`.
    """
    if backend not in SCAN_BACKENDS:
        raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}, got {backend!r}")
    with Stopwatch() as sw:
        if backend == "fused":
            scan = FilterScanReadout if readout else FilterScan
            out = scan.apply(x, a, b, v0)
        else:
            out = _unfused_recurrence(x, a, b, v0, readout)
    mc_counters.record_scan(sw.elapsed, backend)
    record_span(f"scan.{backend}", sw.elapsed)
    return out


def _filter_bank(filters, x: Tensor, readout: bool) -> Tensor:
    """Shared FO/SO implementation of ``forward`` and ``readout``.

    Draws every stage's coefficients, then every stage's initial
    voltage, in stage order, and chains the stages' recurrences.  With
    ``readout`` the last stage returns its final step only.
    """
    _check_filter_input(x, filters.num_filters, filters.sampler)
    stages = filter_stages(filters)
    coefficients = [stage.coefficients(filters.dt, filters.sampler) for stage in stages]
    shape = (x.shape[-3], filters.num_filters)
    v0s = [Tensor(filters.sampler.initial_voltage(shape)) for _ in stages]
    out = x
    for i, ((a, b), v0) in enumerate(zip(coefficients, v0s)):
        last = readout and i == len(stages) - 1
        out = _run_recurrence(out, a, b, v0, backend=filters.scan_backend, readout=last)
    return out


def _chunk_forward(
    filters, x: Tensor, state: Optional[Tuple[np.ndarray, ...]]
) -> Tuple[Tensor, Tuple[np.ndarray, ...]]:
    """Shared FO/SO implementation of ``forward_chunk`` (see below).

    Runs each RC stage from a carried ``v_{k-1}`` and returns the new
    per-stage state (the last output step of each stage).  Because the
    recurrence is pure element-wise arithmetic, chaining chunks through
    the returned state is **bit-equal** to the one-shot scan for any
    partition of the time axis — provided the sampler draws are
    deterministic (the ideal sampler; a stochastic sampler redraws
    ε/μ/V₀ per call, which breaks cross-chunk equivalence by design).
    """
    _check_filter_input(x, filters.num_filters, filters.sampler)
    if filters.sampler.draws is not None:
        raise ValueError(
            "forward_chunk streams a single instance; it cannot run inside "
            "a batched-draws sampler context"
        )
    stages = filter_stages(filters)
    if state is not None and len(state) != len(stages):
        raise ValueError(
            f"carried state has {len(state)} stage(s), filter bank has "
            f"{len(stages)}"
        )
    batch, n = x.shape[-3], filters.num_filters
    out = x
    new_state = []
    for i, stage in enumerate(stages):
        a, b = stage.coefficients(filters.dt, filters.sampler)
        if state is None:
            v0 = np.asarray(filters.sampler.initial_voltage((batch, n)))
        else:
            v0 = np.asarray(state[i])
            if v0.shape != (batch, n):
                raise ValueError(
                    f"stage {i} state must have shape {(batch, n)}, "
                    f"got {v0.shape}"
                )
        out = _run_recurrence(out, a, b, Tensor(v0), backend=filters.scan_backend)
        new_state.append(np.array(out.data[..., -1, :], copy=True))
    return out, tuple(new_state)


class FirstOrderLearnableFilter(Module):
    """Bank of first-order learnable printed low-pass filters.

    The baseline pTPNC's temporal element [8].  Each of ``num_filters``
    channels applies its own RC recurrence along the time axis of a
    ``(batch, time, num_filters)`` input.
    """

    def __init__(
        self,
        num_filters: int,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
        scan_backend: str = "fused",
    ) -> None:
        super().__init__()
        if num_filters <= 0:
            raise ValueError("num_filters must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scan_backend not in SCAN_BACKENDS:
            raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_filters = num_filters
        self.dt = dt
        self.sampler = sampler if sampler is not None else ideal_sampler()
        self.pdk = pdk
        self.scan_backend = scan_backend
        self.stage = _RCStage(num_filters, pdk, rng)

    def set_scan_backend(self, backend: str) -> None:
        """Select the recurrence evaluation backend (``fused``/``unfused``)."""
        if backend not in SCAN_BACKENDS:
            raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}")
        self.scan_backend = backend

    def forward(self, x: Tensor) -> Tensor:
        """Filter a batch of sequences ``(batch, time, num_filters)``.

        Inside a batched-draws sampler context the output (and,
        optionally, the input) carries a leading ``draws`` axis.
        """
        return _filter_bank(self, x, readout=False)

    def readout(self, x: Tensor) -> Tensor:
        """The final step of :meth:`forward`: ``(batch, num_filters)``.

        Bit-equal to ``self(x)[..., -1, :]`` in values and gradients
        (same draws, same arithmetic), with a leading ``draws`` axis
        inside a batched-draws sampler context.
        """
        return _filter_bank(self, x, readout=True)

    def forward_chunk(
        self, x: Tensor, state: Optional[Tuple[np.ndarray, ...]] = None
    ) -> Tuple[Tensor, Tuple[np.ndarray, ...]]:
        """Stateful chunked filtering: resume from carried ``v_{k-1}``.

        ``state`` is the tuple returned by the previous call (``None``
        starts a fresh stream from the sampler's initial voltage).
        Returns ``(filtered_chunk, new_state)``; chaining chunks is
        bit-equal to one-shot :meth:`forward` under the ideal sampler.
        """
        return _chunk_forward(self, x, state)

    # -- hardware accounting ----------------------------------------------

    def count_resistors(self) -> int:
        """One printed resistor per channel."""
        return self.num_filters

    def count_capacitors(self) -> int:
        """One printed capacitor per channel."""
        return self.num_filters

    def count_transistors(self) -> int:
        """Passive stage: no transistors."""
        return 0

    def component_values(self) -> dict:
        """Nominal printable component values."""
        r, c = self.stage.nominal_values()
        return {"R": r, "C": c}

    def __repr__(self) -> str:
        return f"FirstOrderLearnableFilter(num_filters={self.num_filters}, dt={self.dt})"


class SecondOrderLearnableFilter(Module):
    """Bank of second-order learnable filters (SO-LF) — Sec. III.

    Two back-to-back RC stages per channel, each with independently
    trained R and C and its own sampled coupling factor μ.  The sharper
    roll-off and richer dynamic response are what give ADAPT-pNC its
    robustness to noisy temporal inputs.

    A decoupling buffer (2 printed transistors per channel) isolates the
    cascade from the following crossbar — reflected in the transistor
    count of the proposed design (Table III).
    """

    #: transistors per channel for the inter-stage decoupling buffer
    BUFFER_TRANSISTORS = 2

    def __init__(
        self,
        num_filters: int,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
        scan_backend: str = "fused",
    ) -> None:
        super().__init__()
        if num_filters <= 0:
            raise ValueError("num_filters must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scan_backend not in SCAN_BACKENDS:
            raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_filters = num_filters
        self.dt = dt
        self.sampler = sampler if sampler is not None else ideal_sampler()
        self.pdk = pdk
        self.scan_backend = scan_backend
        self.stage1 = _RCStage(num_filters, pdk, rng)
        self.stage2 = _RCStage(num_filters, pdk, rng)

    def set_scan_backend(self, backend: str) -> None:
        """Select the recurrence evaluation backend (``fused``/``unfused``)."""
        if backend not in SCAN_BACKENDS:
            raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}")
        self.scan_backend = backend

    def forward(self, x: Tensor) -> Tensor:
        """Filter a batch of sequences ``(batch, time, num_filters)``.

        Implements Eqs. (10)-(11): the intermediate voltage of stage 1
        feeds stage 2; both recurrences carry their own μ draw.  Inside
        a batched-draws sampler context the output carries a leading
        ``draws`` axis.
        """
        return _filter_bank(self, x, readout=False)

    def readout(self, x: Tensor) -> Tensor:
        """The final step of :meth:`forward`: ``(batch, num_filters)``.

        Stage 1 runs over every step; stage 2 runs its scan returning
        only the last one.  Bit-equal to ``self(x)[..., -1, :]`` in
        values and gradients, with a leading ``draws`` axis inside a
        batched-draws sampler context.
        """
        return _filter_bank(self, x, readout=True)

    def forward_chunk(
        self, x: Tensor, state: Optional[Tuple[np.ndarray, ...]] = None
    ) -> Tuple[Tensor, Tuple[np.ndarray, ...]]:
        """Stateful chunked filtering: resume both stages from carried state.

        ``state`` is the 2-tuple ``(v_stage1, v_stage2)`` returned by the
        previous call (``None`` starts a fresh stream).  Returns
        ``(filtered_chunk, new_state)``; chaining chunks is bit-equal to
        one-shot :meth:`forward` under the ideal sampler.
        """
        return _chunk_forward(self, x, state)

    # -- hardware accounting ----------------------------------------------

    def count_resistors(self) -> int:
        """Two printed resistors per channel."""
        return 2 * self.num_filters

    def count_capacitors(self) -> int:
        """Two printed capacitors per channel."""
        return 2 * self.num_filters

    def count_transistors(self) -> int:
        """Decoupling buffer transistors per channel."""
        return self.BUFFER_TRANSISTORS * self.num_filters

    def component_values(self) -> dict:
        """Nominal printable component values for both stages."""
        r1, c1 = self.stage1.nominal_values()
        r2, c2 = self.stage2.nominal_values()
        return {"R1": r1, "C1": c1, "R2": r2, "C2": c2}

    def __repr__(self) -> str:
        return f"SecondOrderLearnableFilter(num_filters={self.num_filters}, dt={self.dt})"
