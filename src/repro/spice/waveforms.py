"""Source waveforms for transient analysis.

Each waveform is a callable ``v(t)`` used by voltage/current sources.
The printed-circuit experiments drive filter netlists with sampled
sensor series (:class:`PiecewiseLinear`) and characterise them with
:class:`Step` and :class:`Sine` stimuli.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Waveform", "DC", "Step", "Sine", "PiecewiseLinear"]


class Waveform:
    """Base class; subclasses implement :meth:`__call__`."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError


class DC(Waveform):
    """Constant value for all time."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __call__(self, t: float) -> float:
        return self.value


class Step(Waveform):
    """Steps from ``low`` to ``high`` at ``t0``."""

    def __init__(self, low: float = 0.0, high: float = 1.0, t0: float = 0.0) -> None:
        self.low = float(low)
        self.high = float(high)
        self.t0 = float(t0)

    def __call__(self, t: float) -> float:
        return self.high if t >= self.t0 else self.low


class Sine(Waveform):
    """``offset + amplitude * sin(2π f t + phase)``."""

    def __init__(
        self,
        amplitude: float = 1.0,
        frequency: float = 1.0,
        offset: float = 0.0,
        phase: float = 0.0,
    ) -> None:
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.offset = float(offset)
        self.phase = float(phase)

    def __call__(self, t: float) -> float:
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * t + self.phase
        )


class PiecewiseLinear(Waveform):
    """Linear interpolation through ``(times, values)`` samples.

    Values are held constant outside the sampled range — matching how a
    zero-order-hold DAC (or a sensor front-end) would drive the printed
    filter with a recorded time series.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]) -> None:
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be equal-length 1-D sequences")
        if times.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = times
        self.values = values

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))
