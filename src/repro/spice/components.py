"""Circuit element definitions for the MNA simulator.

The printed-electronics netlists in this reproduction need linear
elements only: resistors and capacitors (the printed RC filters and
crossbars), independent sources (sensor drive), and a voltage-controlled
voltage source used as the behavioural model of the printed inverter
and of the high-impedance ptanh input stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .waveforms import DC, Waveform

__all__ = [
    "Component",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
]

Node = Union[str, int]


def _coerce_waveform(value: Union[float, Waveform]) -> Waveform:
    return value if isinstance(value, Waveform) else DC(float(value))


@dataclass
class Component:
    """Common fields: a unique name and two terminal nodes."""

    name: str
    node_pos: Node
    node_neg: Node

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")


@dataclass
class Resistor(Component):
    """Linear resistor; resistance in ohms (> 0)."""

    resistance: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name}: resistance must be positive")

    @property
    def conductance(self) -> float:
        """1/R in siemens."""
        return 1.0 / self.resistance


@dataclass
class Capacitor(Component):
    """Linear capacitor; capacitance in farads (> 0), optional initial voltage."""

    capacitance: float = 1e-9
    initial_voltage: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name}: capacitance must be positive")


@dataclass
class VoltageSource(Component):
    """Independent voltage source driven by a :class:`Waveform`."""

    waveform: Union[float, Waveform] = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.waveform = _coerce_waveform(self.waveform)

    def value(self, t: float) -> float:
        """Source voltage at time ``t``."""
        return float(self.waveform(t))


@dataclass
class CurrentSource(Component):
    """Independent current source (positive current flows pos -> neg externally)."""

    waveform: Union[float, Waveform] = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.waveform = _coerce_waveform(self.waveform)

    def value(self, t: float) -> float:
        """Source current at time ``t``."""
        return float(self.waveform(t))


@dataclass
class VCVS(Component):
    """Voltage-controlled voltage source: V(pos,neg) = gain * V(ctrl_pos,ctrl_neg).

    Used as the behavioural printed-inverter model (gain ≈ -1) in the
    crossbar netlists.
    """

    ctrl_pos: Node = "0"
    ctrl_neg: Node = "0"
    gain: float = 1.0
