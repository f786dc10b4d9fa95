"""Linear analog circuit simulator (the Cadence/SPICE substitute).

Provides netlist construction (:class:`Circuit`), DC operating point,
backward-Euler transient analysis and AC sweeps — everything the paper
used SPICE for: validating printed RC filter behaviour, extracting
cutoff frequencies, and bounding the coupling factor μ.
"""

from .ac import ACResult, ac_sweep, cutoff_frequency
from .components import VCVS, Capacitor, CurrentSource, Resistor, VoltageSource
from .currents import resistor_currents, resistor_power
from .fileio import circuit_to_spice, format_value, parse_value, spice_to_circuit
from .mna import MNAAssembler, dc_operating_point
from .netlist import GROUND, Circuit
from .nonlinear import (
    EGT,
    BehavioralTransfer,
    EGTParameters,
    NonlinearCircuit,
    dc_transfer_sweep,
    newton_dc,
    newton_solve,
)
from .nonlinear_transient import transient_nonlinear
from .transient import TransientResult, transient
from .waveforms import DC, PiecewiseLinear, Sine, Step, Waveform

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "MNAAssembler",
    "dc_operating_point",
    "transient",
    "TransientResult",
    "ac_sweep",
    "ACResult",
    "cutoff_frequency",
    "Waveform",
    "DC",
    "Step",
    "Sine",
    "PiecewiseLinear",
    "EGT",
    "EGTParameters",
    "BehavioralTransfer",
    "NonlinearCircuit",
    "newton_dc",
    "newton_solve",
    "dc_transfer_sweep",
    "transient_nonlinear",
    "circuit_to_spice",
    "spice_to_circuit",
    "format_value",
    "parse_value",
    "resistor_currents",
    "resistor_power",
]
