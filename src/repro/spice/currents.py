"""Branch-current extraction and simulation-based power measurement.

The hardware power model (:mod:`repro.hw.power`) estimates static
dissipation from component values; this module *measures* it from a
solved operating point — ``P = Σ I²R`` over the resistors — giving an
independent cross-check of the estimate and a way to analyse currents
in bespoke netlists.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .mna import MNAAssembler
from .netlist import GROUND, Circuit

__all__ = ["resistor_currents", "resistor_power"]


def resistor_currents(circuit: Circuit, t: float = 0.0) -> Dict[str, float]:
    """DC current through every resistor (positive from ``pos`` to ``neg``)."""
    assembler = MNAAssembler(circuit)
    a, z = assembler.assemble(t=t, capacitor_mode="open")
    solution = assembler.voltages_from_solution(assembler.solve(a, z))
    voltages = {k: float(np.real(v)) for k, v in solution.items()}
    currents = {}
    for r in circuit.resistors:
        vp = 0.0 if r.node_pos == GROUND else voltages[r.node_pos]
        vn = 0.0 if r.node_neg == GROUND else voltages[r.node_neg]
        currents[r.name] = (vp - vn) / r.resistance
    return currents


def resistor_power(circuit: Circuit, t: float = 0.0) -> Dict[str, float]:
    """DC power dissipated in every resistor (watts)."""
    currents = resistor_currents(circuit, t)
    return {
        r.name: currents[r.name] ** 2 * r.resistance for r in circuit.resistors
    }
