"""Small-signal AC analysis: transfer functions and cutoff extraction.

Replaces the Cadence Virtuoso runs the paper used to obtain "filter
magnitude, impulse response and the cutoff frequencies" (Sec. IV-A1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mna import MNAAssembler
from .netlist import Circuit, canonical_node

__all__ = ["ACResult", "ac_sweep", "cutoff_frequency"]


@dataclass
class ACResult:
    """Complex transfer function H(f) of an output node w.r.t. a unit source."""

    frequencies: np.ndarray
    transfer: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """|H(f)|."""
        return np.abs(self.transfer)

    @property
    def magnitude_db(self) -> np.ndarray:
        """20·log10 |H(f)|."""
        return 20.0 * np.log10(np.maximum(self.magnitude, 1e-300))

    @property
    def phase(self) -> np.ndarray:
        """Phase of H(f) in radians."""
        return np.angle(self.transfer)


def ac_sweep(
    circuit: Circuit,
    source_name: str,
    output_node: str,
    frequencies: np.ndarray,
) -> ACResult:
    """Sweep the transfer from one voltage source to an output node.

    The named source is replaced (conceptually) by a unit phasor; every
    other independent source is zeroed — standard small-signal analysis.
    Linearity of the netlist makes this exact here.
    """
    frequencies = np.asarray(frequencies, dtype=np.float64)
    if np.any(frequencies <= 0):
        raise ValueError("AC frequencies must be positive")
    output_node = canonical_node(output_node)
    assembler = MNAAssembler(circuit)
    found = any(v.name == source_name for v in circuit.voltage_sources)
    if not found:
        raise KeyError(f"no voltage source named {source_name}")
    out_idx = circuit.node_index(output_node)

    transfer = np.zeros(frequencies.size, dtype=complex)
    for i, f in enumerate(frequencies):
        omega = 2.0 * np.pi * f
        a, z = assembler.assemble(capacitor_mode="admittance", omega=omega)
        # Zero all sources, then set the swept one to unit amplitude.
        z = np.zeros_like(z)
        for k, branch in enumerate(assembler.branches):
            if branch.name == source_name:
                z[assembler.num_nodes + k] = 1.0
        x = assembler.solve(a, z)
        transfer[i] = x[out_idx]
    return ACResult(frequencies=frequencies, transfer=transfer)


def cutoff_frequency(result: ACResult, reference: Optional[float] = None) -> float:
    """-3 dB cutoff: first frequency where |H| falls below ref/sqrt(2).

    ``reference`` defaults to the low-frequency magnitude.  Returns the
    log-interpolated crossing; raises if the response never crosses.
    """
    mag = result.magnitude
    ref = reference if reference is not None else mag[0]
    threshold = ref / np.sqrt(2.0)
    below = np.nonzero(mag < threshold)[0]
    if below.size == 0:
        raise ValueError("response never falls below the -3 dB threshold in the sweep")
    j = below[0]
    if j == 0:
        return float(result.frequencies[0])
    f0, f1 = result.frequencies[j - 1], result.frequencies[j]
    m0, m1 = mag[j - 1], mag[j]
    # Interpolate in log-frequency for a smooth estimate.
    w = (m0 - threshold) / (m0 - m1)
    return float(np.exp(np.log(f0) + w * (np.log(f1) - np.log(f0))))
