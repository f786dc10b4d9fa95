"""Physical derivation of the ptanh η parameters from q^A = [R₁, R₂, T₁, T₂].

Sec. II-B of the paper: "Parameters η_i adjust the tanh function and
are determined by component values q^A = [R₁^A, R₂^A, T₁^A, T₂^A]".
The authors characterise the circuit in Cadence; here the same study
runs on the in-repo nonlinear MNA engine:

1. build the two-stage printed activation circuit — two resistor-loaded
   n-EGT common-source stages in cascade (each stage inverts, so the
   cascade is a monotone rising, doubly-saturating "tanh-like" curve);
2. sweep the input voltage and record the DC transfer curve;
3. least-squares fit ``V_out = η₁ + η₂·tanh((V_in − η₃)·η₄)``.

:func:`derive_eta` returns the fitted η and the fit error, and
:func:`make_printed_tanh` builds a trained-initialisation
:class:`~repro.circuits.ptanh.PrintedTanh` whose per-neuron η start at
the physically derived values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..spice.nonlinear import EGTParameters, NonlinearCircuit, dc_transfer_sweep
from .ptanh import PrintedTanh

__all__ = ["PhysicalTanhFit", "build_ptanh_circuit", "derive_eta", "make_printed_tanh"]

SUPPLY = 1.0  # printed n-EGT circuits run from a 1 V rail


def build_ptanh_circuit(
    r1: float,
    r2: float,
    t1: Optional[EGTParameters] = None,
    t2: Optional[EGTParameters] = None,
    supply: float = SUPPLY,
) -> NonlinearCircuit:
    """The printed tanh-like activation netlist (Fig. 3b).

    ``vin — [T1 gate]``; stage 1: R₁ from VDD to ``s1``, T1 pulls ``s1``
    down; stage 2: ``s1`` drives T2's gate, R₂ loads node ``out``.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("load resistances must be positive")
    t1 = t1 if t1 is not None else EGTParameters()
    t2 = t2 if t2 is not None else EGTParameters()
    circuit = NonlinearCircuit("ptanh")
    circuit.add_voltage_source("vdd", "vdd", 0, supply)
    circuit.add_voltage_source("vin", "in", 0, 0.0)
    circuit.add_resistor("r1", "vdd", "s1", r1)
    circuit.add_egt("t1", "s1", "in", 0, t1)
    circuit.add_resistor("r2", "vdd", "out", r2)
    circuit.add_egt("t2", "out", "s1", 0, t2)
    return circuit


@dataclass
class PhysicalTanhFit:
    """η parameters fitted to a simulated transfer curve."""

    eta1: float
    eta2: float
    eta3: float
    eta4: float
    rms_error: float
    v_in: np.ndarray
    v_out: np.ndarray

    @property
    def eta(self) -> np.ndarray:
        """The four η as an array."""
        return np.array([self.eta1, self.eta2, self.eta3, self.eta4])

    def evaluate(self, v_in: np.ndarray) -> np.ndarray:
        """The fitted analytic transfer at the given inputs."""
        return self.eta1 + self.eta2 * np.tanh((np.asarray(v_in) - self.eta3) * self.eta4)


def _ptanh_form(v, eta1, eta2, eta3, eta4):
    return eta1 + eta2 * np.tanh((v - eta3) * eta4)


def derive_eta(
    r1: float = 20e3,
    r2: float = 20e3,
    t1: Optional[EGTParameters] = None,
    t2: Optional[EGTParameters] = None,
    v_min: float = 0.0,
    v_max: float = SUPPLY,
    points: int = 60,
) -> PhysicalTanhFit:
    """Characterise the activation circuit and fit η (Sec. II-B).

    Sweeps the physically meaningful input window (printed circuits run
    rail-to-rail on a 1 V supply) and returns the η fit together with
    the RMS error, which quantifies how "tanh-like" the chosen
    component values are.
    """
    from scipy.optimize import curve_fit

    circuit = build_ptanh_circuit(r1, r2, t1, t2)
    v_in = np.linspace(v_min, v_max, points)
    v_out = dc_transfer_sweep(circuit, "vin", "out", v_in)

    mid = 0.5 * (v_out.max() + v_out.min())
    swing = max(0.5 * (v_out.max() - v_out.min()), 1e-3)
    centre_guess = float(v_in[np.argmin(np.abs(v_out - mid))])
    p0 = [mid, swing, centre_guess, 8.0]
    bounds = ([-2.0, 1e-4, -1.0, 0.1], [2.0, 2.0, 2.0, 100.0])
    params, _ = curve_fit(_ptanh_form, v_in, v_out, p0=p0, bounds=bounds, maxfev=20000)
    fitted = _ptanh_form(v_in, *params)
    rms = float(np.sqrt(np.mean((fitted - v_out) ** 2)))
    return PhysicalTanhFit(
        eta1=float(params[0]),
        eta2=float(params[1]),
        eta3=float(params[2]),
        eta4=float(params[3]),
        rms_error=rms,
        v_in=v_in,
        v_out=v_out,
    )


def make_printed_tanh(
    num_neurons: int,
    fit: PhysicalTanhFit,
    sampler=None,
    rng: Optional[np.random.Generator] = None,
    recenter: bool = True,
) -> PrintedTanh:
    """Build a :class:`PrintedTanh` initialised at the physical η.

    With ``recenter=True`` the offsets η₁/η₃ are shifted so the circuit
    operates on the normalised signal range of the datasets ([-1, 1]
    around 0) rather than the raw supply-referenced window — the level
    shift a printed bias network provides.
    """
    rng = rng if rng is not None else np.random.default_rng()
    act = PrintedTanh(num_neurons, sampler=sampler, rng=rng)
    act.eta1.data = np.full(num_neurons, 0.0 if recenter else fit.eta1)
    act.eta2.data = np.full(num_neurons, fit.eta2)
    act.eta3.data = np.full(num_neurons, 0.0 if recenter else fit.eta3)
    act.eta4.data = np.full(num_neurons, fit.eta4)
    return act
