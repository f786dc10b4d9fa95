"""Coupling-factor (μ) extraction via circuit simulation.

The discrete filter model multiplies each stage's time constant by a
coupling factor μ (Eqs. 8-11) because part of the current through the
stage resistor is shunted into the next stage / the crossbar instead of
charging the stage capacitor.  The paper bounds μ ∈ [1, 1.3] "through
SPICE simulations using the printed PDK"; this module reproduces that
study with the in-repo MNA engine:

1. build the loaded SO-LF netlist (two RC stages + crossbar input
   resistance),
2. simulate its step response,
3. fit (μ₁, μ₂) of the decoupled discrete model to the simulated
   response by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..spice import Circuit, Step, transient
from .pdk import DEFAULT_PDK, PrintedPDK

__all__ = ["CouplingFit", "build_so_filter_circuit", "fit_mu", "extract_mu_range"]


def build_so_filter_circuit(
    r1: float,
    c1: float,
    r2: float,
    c2: float,
    r_load: float,
) -> Circuit:
    """Netlist of a second-order RC filter loaded by a crossbar input.

    ``vin -- R1 -- m (C1 to gnd) -- R2 -- out (C2 to gnd, R_load to gnd)``
    """
    if min(r1, c1, r2, c2, r_load) <= 0:
        raise ValueError("all component values must be positive")
    circuit = Circuit("so_lf_loaded")
    circuit.add_voltage_source("vin", "in", 0, Step(0.0, 1.0, 0.0))
    circuit.add_resistor("r1", "in", "m", r1)
    circuit.add_capacitor("c1", "m", 0, c1)
    circuit.add_resistor("r2", "m", "out", r2)
    circuit.add_capacitor("c2", "out", 0, c2)
    circuit.add_resistor("rload", "out", 0, r_load)
    return circuit


def _model_step_response(
    r1: float, c1: float, r2: float, c2: float, mu: np.ndarray, dt: float, steps: int
) -> np.ndarray:
    """Step response of the discrete model with coupling μ.

    Uses the physically-consistent placement of μ (see
    ``repro.circuits.filters``): the coupling factor scales the Δt
    term, so each stage's DC gain is 1/μ.
    """
    mu1, mu2 = mu
    a1 = r1 * c1 / (r1 * c1 + mu1 * dt)
    b1 = dt / (r1 * c1 + mu1 * dt)
    a2 = r2 * c2 / (r2 * c2 + mu2 * dt)
    b2 = dt / (r2 * c2 + mu2 * dt)
    v1 = 0.0
    v2 = 0.0
    out = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        v1 = a1 * v1 + b1 * 1.0
        v2 = a2 * v2 + b2 * v1
        out[k] = v2
    return out


@dataclass
class CouplingFit:
    """Result of one μ-extraction fit."""

    mu1: float
    mu2: float
    residual: float  # RMS error between simulated and modelled response
    dc_gain: float  # steady-state gain of the loaded filter


def fit_mu(
    r1: float,
    c1: float,
    r2: float,
    c2: float,
    r_load: float,
    dt: float = 1e-3,
    steps: int = 100,
) -> CouplingFit:
    """Fit (μ₁, μ₂) of the discrete model to the simulated loaded filter.

    The model's per-stage DC gain is 1/μ, so the fitted product μ₁·μ₂
    absorbs the load's resistive divider — for R_load ≫ R₁, R₂ it
    approaches ``1 + (R₁ + R₂)/R_load``, consistent with the coupling
    definition κ = 1 + R/R_load of each stage.
    """
    from scipy.optimize import minimize

    circuit = build_so_filter_circuit(r1, c1, r2, c2, r_load)
    result = transient(circuit, dt=dt, steps=steps, probes=["out"])
    simulated = result["out"]
    dc_gain = r_load / (r_load + r1 + r2)

    def objective(mu: np.ndarray) -> float:
        model = _model_step_response(r1, c1, r2, c2, np.clip(mu, 1.0, None), dt, steps)
        return float(np.mean((model - simulated) ** 2))

    best = minimize(
        objective,
        x0=np.array([1.05, 1.05]),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 2000},
    )
    mu1, mu2 = np.clip(best.x, 1.0, None)
    return CouplingFit(
        mu1=float(mu1),
        mu2=float(mu2),
        residual=float(np.sqrt(best.fun)),
        dc_gain=float(dc_gain),
    )


def extract_mu_range(
    pdk: PrintedPDK = DEFAULT_PDK,
    samples: int = 20,
    dt: float = 1e-3,
    steps: int = 80,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo μ study over printable component draws.

    Draws filter designs from the PDK windows (respecting the design
    rule R_filter ≪ R_crossbar of Sec. IV-A1) and fits μ for each.
    Returns ``(mu1_samples, mu2_samples)``; across the printable space
    these land in the paper's reported μ ∈ [1, 1.3].
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    mu1 = np.zeros(samples)
    mu2 = np.zeros(samples)
    for i in range(samples):
        r1 = float(np.exp(rng.uniform(np.log(pdk.filter_r_min), np.log(pdk.filter_r_max))))
        r2 = float(np.exp(rng.uniform(np.log(max(r1, pdk.filter_r_min)), np.log(pdk.filter_r_max))))
        c1 = float(np.exp(rng.uniform(np.log(1e-6), np.log(50e-6))))
        c2 = float(np.exp(rng.uniform(np.log(1e-6), np.log(50e-6))))
        r_load = float(
            np.exp(rng.uniform(np.log(pdk.crossbar_r_min), np.log(pdk.crossbar_r_max)))
        )
        fit = fit_mu(r1, c1, r2, c2, r_load, dt=dt, steps=steps)
        mu1[i] = fit.mu1
        mu2[i] = fit.mu2
    return mu1, mu2
