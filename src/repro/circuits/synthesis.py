"""Bespoke synthesis: from target η to printable component values q^A.

:mod:`repro.circuits.ptanh_physical` answers "what η does this printed
circuit realise?"; this module answers the designer's inverse question:
*given* a desired tanh-like transfer (e.g. from a trained model, after
level-shifting into the supply window), which resistor loads and
transistor parameters should be printed?

The search runs Nelder-Mead over (log R₁, log R₂, V_T, log k) with the
circuit evaluated by the Newton DC sweep — the same
characterise-then-fit loop a designer would run in SPICE, automated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..spice.nonlinear import EGTParameters
from .ptanh_physical import build_ptanh_circuit

__all__ = ["SynthesisResult", "synthesize_ptanh"]


@dataclass
class SynthesisResult:
    """Printable realisation of a target transfer."""

    r1: float
    r2: float
    t1: EGTParameters
    t2: EGTParameters
    rms_error: float  # RMS (V) between realised and target transfer
    target_eta: np.ndarray

    def __repr__(self) -> str:
        return (
            f"SynthesisResult(R1={self.r1:.3g}Ω, R2={self.r2:.3g}Ω, "
            f"V_T={self.t1.v_t:.2f}V, k={self.t1.k:.2g}, "
            f"rms={self.rms_error*1e3:.1f}mV)"
        )


def _target_transfer(eta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    e1, e2, e3, e4 = eta
    return e1 + e2 * np.tanh((v_in - e3) * e4)


def _simulate(params: np.ndarray, v_in: np.ndarray) -> Optional[np.ndarray]:
    from ..spice.nonlinear import dc_transfer_sweep

    log_r1, log_r2, v_t, log_k = params
    try:
        circuit = build_ptanh_circuit(
            float(np.exp(log_r1)),
            float(np.exp(log_r2)),
            EGTParameters(k=float(np.exp(log_k)), v_t=float(v_t)),
            EGTParameters(k=float(np.exp(log_k)), v_t=float(v_t)),
        )
        return dc_transfer_sweep(circuit, "vin", "out", v_in)
    except (RuntimeError, ValueError):
        return None  # non-convergent corner of the search space


def synthesize_ptanh(
    target_eta,
    points: int = 25,
    max_iterations: int = 120,
    seed: int = 0,
) -> SynthesisResult:
    """Find printable q^A realising a target η transfer.

    Parameters
    ----------
    target_eta:
        ``[η₁, η₂, η₃, η₄]`` in the circuit's native coordinates
        (supply window [0, 1] V): η₁ the mid level, η₂ the half swing,
        η₃ the threshold, η₄ the gain.
    points:
        Input-sweep resolution used by the objective.
    max_iterations:
        Nelder-Mead iterations per start (three starts are tried).

    Returns the best realisation found; ``rms_error`` quantifies how
    well the two-stage EGT topology can express the request.
    """
    from scipy.optimize import minimize

    target_eta = np.asarray(target_eta, dtype=np.float64)
    if target_eta.shape != (4,):
        raise ValueError("target_eta must be [eta1, eta2, eta3, eta4]")
    if target_eta[1] <= 0 or target_eta[3] <= 0:
        raise ValueError("target swing eta2 and gain eta4 must be positive")
    v_in = np.linspace(0.0, 1.0, points)
    target = _target_transfer(target_eta, v_in)

    bounds_lo = np.array([np.log(2e3), np.log(2e3), 0.15, np.log(2e-5)])
    bounds_hi = np.array([np.log(3e5), np.log(3e5), 0.50, np.log(5e-4)])

    def objective(params: np.ndarray) -> float:
        params = np.clip(params, bounds_lo, bounds_hi)
        realised = _simulate(params, v_in)
        if realised is None:
            return 10.0
        return float(np.sqrt(np.mean((realised - target) ** 2)))

    rng = np.random.default_rng(seed)
    starts = [
        np.array([np.log(20e3), np.log(20e3), 0.3, np.log(1e-4)]),
        np.array([np.log(80e3), np.log(80e3), 0.25, np.log(2e-4)]),
        rng.uniform(bounds_lo, bounds_hi),
    ]
    best_params, best_value = None, np.inf
    for start in starts:
        result = minimize(
            objective,
            x0=start,
            method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 1e-3, "fatol": 1e-6},
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_params = np.clip(result.x, bounds_lo, bounds_hi)

    assert best_params is not None
    log_r1, log_r2, v_t, log_k = best_params
    t = EGTParameters(k=float(np.exp(log_k)), v_t=float(v_t))
    return SynthesisResult(
        r1=float(np.exp(log_r1)),
        r2=float(np.exp(log_r2)),
        t1=t,
        t2=t,
        rms_error=best_value,
        target_eta=target_eta,
    )
