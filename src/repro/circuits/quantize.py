"""Post-training quantisation of component values to a printable grid.

A trained model's continuous component values cannot all be printed:
inkjet and gravure processes realise a *discrete* set of values per
decade (droplet counts, layer repetitions).  This module snaps every
trained component — crossbar surrogates θ, filter R and C — to a
log-uniform E-series-style grid and reports the quantisation error, so
the accuracy cost of manufacturability can be measured (see
``benchmarks/bench_quantization.py``).

``values_per_decade = 6`` approximates the E6 series (20 % steps),
``12`` the E12 series (10 % steps) — the grids real resistor inks are
calibrated to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.module import Module
from .crossbar import PrintedCrossbar
from .filters import _RCStage

__all__ = ["QuantizationReport", "snap_to_grid", "quantize_model"]


def snap_to_grid(values: np.ndarray, values_per_decade: int) -> np.ndarray:
    """Snap positive values to a log-uniform grid.

    The grid has ``values_per_decade`` points per factor-of-ten,
    anchored at 1.0 (…, 1.0, 10^(1/n), 10^(2/n), …).
    """
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0):
        raise ValueError("grid snapping requires positive values")
    if values_per_decade < 1:
        raise ValueError("values_per_decade must be >= 1")
    step = 1.0 / values_per_decade
    exponents = np.round(np.log10(values) / step) * step
    return 10.0**exponents


@dataclass
class QuantizationReport:
    """What changed when a model was snapped to the printable grid."""

    values_per_decade: int
    max_relative_error: float
    mean_relative_error: float
    n_quantized: int

    def __repr__(self) -> str:
        return (
            f"QuantizationReport(grid={self.values_per_decade}/decade, "
            f"max_err={self.max_relative_error:.1%}, "
            f"mean_err={self.mean_relative_error:.1%}, n={self.n_quantized})"
        )


def _snap_param(data: np.ndarray, values_per_decade: int, log_space: bool) -> tuple:
    """Snap one parameter array; returns (new_data, rel_errors)."""
    if log_space:
        raw = np.exp(data)
        snapped = snap_to_grid(raw, values_per_decade)
        rel = np.abs(snapped - raw) / raw
        return np.log(snapped), rel
    sign = np.sign(data)
    magnitude = np.abs(data)
    mask = magnitude > 0
    snapped = magnitude.copy()
    snapped[mask] = snap_to_grid(magnitude[mask], values_per_decade)
    rel = np.zeros_like(magnitude)
    rel[mask] = np.abs(snapped[mask] - magnitude[mask]) / magnitude[mask]
    return sign * snapped, rel


def quantize_model(model: Module, values_per_decade: int = 12) -> QuantizationReport:
    """Snap every printed component value of a model in place.

    Crossbar surrogates (θ, θ_b, θ_d — conductances) and filter R/C
    (trained in log space) are all quantised; ptanh η are left alone
    (they are realised by transistor geometry, not by value printing —
    synthesise them with :mod:`repro.circuits.ptanh_physical`).
    """
    errors = []
    count = 0
    for module in model.modules():
        if isinstance(module, PrintedCrossbar):
            for param in (module.theta, module.theta_b, module.theta_d):
                new, rel = _snap_param(param.data, values_per_decade, log_space=False)
                param.data = new
                errors.append(rel.reshape(-1))
                count += rel.size
        elif isinstance(module, _RCStage):
            for param in (module.log_r, module.log_c):
                new, rel = _snap_param(param.data, values_per_decade, log_space=True)
                param.data = new
                errors.append(rel.reshape(-1))
                count += rel.size
    if not count:
        raise TypeError("model contains no printable components to quantise")
    all_errors = np.concatenate(errors)
    return QuantizationReport(
        values_per_decade=values_per_decade,
        max_relative_error=float(all_errors.max()),
        mean_relative_error=float(all_errors.mean()),
        n_quantized=count,
    )
