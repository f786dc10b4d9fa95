"""Printed neuromorphic circuit primitives (crossbar, ptanh, filters, PDK)."""

from .coupling import CouplingFit, build_so_filter_circuit, extract_mu_range, fit_mu
from .crossbar import THETA_MAX, THETA_MIN, PrintedCrossbar
from .filters import (
    DEFAULT_DT,
    SCAN_BACKENDS,
    FirstOrderLearnableFilter,
    SecondOrderLearnableFilter,
    filter_stages,
)
from .pdk import BASELINE_PDK, DEFAULT_PDK, PrintedPDK
from .ptanh import PrintedTanh
from .quantize import QuantizationReport, quantize_model, snap_to_grid
from .synthesis import SynthesisResult, synthesize_ptanh
from .ptanh_physical import (
    PhysicalTanhFit,
    build_ptanh_circuit,
    derive_eta,
    make_printed_tanh,
)
from .variation import (
    GMMVariation,
    NoVariation,
    UniformVariation,
    VariationModel,
    VariationSampler,
    ideal_sampler,
)

__all__ = [
    "PrintedCrossbar",
    "THETA_MIN",
    "THETA_MAX",
    "PrintedTanh",
    "FirstOrderLearnableFilter",
    "SecondOrderLearnableFilter",
    "DEFAULT_DT",
    "SCAN_BACKENDS",
    "filter_stages",
    "PrintedPDK",
    "DEFAULT_PDK",
    "BASELINE_PDK",
    "VariationModel",
    "NoVariation",
    "UniformVariation",
    "GMMVariation",
    "VariationSampler",
    "ideal_sampler",
    "fit_mu",
    "extract_mu_range",
    "build_so_filter_circuit",
    "CouplingFit",
    "PhysicalTanhFit",
    "build_ptanh_circuit",
    "derive_eta",
    "make_printed_tanh",
    "snap_to_grid",
    "quantize_model",
    "QuantizationReport",
    "synthesize_ptanh",
    "SynthesisResult",
]
