"""Core models and experiment harness for the ADAPT-pNC reproduction."""

from .experiment import (
    ABLATION_CONFIGS,
    TABLE1_RECIPES,
    ExperimentConfig,
    ModelResult,
    format_fig7,
    format_table1,
    run_fig5,
    run_fig6,
    run_fig7_ablation,
    run_mu_extraction,
    run_table1,
    run_table2,
    run_table3,
)
from .evaluation import (
    EvaluationResult,
    accuracy,
    evaluate_under_model,
    evaluate_under_variation,
    select_top_k,
)
from .models import (
    LOGIT_SCALE,
    AdaptPNC,
    ElmanClassifier,
    PrintedTemporalClassifier,
    PTPNC,
)
from .calibration import CalibrationResult, calibrate_instance, calibration_study
from .dtypebench import (
    DTYPE_ACCURACY_TOL_PP,
    DTYPE_LOSS_RTOL,
    format_dtype_benchmark,
    run_dtype_benchmark,
)
from .mcbench import EQUIVALENCE_ATOL, format_mc_benchmark, run_mc_benchmark
from .scanbench import (
    SCAN_EQUIVALENCE_ATOL,
    SCAN_GRAD_ATOL,
    format_scan_benchmark,
    run_scan_benchmark,
)
from .search import ArchitectureResult, architecture_space, search_architecture
from .streaming import (
    MultiStreamSession,
    StreamingClassifier,
    StreamingEvalResult,
    StreamingSession,
    evaluate_streaming,
)
from .tpb import PrintedTemporalProcessingBlock
from .training import (
    CHECKPOINT_FILENAME,
    MC_BACKENDS,
    SCAN_BACKENDS,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    mc_cross_entropy,
)

__all__ = [
    "PrintedTemporalProcessingBlock",
    "ElmanClassifier",
    "PrintedTemporalClassifier",
    "PTPNC",
    "AdaptPNC",
    "LOGIT_SCALE",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "accuracy",
    "evaluate_under_variation",
    "evaluate_under_model",
    "select_top_k",
    "EvaluationResult",
    "ExperimentConfig",
    "ModelResult",
    "ABLATION_CONFIGS",
    "TABLE1_RECIPES",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig5",
    "run_fig6",
    "run_fig7_ablation",
    "run_mu_extraction",
    "format_table1",
    "format_fig7",
    "ArchitectureResult",
    "architecture_space",
    "search_architecture",
    "MultiStreamSession",
    "StreamingClassifier",
    "StreamingSession",
    "StreamingEvalResult",
    "evaluate_streaming",
    "calibrate_instance",
    "calibration_study",
    "CalibrationResult",
    "MC_BACKENDS",
    "SCAN_BACKENDS",
    "CHECKPOINT_FILENAME",
    "mc_cross_entropy",
    "run_mc_benchmark",
    "format_mc_benchmark",
    "EQUIVALENCE_ATOL",
    "run_scan_benchmark",
    "format_scan_benchmark",
    "SCAN_EQUIVALENCE_ATOL",
    "SCAN_GRAD_ATOL",
    "run_dtype_benchmark",
    "format_dtype_benchmark",
    "DTYPE_LOSS_RTOL",
    "DTYPE_ACCURACY_TOL_PP",
]
