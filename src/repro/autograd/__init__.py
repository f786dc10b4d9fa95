"""Reverse-mode automatic differentiation engine (the PyTorch substitute).

Public API::

    from repro.autograd import Tensor, no_grad, stack, softmax, ...
"""

from .context import enable_grad, is_grad_enabled, no_grad, set_grad_enabled
from .function import FilterScan, Function, FunctionContext, filter_scan
from .functional import (
    concat,
    log_softmax,
    logsumexp,
    maximum,
    minimum,
    one_hot,
    outer,
    softmax,
    stack,
    where,
)
from .grad_check import check_gradients, numerical_gradient
from .precision import (
    PRECISION_POLICIES,
    PrecisionPolicy,
    compute_dtype,
    default_tolerances,
    get_precision,
    master_dtype,
    resolve_policy,
    set_precision,
    use_precision,
)
from .tensor import Tensor

__all__ = [
    "Tensor",
    "PRECISION_POLICIES",
    "PrecisionPolicy",
    "get_precision",
    "set_precision",
    "use_precision",
    "resolve_policy",
    "compute_dtype",
    "master_dtype",
    "default_tolerances",
    "Function",
    "FunctionContext",
    "FilterScan",
    "filter_scan",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "stack",
    "concat",
    "where",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "logsumexp",
    "one_hot",
    "outer",
    "check_gradients",
    "numerical_gradient",
]
