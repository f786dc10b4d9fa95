"""Reverse-mode automatic differentiation engine (the PyTorch substitute).

Public API::

    from repro.autograd import Tensor, no_grad, stack, log_softmax, ...
"""

from .context import is_grad_enabled, no_grad
from .function import FilterScan, Function, FunctionContext, filter_scan
from .functional import (
    log_softmax,
    logsumexp,
    maximum,
    minimum,
    outer,
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
    "default_tolerances",
    "Function",
    "FunctionContext",
    "FilterScan",
    "filter_scan",
    "no_grad",
    "is_grad_enabled",
    "stack",
    "where",
    "maximum",
    "minimum",
    "log_softmax",
    "logsumexp",
    "outer",
    "check_gradients",
    "numerical_gradient",
]
