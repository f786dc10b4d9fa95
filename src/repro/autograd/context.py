"""Gradient-tracking context management.

Mirrors the semantics of ``torch.no_grad()``: inside a disabled region,
newly created tensors do not record a backward graph even when their
inputs require gradients.  The state is process-global (the engine is
single-threaded, like the experiments in the paper).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record a backward graph."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording.

    Example
    -------
    >>> from repro.autograd import Tensor, no_grad
    >>> x = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2.0
    >>> y.requires_grad
    False
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous
