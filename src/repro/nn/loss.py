"""The classification loss of classifier training."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..autograd import Tensor, log_softmax

__all__ = ["cross_entropy"]

Labels = Union[np.ndarray, Sequence[int]]


def _check_logits_labels(logits: Tensor, labels: np.ndarray) -> None:
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels must be (batch,) matching logits, got {labels.shape} vs {logits.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("label index outside the number of classes")


def cross_entropy(logits: Tensor, labels: Labels) -> Tensor:
    """Mean cross-entropy of integer labels against raw logits."""
    labels = np.asarray(labels, dtype=np.int64)
    _check_logits_labels(logits, labels)
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(labels.shape[0]), labels]
    return -picked.mean()
