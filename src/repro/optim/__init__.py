"""Optimisers and schedules (the ``torch.optim`` substitute)."""

from .adam import Adam, AdamW
from .lr_scheduler import ReduceLROnPlateau
from .optimizer import Optimizer

__all__ = [
    "Optimizer",
    "Adam",
    "AdamW",
    "ReduceLROnPlateau",
]
