"""The paper's learning-rate schedule.

The paper's protocol (Sec. IV-A3): initial LR 0.1, halved after every
100 epochs without validation-loss improvement, training terminated once
the LR drops below 1e-5.  :class:`ReduceLROnPlateau` implements exactly
that policy; :meth:`should_stop` exposes the termination criterion.
"""

from __future__ import annotations

import math

from .optimizer import Optimizer

__all__ = ["ReduceLROnPlateau"]


class ReduceLROnPlateau:
    """Halve (by ``factor``) the LR after ``patience`` epochs of no improvement.

    Parameters
    ----------
    optimizer:
        Optimizer whose ``lr`` attribute is managed.
    factor:
        Multiplicative LR decay applied on plateau (paper: 0.5).
    patience:
        Number of consecutive non-improving epochs tolerated (paper: 100).
    min_lr:
        Training should terminate below this LR (paper: 1e-5).
    threshold:
        Minimum relative improvement that counts as progress.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        factor: float = 0.5,
        patience: int = 100,
        min_lr: float = 1e-5,
        threshold: float = 1e-4,
    ) -> None:
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if patience < 0:
            raise ValueError("patience must be non-negative")
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.threshold = threshold
        self.best = math.inf
        self.num_bad_epochs = 0

    def step(self, metric: float) -> None:
        """Record one epoch's validation metric (lower is better)."""
        if metric < self.best * (1.0 - self.threshold) or self.best is math.inf:
            self.best = metric
            self.num_bad_epochs = 0
        else:
            self.num_bad_epochs += 1
        if self.num_bad_epochs > self.patience:
            self.optimizer.lr *= self.factor
            self.num_bad_epochs = 0

    def should_stop(self) -> bool:
        """True once the LR has decayed below ``min_lr`` (paper's stop rule)."""
        return self.optimizer.lr < self.min_lr

    def state_dict(self) -> dict:
        """Serialisable snapshot of the plateau tracker (for checkpoints)."""
        return {"best": self.best, "num_bad_epochs": self.num_bad_epochs}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (bit-exact)."""
        self.best = float(state["best"])
        self.num_bad_epochs = int(state["num_bad_epochs"])
