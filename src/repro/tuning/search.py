"""Random search with successive halving (the Ray Tune substitute).

:func:`random_search` evaluates sampled configurations with a
user-supplied objective; :func:`successive_halving` adds an ASHA-like
budget schedule — cheap low-budget screening, survivors re-evaluated at
larger budget — which is how we keep per-dataset augmentation tuning
tractable on a laptop-scale CPU budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .search_space import SearchSpace

__all__ = ["TrialResult", "random_search", "successive_halving", "tune_augmentation"]

Objective = Callable[[Dict[str, float], int], float]


@dataclass
class TrialResult:
    """One evaluated configuration."""

    config: Dict[str, float]
    score: float
    budget: int


def random_search(
    objective: Callable[[Dict[str, float]], float],
    space: SearchSpace,
    n_trials: int = 16,
    seed: int = 0,
) -> List[TrialResult]:
    """Evaluate ``n_trials`` sampled configs; returns results sorted
    best-first (higher score is better)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_trials):
        config = space.sample(rng)
        results.append(TrialResult(config=config, score=float(objective(config)), budget=1))
    return sorted(results, key=lambda r: r.score, reverse=True)


def successive_halving(
    objective: Objective,
    space: SearchSpace,
    n_trials: int = 16,
    budgets: tuple = (1, 2, 4),
    keep_fraction: float = 0.5,
    seed: int = 0,
) -> List[TrialResult]:
    """ASHA-style schedule: evaluate all configs at ``budgets[0]``, keep
    the best ``keep_fraction`` for the next budget, and so on.

    ``objective(config, budget)`` should scale its fidelity (e.g.,
    training epochs) with ``budget``.  Returns the final survivors,
    sorted best-first.
    """
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    if not 0 < keep_fraction < 1:
        raise ValueError("keep_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    population = [space.sample(rng) for _ in range(n_trials)]
    results: List[TrialResult] = []
    for level, budget in enumerate(budgets):
        results = [
            TrialResult(config=c, score=float(objective(c, budget)), budget=budget)
            for c in population
        ]
        results.sort(key=lambda r: r.score, reverse=True)
        if level < len(budgets) - 1:
            survivors = max(1, int(round(len(results) * keep_fraction)))
            population = [r.config for r in results[:survivors]]
    return results


def tune_augmentation(
    dataset_name: str,
    n_trials: int = 8,
    seed: int = 0,
    n_samples: int = 60,
    max_epochs: int = 20,
) -> "TrialResult":
    """Tune the augmentation config for one dataset end-to-end.

    Trains a small ADAPT-pNC per trial with the sampled augmentation
    and scores validation accuracy — the same loop the paper runs in
    Ray Tune, at reduced fidelity.  Returns the best trial.
    """
    from dataclasses import replace as dc_replace

    from ..augment import AugmentationConfig
    from ..core.evaluation import accuracy
    from ..core.models import AdaptPNC
    from ..core.training import Trainer, TrainingConfig
    from ..data import load_dataset
    from .search_space import default_space

    dataset = load_dataset(dataset_name, n_samples=n_samples, seed=seed)
    base_training = dc_replace(TrainingConfig.ci(), max_epochs=max_epochs)

    def objective(config: Dict[str, float]) -> float:
        aug = AugmentationConfig(
            jitter_sigma=config["jitter_sigma"],
            time_warp_strength=config["time_warp_strength"],
            crop_fraction=config["crop_fraction"],
        )
        model = AdaptPNC(dataset.info.n_classes, rng=np.random.default_rng(seed))
        trainer = Trainer(
            model, base_training, variation_aware=True, augmentation=aug, seed=seed
        )
        trainer.fit(dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val)
        return accuracy(model, dataset.x_val, dataset.y_val)

    results = random_search(objective, default_space(), n_trials=n_trials, seed=seed)
    return results[0]
