"""Experiment harness regenerating every table and figure of the paper.

Entry points (one per artefact):

* :func:`run_table1` — accuracy of Elman RNN / baseline pTPNC /
  robustness-aware ADAPT-pNC under ±10 % variation + perturbed inputs;
* :func:`run_table2` — average runtime comparison;
* :func:`run_table3` — hardware costs (delegates to :mod:`repro.hw`);
* :func:`run_fig5` — accuracy collapse of the no-variation-aware
  baseline under variation and perturbation;
* :func:`run_fig6` — augmentation showcase on PowerCons;
* :func:`run_fig7_ablation` — VA / AT / SO-LF ablation;
* :func:`run_mu_extraction` — the SPICE μ-range study of Sec. III-2.

Every function takes an :class:`ExperimentConfig`; ``paper()`` matches
the published protocol, ``ci()`` and ``smoke()`` shrink seeds / epochs /
datasets while exercising the identical code path.

The big grids (:func:`run_table1`, :func:`run_fig7_ablation`) are
decomposed into independent ``(dataset × model × seed)`` **cells** and
executed through the :mod:`repro.parallel` orchestrator: pass
``executor="parallel"`` (or a full :class:`~repro.parallel.SweepOptions`
via ``sweep=``) to shard the cells across worker processes with
timeouts, retries and an on-disk resume cache.  The default
``executor="serial"`` runs the identical cells in-process and is the
bit-equal oracle — both executors produce identical tables because
every cell derives all of its randomness from its own coordinates.

When executed inside a :class:`repro.telemetry.Run`, the harness emits
one ``experiment`` event per table/figure cell as it is produced (plus
``sweep.*`` events around sharded campaigns), so a long regeneration
can be watched live with ``python -m repro runs tail`` and
post-mortemed from ``events.jsonl``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..augment import AugmentationConfig, default_config, perturb
from ..data import DATASET_INFO, load_dataset
from ..utils.timing import time_callable
from .. import telemetry
from .evaluation import accuracy, evaluate_under_variation, select_top_k
from .models import AdaptPNC, ElmanClassifier, PTPNC
from .training import Trainer, TrainingConfig

__all__ = [
    "ExperimentConfig",
    "ModelResult",
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
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by every experiment entry point."""

    datasets: Tuple[str, ...] = tuple(DATASET_INFO)
    n_samples: int = 150
    seeds: Tuple[int, ...] = tuple(range(10))
    training: TrainingConfig = field(default_factory=TrainingConfig.paper)
    eval_delta: float = 0.10
    eval_mc: int = 10
    top_k: int = 3

    def __post_init__(self) -> None:
        unknown = set(self.datasets) - set(DATASET_INFO)
        if unknown:
            raise ValueError(f"unknown datasets: {sorted(unknown)}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")

    @staticmethod
    def paper() -> "ExperimentConfig":
        """The published protocol: 15 datasets, 10 seeds, full training."""
        return ExperimentConfig()

    @staticmethod
    def ci() -> "ExperimentConfig":
        """Minutes-scale configuration (all datasets, short training)."""
        return ExperimentConfig(
            n_samples=90,
            seeds=(0, 1),
            training=TrainingConfig.ci(),
            eval_mc=5,
            top_k=2,
        )

    @staticmethod
    def smoke(datasets: Sequence[str] = ("Slope", "GPOVY", "PowerCons")) -> "ExperimentConfig":
        """Sub-minute configuration for tests and default benchmarks."""
        return ExperimentConfig(
            datasets=tuple(datasets),
            n_samples=90,
            seeds=(0,),
            training=replace(TrainingConfig.ci(), max_epochs=50, lr_patience=8),
            eval_mc=3,
            top_k=1,
        )


@dataclass
class ModelResult:
    """Mean ± std accuracy of one model on one dataset.

    ``n_failed`` counts sweep cells that never produced a value (after
    their retry budget); a result whose *every* cell failed carries NaN
    statistics but still renders, so a partially degraded sweep always
    yields a complete table with its failures annotated.
    """

    mean: float
    std: float
    n_failed: int = 0

    @classmethod
    def failed(cls, n_failed: int) -> "ModelResult":
        """Placeholder for a table entry whose every cell failed."""
        return cls(mean=math.nan, std=math.nan, n_failed=n_failed)

    @property
    def ok(self) -> bool:
        """Whether at least one cell produced a value."""
        return math.isfinite(self.mean)

    def __repr__(self) -> str:
        if not self.ok:
            return f"FAILED ({self.n_failed} cells)"
        base = f"{self.mean:.3f} ± {self.std:.3f}"
        if self.n_failed:
            base += f" [{self.n_failed} failed]"
        return base


def _build_model(kind: str, n_classes: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "elman":
        return ElmanClassifier(n_classes, rng=rng)
    if kind == "ptpnc":
        return PTPNC(n_classes, rng=rng)
    if kind == "adapt":
        return AdaptPNC(n_classes, rng=rng)
    raise ValueError(f"unknown model kind {kind!r}")


def _train_one(
    kind: str,
    dataset,
    seed: int,
    config: ExperimentConfig,
    augmentation: Optional[AugmentationConfig],
    variation_aware: bool,
):
    """Train one (model kind, seed) pair; returns (model, clean test acc)."""
    model = _build_model(kind, dataset.info.n_classes, seed)
    trainer = Trainer(
        model,
        config.training,
        variation_aware=variation_aware and kind != "elman",
        augmentation=augmentation,
        seed=seed,
    )
    # checkpoint_every=0: many fits share one experiment run — the
    # single default checkpoint slot would just be overwritten.
    trainer.fit(
        dataset.x_train,
        dataset.y_train,
        dataset.x_val,
        dataset.y_val,
        checkpoint_every=0,
    )
    if hasattr(model, "set_sampler"):
        from ..circuits import ideal_sampler

        model.set_sampler(ideal_sampler())
    return model, accuracy(model, dataset.x_test, dataset.y_test)


def _robust_accuracy(
    model,
    x_test: np.ndarray,
    y_test: np.ndarray,
    config: ExperimentConfig,
    augmentation: Optional[AugmentationConfig],
    seed: int,
) -> float:
    """The paper's measurement: perturbed test set + component variation."""
    x_eval = (
        perturb(x_test, augmentation, seed=seed + 31) if augmentation is not None else x_test
    )
    result = evaluate_under_variation(
        model, x_eval, y_test, delta=config.eval_delta, mc_samples=config.eval_mc, seed=seed
    )
    return result.mean


#: The three Table-I training recipes, keyed by model kind.
TABLE1_RECIPES: Dict[str, Dict[str, object]] = {
    "elman": dict(augmentation=None, variation_aware=False),
    "ptpnc": dict(augmentation=None, variation_aware=False),
    "adapt": dict(augmentation="per-dataset", variation_aware=True),
}


def _resolve_sweep(executor: Optional[str], sweep):
    """Coerce the ``executor``/``sweep`` pair into one SweepOptions."""
    from ..parallel import SweepOptions

    if sweep is not None:
        if executor is not None and executor != sweep.executor:
            raise ValueError(
                f"conflicting executors: executor={executor!r} vs sweep.executor="
                f"{sweep.executor!r}"
            )
        return sweep
    return SweepOptions(executor=executor or "serial")


def _table1_cell(
    config: ExperimentConfig, dataset_name: str, kind: str, seed_index: int
) -> Dict[str, float]:
    """One Table-I sweep cell: train one (dataset, kind, seed) model.

    A pure function of its arguments — every random draw (init,
    augmentation, variation sampling, robust evaluation) derives from
    the cell's own seeds through independent child streams, so the
    value is identical whether the cell runs serially, in another
    process, or in any order relative to its siblings.
    """
    dataset = load_dataset(dataset_name, n_samples=config.n_samples, seed=0)
    recipe = TABLE1_RECIPES[kind]
    aug = (
        default_config(dataset_name) if recipe["augmentation"] == "per-dataset" else None
    )
    seed = config.seeds[seed_index]
    model, clean_acc = _train_one(
        kind, dataset, seed, config, aug, recipe["variation_aware"]
    )
    eval_aug = aug if aug is not None else default_config(dataset_name)
    robust = _robust_accuracy(
        model, dataset.x_test, dataset.y_test, config, eval_aug, seed=seed_index
    )
    return {"clean_acc": float(clean_acc), "robust_acc": float(robust)}


def _table1_cells(config: ExperimentConfig):
    """Submission-ordered sweep cells of the Table-I grid."""
    from ..parallel import SweepCell

    return [
        SweepCell(
            key=("table1", name, kind, str(i)), args=(config, name, kind, i)
        )
        for name in config.datasets
        for kind in TABLE1_RECIPES
        for i in range(len(config.seeds))
    ]


def _collect_seed_cells(outcomes, artefact: str, name: str, kind: str, n_seeds: int):
    """Ordered (ok outcomes, failure count) of one table entry's seeds."""
    outs = [outcomes[(artefact, name, kind, str(i))] for i in range(n_seeds)]
    ok = [o for o in outs if o.ok]
    return ok, len(outs) - len(ok)


def run_table1(
    config: Optional[ExperimentConfig] = None,
    verbose: bool = False,
    executor: Optional[str] = None,
    sweep=None,
) -> Dict[str, Dict[str, ModelResult]]:
    """Regenerate Table I.

    For each dataset and model kind: train one model per seed, select
    the top-k by clean test accuracy (the paper's top-3 rule), then
    evaluate each selected model on the perturbed test set under
    ±10 % component variation.  Returns
    ``{dataset: {"elman"|"ptpnc"|"adapt": ModelResult}}`` plus an
    ``"Average"`` entry.

    ``executor`` selects the sweep executor (``"serial"`` oracle by
    default, ``"parallel"`` for sharded worker processes); ``sweep``
    accepts a full :class:`~repro.parallel.SweepOptions` (timeouts,
    retries, resume cache).  Both executors are bit-equal.  Cells that
    fail after their retry budget degrade into annotated
    :class:`ModelResult` placeholders instead of aborting the run.
    """
    from ..parallel import run_cells

    config = config or ExperimentConfig.paper()
    options = _resolve_sweep(executor, sweep)
    outcomes = run_cells(
        _table1_cell,
        _table1_cells(config),
        options,
        fingerprint={
            "artefact": "table1",
            "config": asdict(config),
            # Explicit so a precision-policy change can never silently
            # reuse cached cells, even if the config layout evolves.
            "precision": config.training.precision,
        },
    )

    table: Dict[str, Dict[str, ModelResult]] = {}
    for name in config.datasets:
        table[name] = {}
        for kind in TABLE1_RECIPES:
            ok, n_failed = _collect_seed_cells(
                outcomes, "table1", name, kind, len(config.seeds)
            )
            if not ok:
                table[name][kind] = ModelResult.failed(n_failed)
            else:
                top = select_top_k(
                    [o.value["clean_acc"] for o in ok], k=config.top_k
                )
                robust = [ok[i].value["robust_acc"] for i in top]
                table[name][kind] = ModelResult(
                    mean=float(np.mean(robust)),
                    std=float(np.std(robust)),
                    n_failed=n_failed,
                )
            telemetry.emit(
                "experiment",
                artefact="table1",
                dataset=name,
                model=kind,
                robust_mean=table[name][kind].mean,
                robust_std=table[name][kind].std,
                n_seeds=len(config.seeds),
                n_failed=n_failed,
            )
            if verbose:
                print(f"{name:<10} {kind:<6} {table[name][kind]}")

    table["Average"] = {}
    for kind in TABLE1_RECIPES:
        entries = [table[d][kind] for d in config.datasets]
        finite = [e for e in entries if e.ok]
        n_failed = sum(e.n_failed for e in entries)
        if not finite:
            table["Average"][kind] = ModelResult.failed(n_failed)
        else:
            table["Average"][kind] = ModelResult(
                mean=float(np.mean([e.mean for e in finite])),
                std=float(np.mean([e.std for e in finite])),
                n_failed=n_failed,
            )
    return table


def format_table1(table: Dict[str, Dict[str, ModelResult]]) -> str:
    """Render a Table-I-shaped report."""
    from ..utils.tables import render_table

    rows = []
    for name, entry in table.items():
        rows.append(
            [name, repr(entry["elman"]), repr(entry["ptpnc"]), repr(entry["adapt"])]
        )
    return render_table(
        ["Dataset", "Elman RNN (ref)", "pTPNC (baseline)", "ADAPT-pNC (proposed)"], rows
    )


def run_table2(
    config: Optional[ExperimentConfig] = None,
    dataset_name: str = "PowerCons",
    repeats: int = 3,
) -> Dict[str, float]:
    """Regenerate Table II: average wall-clock time of a one-epoch fit.

    Times ``Trainer.fit`` with ``max_epochs=1`` per model — its training
    epoch *and* the validation pass after it — with each model's own
    training policy (ADAPT-pNC pays for Monte-Carlo sampling and the
    augmented training set), averaged over ``repeats`` fits.  Returns
    seconds per one-epoch fit.
    """
    config = config or ExperimentConfig.ci()
    dataset = load_dataset(dataset_name, n_samples=config.n_samples, seed=0)

    timings: Dict[str, float] = {}
    setups = {
        "elman": dict(variation_aware=False, augmentation=None),
        "ptpnc": dict(variation_aware=False, augmentation=None),
        "adapt": dict(variation_aware=True, augmentation=default_config(dataset_name)),
    }
    for kind, setup in setups.items():
        model = _build_model(kind, dataset.info.n_classes, seed=0)
        trainer = Trainer(
            model,
            replace(config.training, max_epochs=1),
            variation_aware=setup["variation_aware"] and kind != "elman",
            augmentation=setup["augmentation"],
            seed=0,
        )
        timings[kind] = time_callable(
            lambda t=trainer, d=dataset: t.fit(
                d.x_train, d.y_train, d.x_val, d.y_val, checkpoint_every=0
            ),
            repeats=repeats,
        )
        telemetry.emit(
            "experiment",
            artefact="table2",
            dataset=dataset_name,
            model=kind,
            # Historical key: the value is the one-epoch fit time.
            seconds_per_step=timings[kind],
            repeats=repeats,
        )
    return timings


def run_table3(config: Optional[ExperimentConfig] = None):
    """Regenerate Table III (hardware costs); see :mod:`repro.hw`."""
    from ..hw import hardware_report

    config = config or ExperimentConfig.paper()
    return hardware_report(datasets=config.datasets)


def run_fig5(
    config: Optional[ExperimentConfig] = None,
    dataset_name: str = "Slope",
) -> Dict[str, float]:
    """Regenerate Fig. 5: the no-variation-aware baseline collapses.

    Trains a clean baseline pTPNC and reports accuracy on the four test
    conditions: clean/perturbed data × ideal/±10 % components.
    """
    config = config or ExperimentConfig.ci()
    dataset = load_dataset(dataset_name, n_samples=config.n_samples, seed=0)
    accs = []
    for seed in config.seeds:
        model, _ = _train_one("ptpnc", dataset, seed, config, None, variation_aware=False)
        x_pert = perturb(dataset.x_test, default_config(dataset_name), seed=seed)
        accs.append(
            {
                "clean_ideal": evaluate_under_variation(
                    model, dataset.x_test, dataset.y_test, delta=0.0, mc_samples=1
                ).mean,
                "clean_varied": evaluate_under_variation(
                    model,
                    dataset.x_test,
                    dataset.y_test,
                    delta=config.eval_delta,
                    mc_samples=config.eval_mc,
                    seed=seed,
                ).mean,
                "perturbed_ideal": evaluate_under_variation(
                    model, x_pert, dataset.y_test, delta=0.0, mc_samples=1
                ).mean,
                "perturbed_varied": evaluate_under_variation(
                    model,
                    x_pert,
                    dataset.y_test,
                    delta=config.eval_delta,
                    mc_samples=config.eval_mc,
                    seed=seed,
                ).mean,
            }
        )
    return {key: float(np.mean([a[key] for a in accs])) for key in accs[0]}


def run_fig6(dataset_name: str = "PowerCons", seed: int = 0) -> Dict[str, np.ndarray]:
    """Regenerate Fig. 6: one PowerCons series under each augmentation."""
    from ..augment import (
        FrequencyNoise,
        Jitter,
        MagnitudeScale,
        TimeWarp,
    )

    dataset = load_dataset(dataset_name, n_samples=60, seed=seed)
    series = dataset.x_train[:1]
    rng = np.random.default_rng(seed)
    return {
        "original": series[0],
        "jittering": Jitter(0.08)(series, rng)[0],
        "time_warping": TimeWarp(0.25)(series, rng)[0],
        "magnitude_scaling": MagnitudeScale(0.25)(series, rng)[0],
        "frequency_domain": FrequencyNoise(0.25)(series, rng)[0],
    }


#: The five training configurations of the Fig. 7 ablation.
ABLATION_CONFIGS: Dict[str, Dict[str, bool]] = {
    "baseline": dict(va=False, at=False, so=False),
    "va": dict(va=True, at=False, so=False),
    "at": dict(va=False, at=True, so=False),
    "so_lf": dict(va=False, at=False, so=True),
    "va_so_at": dict(va=True, at=True, so=True),
}


def _fig7_cell(
    config: ExperimentConfig, dataset_name: str, cfg_name: str, seed_index: int
) -> Dict[str, float]:
    """One Fig.-7 sweep cell: train one (dataset, ablation, seed) model.

    Like :func:`_table1_cell` this is a pure function of its
    coordinates, so serial and parallel execution are bit-equal.
    """
    dataset = load_dataset(dataset_name, n_samples=config.n_samples, seed=0)
    aug = default_config(dataset_name)
    flags = ABLATION_CONFIGS[cfg_name]
    kind = "adapt" if flags["so"] else "ptpnc"
    seed = config.seeds[seed_index]
    model, _ = _train_one(
        kind,
        dataset,
        seed,
        config,
        aug if flags["at"] else None,
        variation_aware=flags["va"],
    )
    clean = evaluate_under_variation(
        model,
        dataset.x_test,
        dataset.y_test,
        delta=config.eval_delta,
        mc_samples=config.eval_mc,
        seed=seed,
    ).mean
    x_pert = perturb(dataset.x_test, aug, seed=seed + 97)
    perturbed = evaluate_under_variation(
        model,
        x_pert,
        dataset.y_test,
        delta=config.eval_delta,
        mc_samples=config.eval_mc,
        seed=seed,
    ).mean
    return {"clean_acc": float(clean), "perturbed_acc": float(perturbed)}


def _fig7_cells(config: ExperimentConfig):
    """Submission-ordered sweep cells of the Fig.-7 ablation grid."""
    from ..parallel import SweepCell

    return [
        SweepCell(
            key=("fig7", name, cfg_name, str(i)), args=(config, name, cfg_name, i)
        )
        for name in config.datasets
        for cfg_name in ABLATION_CONFIGS
        for i in range(len(config.seeds))
    ]


def run_fig7_ablation(
    config: Optional[ExperimentConfig] = None,
    verbose: bool = False,
    executor: Optional[str] = None,
    sweep=None,
) -> Dict[str, Dict[str, ModelResult]]:
    """Regenerate Fig. 7: mean accuracy of the five ablation configs.

    Each configuration toggles variation-aware training (VA), augmented
    training (AT) and second-order filters (SO-LF).  Accuracy is
    reported on clean and perturbed test data, both under ±10 %
    component variation (the paper's "10 % physical variation
    scenario").  Returns ``{config: {"clean"|"perturbed": ModelResult}}``
    averaged over datasets.

    ``executor``/``sweep`` select the sweep executor exactly as in
    :func:`run_table1` (serial oracle by default, bit-equal parallel
    sharding on request); failed cells are dropped from the averages
    and counted in ``ModelResult.n_failed``.
    """
    from ..parallel import run_cells

    config = config or ExperimentConfig.ci()
    options = _resolve_sweep(executor, sweep)
    outcomes = run_cells(
        _fig7_cell,
        _fig7_cells(config),
        options,
        fingerprint={
            "artefact": "fig7",
            "config": asdict(config),
            "precision": config.training.precision,
        },
    )

    per_config: Dict[str, Dict[str, List[float]]] = {
        name: {"clean": [], "perturbed": []} for name in ABLATION_CONFIGS
    }
    failed: Dict[str, int] = {name: 0 for name in ABLATION_CONFIGS}
    for name in config.datasets:
        for cfg_name in ABLATION_CONFIGS:
            ok, n_failed = _collect_seed_cells(
                outcomes, "fig7", name, cfg_name, len(config.seeds)
            )
            accs_clean = [o.value["clean_acc"] for o in ok]
            accs_pert = [o.value["perturbed_acc"] for o in ok]
            per_config[cfg_name]["clean"].extend(accs_clean)
            per_config[cfg_name]["perturbed"].extend(accs_pert)
            failed[cfg_name] += n_failed
            telemetry.emit(
                "experiment",
                artefact="fig7",
                dataset=name,
                ablation=cfg_name,
                clean_mean=float(np.mean(accs_clean)) if accs_clean else math.nan,
                perturbed_mean=float(np.mean(accs_pert)) if accs_pert else math.nan,
                n_seeds=len(config.seeds),
                n_failed=n_failed,
            )
            if verbose:
                clean_s = f"{np.mean(accs_clean):.3f}" if accs_clean else "FAILED"
                pert_s = f"{np.mean(accs_pert):.3f}" if accs_pert else "FAILED"
                print(f"{name:<10} {cfg_name:<9} clean {clean_s} pert {pert_s}")

    return {
        cfg_name: {
            mode: (
                ModelResult(
                    mean=float(np.mean(vals)),
                    std=float(np.std(vals)),
                    n_failed=failed[cfg_name],
                )
                if vals
                else ModelResult.failed(failed[cfg_name])
            )
            for mode, vals in modes.items()
        }
        for cfg_name, modes in per_config.items()
    }


def format_fig7(results: Dict[str, Dict[str, ModelResult]]) -> str:
    """Render the ablation as an ASCII table."""
    from ..utils.tables import render_table

    rows = [
        [name, repr(modes["clean"]), repr(modes["perturbed"])]
        for name, modes in results.items()
    ]
    return render_table(["Config", "Clean acc", "Perturbed acc"], rows)


def run_mu_extraction(samples: int = 20, seed: int = 0) -> Dict[str, float]:
    """Regenerate the μ-range study of Sec. III-2 via the MNA engine."""
    from ..circuits import extract_mu_range

    mu1, mu2 = extract_mu_range(samples=samples, rng=np.random.default_rng(seed))
    both = np.concatenate([mu1, mu2])
    return {
        "mu_min": float(both.min()),
        "mu_max": float(both.max()),
        "mu_mean": float(both.mean()),
        "within_paper_band": float(np.mean((both >= 1.0) & (both <= 1.3))),
    }
