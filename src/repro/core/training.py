"""Variation-aware training (Sec. III-A, Eqs. 12-14).

The trainable component values are treated as random variables
``v = v₀ ⊙ ε``; the objective is the Monte-Carlo estimate of the
expected loss over ε, μ and V₀ (Eq. 13), minimised with AdamW under the
paper's protocol: full-batch training, initial LR 0.1, halved after
every ``patience`` epochs without validation improvement, terminated
once the LR falls below 1e-5.

The same :class:`Trainer` trains the non-variation-aware baseline
(ideal sampler, one MC sample) and the hardware-agnostic Elman
reference (no sampler at all) — one code path for every row of Table I.

Monte-Carlo backends
--------------------
The MC expectation over draws is evaluated by one of two backends:

* ``"batched"`` (default) — all draws run through a single vectorized
  forward with a leading ``(draws, batch, ...)`` axis (the variation
  sampler's :meth:`~repro.circuits.VariationSampler.batched` context);
* ``"sequential"`` — the original per-draw Python loop, retained as the
  reference oracle for equivalence testing.

Both backends derive one child random stream per draw from the same
parent generator, so they sample bit-identical ε/μ/V₀ values and their
losses agree to floating-point accumulation error (≪1e-8).

Telemetry
---------
When a :class:`repro.telemetry.Run` is active, :meth:`Trainer.fit`
keys the run manifest with the training protocol and emits one
``epoch`` event per epoch (train/val loss, MC loss mean/std across
draws, learning rate, epoch wall-clock) plus ``fit_start`` /
``fit_end`` markers; the objective/backward/validation phases are
timed as telemetry spans.  With no active run every hook is a single
``None`` check — the fast path emits nothing and adds no measurable
overhead (regression-tested).

Checkpoint/resume
-----------------
``fit(..., checkpoint_dir=...)`` writes an ``.npz`` checkpoint (model
parameters, best-so-far state, AdamW moments, plateau-scheduler
counters, the variation sampler's RNG bit-generator state, and the
history) after each epoch; ``resume=True`` restores it and continues
the epoch loop **bit-equally** — the resumed run's remaining epochs
reproduce the uninterrupted run's losses exactly, because every source
of state (including the per-draw random streams) is serialised.  When
a telemetry run is active and no ``checkpoint_dir`` is given,
checkpoints land in ``<run dir>/checkpoints/`` keyed by the manifest.
"""

from __future__ import annotations

import math
import pathlib
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..augment import AugmentationConfig, augment_dataset
from ..autograd import Tensor, no_grad
from ..autograd.precision import (
    PRECISION_POLICIES,
    get_precision,
    resolve_policy,
    use_precision,
)
from ..circuits import SCAN_BACKENDS, UniformVariation, VariationSampler, ideal_sampler
from ..nn import cross_entropy
from ..nn.module import Module
from ..optim import AdamW, ReduceLROnPlateau
from ..utils.serialization import load_checkpoint, save_checkpoint
from ..utils.timing import Stopwatch, mc_counters

__all__ = [
    "TrainingConfig",
    "TrainingHistory",
    "Trainer",
    "MC_BACKENDS",
    "SCAN_BACKENDS",
    "CHECKPOINT_FILENAME",
]

#: Valid Monte-Carlo objective backends.
MC_BACKENDS = ("batched", "sequential")

#: File name of the (single, overwritten) trainer checkpoint.
CHECKPOINT_FILENAME = "checkpoint.npz"

#: Version tag of the checkpoint layout.
CHECKPOINT_VERSION = 1

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run.

    The defaults are the paper's protocol; :meth:`ci` returns a reduced
    same-code-path configuration for fast tests and benchmarks.
    """

    lr: float = 0.1
    lr_factor: float = 0.5
    lr_patience: int = 100
    min_lr: float = 1e-5
    max_epochs: int = 3000
    mc_samples: int = 5
    weight_decay: float = 0.01
    variation_delta: float = 0.10
    logit_loss: str = "cross_entropy"
    #: Monte-Carlo objective backend: "batched" evaluates all draws in
    #: one vectorized forward; "sequential" is the per-draw reference
    #: oracle (identical draws, kept for equivalence testing).
    mc_backend: str = "batched"
    #: Filter-recurrence backend: "fused" runs each RC scan as a single
    #: custom autograd node with an analytic adjoint backward;
    #: "unfused" is the node-per-step reference oracle.
    scan_backend: str = "fused"
    #: Precision policy: "float64" is the bit-equal reference oracle;
    #: "float32" runs compute, weights and optimizer moments in single
    #: precision; "mixed" runs float32 compute against float64 master
    #: weights/moments inside AdamW (AMP-style).
    precision: str = "float64"

    def __post_init__(self) -> None:
        """Validate hyper-parameter ranges and backend names."""
        if self.lr <= 0 or self.min_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if not 0 <= self.variation_delta < 1:
            raise ValueError("variation_delta must be in [0, 1)")
        if self.mc_backend not in MC_BACKENDS:
            raise ValueError(f"mc_backend must be one of {MC_BACKENDS}")
        if self.scan_backend not in SCAN_BACKENDS:
            raise ValueError(f"scan_backend must be one of {SCAN_BACKENDS}")
        if self.precision not in PRECISION_POLICIES:
            raise ValueError(f"precision must be one of {PRECISION_POLICIES}")

    @staticmethod
    def paper() -> "TrainingConfig":
        """The exact protocol of Sec. IV-A3."""
        return TrainingConfig()

    @staticmethod
    def ci() -> "TrainingConfig":
        """Reduced-size protocol for CI/benchmarks (same code path).

        The paper's lr = 0.1 relies on plateau-halving over thousands
        of epochs to recover from early instability; at a 150-epoch
        horizon a 0.03 initial LR reaches the same optima directly.
        """
        return TrainingConfig(
            lr=0.03,
            lr_patience=15,
            min_lr=1e-4,
            max_epochs=150,
            mc_samples=2,
        )


@dataclass
class TrainingHistory:
    """Per-epoch records of one training run."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)
    best_val_loss: float = math.inf
    best_epoch: int = -1
    epochs_run: int = 0

    @classmethod
    def from_epoch_events(cls, events: Sequence[Dict]) -> "TrainingHistory":
        """Rebuild a history from telemetry ``epoch`` events.

        The trainer emits every per-epoch quantity into the event
        stream verbatim (JSON floats round-trip exactly), so the
        reconstruction equals the in-memory history of the run that
        produced the events.
        """
        events = sorted(events, key=lambda e: e["epoch"])
        history = cls()
        for event in events:
            history.train_loss.append(float(event["train_loss"]))
            history.val_loss.append(float(event["val_loss"]))
            history.learning_rate.append(float(event["lr"]))
        if events:
            last = events[-1]
            history.best_val_loss = float(last["best_val_loss"])
            history.best_epoch = int(last["best_epoch"])
            history.epochs_run = int(last["epoch"]) + 1
        return history


def mc_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over a ``(draws, batch, classes)`` logit stack.

    Flattens draws and batch into one axis and tiles the labels, which
    equals the draw-average of per-draw mean cross-entropies (every
    draw covers the same batch) — the vectorized form of Eq. 13.
    """
    if logits.ndim != 3:
        raise ValueError(f"expected (draws, batch, classes) logits, got {logits.shape}")
    draws, batch, classes = logits.shape
    flat = logits.reshape(draws * batch, classes)
    tiled = np.tile(np.asarray(labels, dtype=np.int64), draws)
    return cross_entropy(flat, tiled)


__all__.append("mc_cross_entropy")


def _per_draw_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-draw mean cross-entropy of a ``(draws, batch, classes)`` stack.

    Pure-numpy (no autograd graph): used only to report the Monte-Carlo
    loss distribution across draws in telemetry epoch events.
    """
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = logp[:, np.arange(labels.shape[0]), labels]  # (draws, batch)
    return -picked.mean(axis=1)


def _rng_state(rng: np.random.Generator) -> Dict:
    """JSON-serialisable snapshot of a numpy Generator's exact state.

    ``bit_generator.state`` alone is *not* enough for bit-equal resume:
    the variation sampler derives per-draw child streams via
    ``Generator.spawn``, which advances the underlying ``SeedSequence``
    spawn counter — a piece of state the bit-generator dict omits.  The
    snapshot therefore records both the raw bit-generator state and the
    seed sequence (entropy, spawn key, spawn counter).
    """
    bitgen = rng.bit_generator
    seed_seq = getattr(bitgen, "seed_seq", None) or bitgen._seed_seq
    return {
        "state": bitgen.state,
        "seed_seq": {
            "entropy": seed_seq.entropy,
            "spawn_key": list(seed_seq.spawn_key),
            "pool_size": seed_seq.pool_size,
            "n_children_spawned": seed_seq.n_children_spawned,
        },
    }


def _restore_rng(state: Dict) -> np.random.Generator:
    """Rebuild a numpy Generator from a :func:`_rng_state` snapshot.

    The returned generator reproduces both the raw random stream *and*
    future ``spawn`` calls bit-for-bit.
    """
    seq = state["seed_seq"]
    seed_seq = np.random.SeedSequence(
        entropy=seq["entropy"],
        spawn_key=tuple(seq["spawn_key"]),
        pool_size=int(seq["pool_size"]),
        n_children_spawned=int(seq["n_children_spawned"]),
    )
    bitgen_cls = getattr(np.random, state["state"]["bit_generator"])
    bitgen = bitgen_cls(seed_seq)
    bitgen.state = state["state"]
    return np.random.Generator(bitgen)


class Trainer:
    """Trains one model under one variation policy.

    Parameters
    ----------
    model:
        Any module mapping ``(batch, time)`` series to logits.
    config:
        Protocol hyper-parameters.
    variation_aware:
        When True (and the model is a printed model exposing
        ``set_sampler``), training samples component variations per
        Monte-Carlo draw; otherwise the ideal sampler is installed and a
        single draw is used.
    augmentation:
        Optional augmented-training (AT) config: the training and
        validation sets are extended with augmented copies, per the
        paper's policy of combining augmented with original data.
    seed:
        Controls the variation sampler and augmentation draws.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[TrainingConfig] = None,
        variation_aware: bool = False,
        augmentation: Optional[AugmentationConfig] = None,
        seed: int = 0,
    ) -> None:
        """Install the variation sampler and scan backend on ``model``."""
        self.model = model
        self.config = config if config is not None else TrainingConfig.paper()
        self.variation_aware = variation_aware
        self.augmentation = augmentation
        self.seed = seed
        #: Per-draw losses of the most recent MC objective evaluation
        #: (populated only while a telemetry run is active).
        self._last_draw_losses: Optional[np.ndarray] = None

        self._is_printed = hasattr(model, "set_sampler")
        if hasattr(model, "set_scan_backend"):
            model.set_scan_backend(self.config.scan_backend)
        if self._is_printed:
            if variation_aware:
                sampler = VariationSampler(
                    model=UniformVariation(self.config.variation_delta),
                    rng=np.random.default_rng(seed + 104729),
                )
            else:
                sampler = ideal_sampler()
            model.set_sampler(sampler)
        elif variation_aware:
            raise ValueError("variation-aware training requires a printed model")

    # -- loss ------------------------------------------------------------

    def _mc_samples(self) -> int:
        """Number of Monte-Carlo draws the objective uses (1 if not VA)."""
        if self.variation_aware:
            return self.config.mc_samples
        return 1

    def _loss(self, x: np.ndarray, y: np.ndarray) -> Tensor:
        """Monte-Carlo objective (Eq. 13): average loss over fresh draws.

        Dispatches to the vectorized batched backend (default) or the
        sequential reference oracle, both consuming identical per-draw
        random streams; records wall-clock and draw counts in
        :data:`repro.utils.timing.mc_counters` and, when a telemetry
        run is active, times the forward as a ``forward`` span and
        captures the per-draw loss distribution.
        """
        draws = self._mc_samples()
        backend = self.config.mc_backend
        dtype_key = str(get_precision().compute)
        run = telemetry.active_run()
        self._last_draw_losses = None
        if not (self.variation_aware and self._is_printed):
            # Deterministic objective (ideal sampler / Elman): a single
            # forward is exact, no MC machinery needed.
            with Stopwatch() as sw, telemetry.span("forward"):
                loss = cross_entropy(self.model(x), y)
            mc_counters.record_forward(sw.elapsed, 1, backend="deterministic")
            mc_counters.record_precision(dtype_key, sw.elapsed, 1)
            return loss
        sampler = self.model.sampler
        if backend == "batched":
            with Stopwatch() as sw, telemetry.span("forward"):
                with sampler.batched(draws):
                    logits = self.model(x)  # (draws, batch, classes)
                loss = mc_cross_entropy(logits, y)
            mc_counters.record_forward(sw.elapsed, draws, backend="batched")
            mc_counters.record_precision(dtype_key, sw.elapsed, draws)
            if run is not None:
                self._last_draw_losses = _per_draw_cross_entropy(logits.data, y)
            return loss
        # Sequential oracle: one forward per draw, each consuming its
        # own child stream (the same streams the batched path uses).
        streams = sampler.spawn_streams(draws)
        parent = sampler.rng
        total: Optional[Tensor] = None
        per_draw: List[float] = []
        with Stopwatch() as sw, telemetry.span("forward"):
            try:
                for stream in streams:
                    sampler.rng = stream
                    loss = cross_entropy(self.model(x), y)
                    if run is not None:
                        with no_grad():
                            per_draw.append(float(loss.item()))
                    total = loss if total is None else total + loss
            finally:
                sampler.rng = parent
        mc_counters.record_forward(sw.elapsed, draws, backend="sequential")
        mc_counters.record_precision(dtype_key, sw.elapsed, draws)
        if run is not None:
            self._last_draw_losses = np.asarray(per_draw)
        assert total is not None
        return total / float(draws)

    def _eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Objective value without building a graph (validation loss)."""
        with no_grad():
            return float(self._loss(x, y).item())

    # -- checkpointing ----------------------------------------------------

    def _checkpoint_fingerprint(self) -> Dict:
        """Identity of this training setup, stored in every checkpoint.

        Resume refuses checkpoints whose fingerprint disagrees — a
        silently different protocol could never be bit-equal.
        ``max_epochs`` is deliberately excluded: extending the training
        horizon on resume is legitimate and does not perturb the epochs
        already run.
        """
        config = asdict(self.config)
        config.pop("max_epochs")
        return {
            "config": config,
            "seed": self.seed,
            "variation_aware": self.variation_aware,
            "model_class": type(self.model).__name__,
        }

    def save_checkpoint(
        self,
        path: PathLike,
        optimizer: AdamW,
        scheduler: ReduceLROnPlateau,
        history: TrainingHistory,
        best_state: Optional[Dict[str, np.ndarray]],
        stopped: bool,
    ) -> pathlib.Path:
        """Write the complete resumable training state to ``path``.

        Captures model parameters, the best-so-far snapshot, optimizer
        moments, scheduler counters, the sampler's RNG bit-generator
        state, and the per-epoch history — everything the epoch loop
        reads — so :meth:`fit` with ``resume=True`` continues bit-equal
        to the uninterrupted run.
        """
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.model.state_dict().items():
            arrays[f"model/{name}"] = value
        if best_state is not None:
            for name, value in best_state.items():
                arrays[f"best/{name}"] = value
        optim_state = optimizer.state_dict()
        for i, m in enumerate(optim_state["m"]):
            arrays[f"optim/m/{i}"] = m
        for i, v in enumerate(optim_state["v"]):
            arrays[f"optim/v/{i}"] = v
        masters = optim_state.get("master")
        if masters is not None:
            # Mixed policy: the float64 master weights are training
            # state — without them a resumed run could not be bit-equal.
            for i, w in enumerate(masters):
                arrays[f"optim/master/{i}"] = w
        policy = resolve_policy(self.config.precision)
        meta: Dict = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "fingerprint": self._checkpoint_fingerprint(),
            "stopped": bool(stopped),
            "has_best_state": best_state is not None,
            "precision": {
                "policy": self.config.precision,
                "compute": str(policy.compute),
                "master": str(policy.master),
            },
            "optimizer": {
                "lr": optim_state["lr"],
                "t": optim_state["t"],
                "has_master": masters is not None,
            },
            "scheduler": scheduler.state_dict(),
            "history": {
                "train_loss": history.train_loss,
                "val_loss": history.val_loss,
                "learning_rate": history.learning_rate,
                "best_val_loss": history.best_val_loss,
                "best_epoch": history.best_epoch,
                "epochs_run": history.epochs_run,
            },
        }
        if self.variation_aware and self._is_printed:
            meta["sampler_rng"] = _rng_state(self.model.sampler.rng)
        run = telemetry.active_run()
        if run is not None:
            meta["run_id"] = run.run_id
        return save_checkpoint(arrays, meta, path)

    def _restore_checkpoint(
        self,
        path: PathLike,
        optimizer: AdamW,
        scheduler: ReduceLROnPlateau,
    ) -> tuple:
        """Load ``path`` into the live training objects.

        Returns ``(history, best_state, stopped)``; raises
        ``ValueError`` when the checkpoint's fingerprint (config, seed,
        variation policy, model class) disagrees with this trainer.
        """
        arrays, meta = load_checkpoint(path)
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('checkpoint_version')!r}"
            )
        fingerprint = self._checkpoint_fingerprint()
        if meta["fingerprint"] != fingerprint:
            raise ValueError(
                "checkpoint fingerprint mismatch — it was written by a "
                f"different training setup:\n  saved:   {meta['fingerprint']}\n"
                f"  current: {fingerprint}"
            )
        precision_meta = meta.get("precision")
        if precision_meta is not None:
            expected = resolve_policy(self.config.precision)
            if (
                precision_meta.get("policy") != self.config.precision
                or precision_meta.get("compute") != str(expected.compute)
            ):
                raise ValueError(
                    "checkpoint precision mismatch — saved "
                    f"{precision_meta!r}, this trainer uses policy "
                    f"{self.config.precision!r} (compute {expected.compute})"
                )
            recorded = np.dtype(precision_meta["compute"])
            bad = {
                name: str(value.dtype)
                for name, value in arrays.items()
                if name.startswith("model/") and value.dtype != recorded
            }
            if bad:
                raise ValueError(
                    "checkpoint arrays disagree with their recorded compute "
                    f"dtype {recorded}: {bad}"
                )
        model_state = {
            name[len("model/"):]: value
            for name, value in arrays.items()
            if name.startswith("model/")
        }
        self.model.load_state_dict(model_state)
        best_state: Optional[Dict[str, np.ndarray]] = None
        if meta["has_best_state"]:
            best_state = {
                name[len("best/"):]: value
                for name, value in arrays.items()
                if name.startswith("best/")
            }
        n_params = len(optimizer.params)
        optim_load = {
            "lr": meta["optimizer"]["lr"],
            "t": meta["optimizer"]["t"],
            "m": [arrays[f"optim/m/{i}"] for i in range(n_params)],
            "v": [arrays[f"optim/v/{i}"] for i in range(n_params)],
        }
        if meta["optimizer"].get("has_master"):
            optim_load["master"] = [
                arrays[f"optim/master/{i}"] for i in range(n_params)
            ]
        optimizer.load_state_dict(optim_load)
        scheduler.load_state_dict(meta["scheduler"])
        if "sampler_rng" in meta and self._is_printed:
            self.model.sampler.rng = _restore_rng(meta["sampler_rng"])
        h = meta["history"]
        history = TrainingHistory(
            train_loss=[float(v) for v in h["train_loss"]],
            val_loss=[float(v) for v in h["val_loss"]],
            learning_rate=[float(v) for v in h["learning_rate"]],
            best_val_loss=float(h["best_val_loss"]),
            best_epoch=int(h["best_epoch"]),
            epochs_run=int(h["epochs_run"]),
        )
        return history, best_state, bool(meta["stopped"])

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray,
        y_val: np.ndarray,
        verbose: bool = False,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> TrainingHistory:
        """Run the full protocol; the model ends loaded with its best state.

        The whole run executes inside the config's precision-policy
        scope: parameters are cast to the policy's compute dtype on
        entry (and the model is *left* in that dtype afterwards), input
        arrays are cast once up front, and under ``mixed`` the AdamW
        master weights live in float64.  Under the default ``float64``
        policy every cast is a no-op and the run is bit-equal to the
        pre-policy implementation.

        Parameters
        ----------
        x_train, y_train, x_val, y_val:
            Full-batch training and validation splits.
        verbose:
            Print a progress line every 50 epochs.
        checkpoint_dir:
            Directory receiving the (single, overwritten)
            ``checkpoint.npz``.  Defaults to ``<run dir>/checkpoints``
            when a telemetry run is active, else checkpointing is off.
        checkpoint_every:
            Save every N epochs (0 disables even under an active run).
        resume:
            Restore an existing checkpoint from ``checkpoint_dir`` (if
            any) and continue the epoch loop bit-equally from where it
            stopped.
        """
        with use_precision(self.config.precision) as policy:
            self.model.cast_(policy.compute)
            x_train = np.asarray(x_train, dtype=policy.compute)
            x_val = np.asarray(x_val, dtype=policy.compute)
            return self._fit_inner(
                x_train,
                y_train,
                x_val,
                y_val,
                verbose=verbose,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume=resume,
            )

    def _fit_inner(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray,
        y_val: np.ndarray,
        verbose: bool,
        checkpoint_dir: Optional[PathLike],
        checkpoint_every: int,
        resume: bool,
    ) -> TrainingHistory:
        """Epoch loop of :meth:`fit` (runs inside the precision scope)."""
        if self.augmentation is not None:
            x_train, y_train = augment_dataset(
                x_train, y_train, self.augmentation, seed=self.seed + 7, copies=1
            )
            x_val, y_val = augment_dataset(
                x_val, y_val, self.augmentation, seed=self.seed + 13, copies=1
            )

        optimizer = AdamW(
            self.model.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        scheduler = ReduceLROnPlateau(
            optimizer,
            factor=self.config.lr_factor,
            patience=self.config.lr_patience,
            min_lr=self.config.min_lr,
        )
        history = TrainingHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None

        run = telemetry.active_run()
        ckpt_path: Optional[pathlib.Path] = None
        if checkpoint_dir is not None:
            ckpt_path = pathlib.Path(checkpoint_dir) / CHECKPOINT_FILENAME
        elif run is not None and checkpoint_every > 0 and getattr(run, "dir", None) is not None:
            # ``getattr`` guard: sweep workers install a directory-less
            # telemetry shim (repro.parallel.WorkerTelemetry, dir=None).
            ckpt_path = run.dir / "checkpoints" / CHECKPOINT_FILENAME

        start_epoch = 0
        stopped = False
        resumed = False
        if resume and ckpt_path is not None and ckpt_path.exists():
            history, best_state, stopped = self._restore_checkpoint(
                ckpt_path, optimizer, scheduler
            )
            start_epoch = history.epochs_run
            resumed = True

        if run is not None:
            run.update_manifest(
                training_config=self.config,
                model=type(self.model).__name__,
                seed=self.seed,
                variation_aware=self.variation_aware,
                precision=self.config.precision,
                backends={
                    "mc_backend": self.config.mc_backend,
                    "scan_backend": self.config.scan_backend,
                },
                checkpoint=str(ckpt_path) if ckpt_path is not None else None,
            )
        telemetry.emit(
            "fit_start",
            model=type(self.model).__name__,
            max_epochs=self.config.max_epochs,
            start_epoch=start_epoch,
            resumed=resumed,
            variation_aware=self.variation_aware,
            mc_backend=self.config.mc_backend,
            scan_backend=self.config.scan_backend,
            precision=self.config.precision,
            n_train=int(np.asarray(x_train).shape[0]),
            n_val=int(np.asarray(x_val).shape[0]),
        )

        if stopped:  # resumed a finished run — nothing left to train
            start_epoch = self.config.max_epochs

        for epoch in range(start_epoch, self.config.max_epochs):
            epoch_start = time.perf_counter()
            optimizer.zero_grad()
            loss = self._loss(x_train, y_train)
            draw_losses = self._last_draw_losses
            with Stopwatch() as sw, telemetry.span("backward"):
                loss.backward()
            mc_counters.record_backward(sw.elapsed)
            with telemetry.span("optimizer_step"):
                optimizer.step()

            with telemetry.span("validation"):
                val_loss = self._eval_loss(x_val, y_val)
            history.train_loss.append(float(loss.item()))
            history.val_loss.append(val_loss)
            history.learning_rate.append(optimizer.lr)
            history.epochs_run = epoch + 1

            if val_loss < history.best_val_loss:
                history.best_val_loss = val_loss
                history.best_epoch = epoch
                best_state = self.model.state_dict()

            scheduler.step(val_loss)
            stopped = scheduler.should_stop()

            if run is not None:
                event = {
                    "epoch": epoch,
                    "train_loss": history.train_loss[-1],
                    "val_loss": val_loss,
                    "lr": history.learning_rate[-1],
                    "epoch_s": time.perf_counter() - epoch_start,
                    "best_val_loss": history.best_val_loss,
                    "best_epoch": history.best_epoch,
                }
                if draw_losses is not None and draw_losses.size:
                    event["mc_draws"] = int(draw_losses.size)
                    event["mc_loss_mean"] = float(draw_losses.mean())
                    event["mc_loss_std"] = float(draw_losses.std())
                run.emit("epoch", **event)

            if (
                ckpt_path is not None
                and checkpoint_every > 0
                and ((epoch + 1) % checkpoint_every == 0 or stopped)
            ):
                ckpt_path.parent.mkdir(parents=True, exist_ok=True)
                self.save_checkpoint(
                    ckpt_path, optimizer, scheduler, history, best_state, stopped
                )
                telemetry.emit("checkpoint", epoch=epoch, path=str(ckpt_path))

            if stopped:
                break
            if verbose and epoch % 50 == 0:
                print(
                    f"epoch {epoch:4d}  train {history.train_loss[-1]:.4f}  "
                    f"val {val_loss:.4f}  lr {optimizer.lr:.2e}"
                )

        telemetry.emit(
            "fit_end",
            epochs_run=history.epochs_run,
            best_val_loss=history.best_val_loss,
            best_epoch=history.best_epoch,
            stopped=stopped,
        )

        if best_state is not None:
            self.model.load_state_dict(best_state)
        # Leave the model deterministic: evaluation utilities install
        # their own variation samplers explicitly.
        if self._is_printed:
            self.model.set_sampler(ideal_sampler())
        return history
