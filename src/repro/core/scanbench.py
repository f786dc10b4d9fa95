"""Fused-vs-unfused filter-scan throughput measurement.

One shared harness behind ``benchmarks/bench_filter_scan.py`` and the
``python -m repro scan-bench`` CLI subcommand.  Two measurements:

1. **SO-LF kernel** — forward+backward through one
   :class:`~repro.circuits.SecondOrderLearnableFilter` bank at the
   acceptance workload (T=64, batch=32, draws=8) under both scan
   backends, with identical ε/μ/V₀ draws.  The fused custom-Function
   kernel must beat the node-per-step oracle by the acceptance factor
   (≥5×) while losses agree to :data:`SCAN_EQUIVALENCE_ATOL` and
   parameter gradients to :data:`SCAN_GRAD_ATOL`.
2. **End-to-end training** — a short CI-config ``Trainer.fit`` run per
   backend on identical models/data/seeds, recording epoch wall-clock
   (the whole-pipeline speedup, diluted by the crossbar/ptanh/optimizer
   work both backends share).

The record is JSON-serialisable and renders through
:func:`repro.report.render_report` (``filter_scan`` key).
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from ..autograd import Tensor
from ..circuits import (
    SecondOrderLearnableFilter,
    UniformVariation,
    VariationSampler,
)
from ..utils.timing import Stopwatch
from .. import telemetry
from .models import AdaptPNC
from .training import Trainer, TrainingConfig

__all__ = [
    "run_scan_benchmark",
    "format_scan_benchmark",
    "SCAN_EQUIVALENCE_ATOL",
    "SCAN_GRAD_ATOL",
]

#: Fused and unfused losses must agree to this tolerance under shared
#: draws (the forwards perform bit-identical per-element arithmetic;
#: only reduction order in the loss differs).
SCAN_EQUIVALENCE_ATOL = 1e-10

#: Per-parameter gradient agreement between the analytic adjoint and
#: the node-per-step tape (accumulation order differs).
SCAN_GRAD_ATOL = 1e-8


def _make_filter(
    num_filters: int, seed: int, scan_backend: str
) -> SecondOrderLearnableFilter:
    sampler = VariationSampler(
        model=UniformVariation(0.10), rng=np.random.default_rng(seed + 7)
    )
    return SecondOrderLearnableFilter(
        num_filters,
        sampler=sampler,
        rng=np.random.default_rng(seed),
        scan_backend=scan_backend,
    )


def _solf_pass(
    flt: SecondOrderLearnableFilter, x: Tensor, draws: int, seed: int
) -> Dict[str, object]:
    """One forward+backward through the SO-LF bank with reseeded draws.

    Only the filter bank itself is timed: the surrogate objective
    ``L = mean(out²)`` and its output gradient ``2·out/out.size`` are
    formed outside the stopwatches, so the measurement isolates the
    scan kernels instead of diluting them with loss-node work both
    backends share.  The two backends produce bit-equal ``out``, hence
    bit-equal seed gradients, so the comparison stays exact.
    """
    flt.zero_grad()
    flt.sampler.reseed(seed + 31)
    with Stopwatch() as fw:
        with flt.sampler.batched(draws):
            out = flt(x)
    loss = float(np.mean(out.data**2))
    grad_seed = 2.0 * out.data / out.data.size  # dL/dout for mean(out²)
    with Stopwatch() as bw:
        out.backward(grad_seed)
    grads = {name: p.grad.copy() for name, p in flt.named_parameters()}
    return {
        "forward_s": fw.elapsed,
        "backward_s": bw.elapsed,
        "loss": loss,
        "grads": grads,
    }


def _bench_solf(
    seq_len: int, batch: int, draws: int, num_filters: int, repeats: int, seed: int
) -> Dict:
    """Best-of-``repeats`` SO-LF forward+backward per scan backend."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(batch, seq_len, num_filters)))

    results: Dict[str, Dict] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for backend in ("unfused", "fused"):
            flt = _make_filter(num_filters, seed, backend)
            _solf_pass(flt, x, draws, seed)  # warm-up (allocator, caches)
            best_f: List[float] = []
            best_b: List[float] = []
            last: Dict[str, object] = {}
            for _ in range(repeats):
                last = _solf_pass(flt, x, draws, seed)
                best_f.append(last["forward_s"])
                best_b.append(last["backward_s"])
            results[backend] = {
                "forward_s": min(best_f),
                "backward_s": min(best_b),
                "loss": last["loss"],
                "grads": last["grads"],
            }
    finally:
        if gc_was_enabled:
            gc.enable()

    fused, unfused = results["fused"], results["unfused"]
    loss_delta = abs(fused["loss"] - unfused["loss"])
    grad_delta = max(
        float(np.max(np.abs(fused["grads"][name] - unfused["grads"][name])))
        for name in fused["grads"]
    )
    step_fused = fused["forward_s"] + fused["backward_s"]
    step_unfused = unfused["forward_s"] + unfused["backward_s"]
    return {
        "seq_len": int(seq_len),
        "batch": int(batch),
        "draws": int(draws),
        "num_filters": int(num_filters),
        "repeats": int(repeats),
        "fused_forward_s": fused["forward_s"],
        "fused_backward_s": fused["backward_s"],
        "unfused_forward_s": unfused["forward_s"],
        "unfused_backward_s": unfused["backward_s"],
        "fused_s": step_fused,
        "unfused_s": step_unfused,
        "speedup": step_unfused / max(step_fused, 1e-12),
        "loss_delta": loss_delta,
        "max_abs_grad_delta": grad_delta,
    }


def _bench_training(
    epochs: int, n_samples: int, seq_len: int, n_classes: int, seed: int
) -> Dict:
    """End-to-end ``Trainer.fit`` epoch wall-clock per scan backend."""
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-1.0, 1.0, size=(n_samples, seq_len))
    y = rng.integers(0, n_classes, size=n_samples)
    split = max(1, n_samples // 5)
    x_train, y_train = x[split:], y[split:]
    x_val, y_val = x[:split], y[:split]

    out: Dict[str, Dict] = {}
    for backend in ("unfused", "fused"):
        model = AdaptPNC(n_classes, rng=np.random.default_rng(seed))
        config = replace(
            TrainingConfig.ci(), max_epochs=epochs, scan_backend=backend
        )
        trainer = Trainer(model, config, variation_aware=True, seed=seed)
        start = time.perf_counter()
        history = trainer.fit(x_train, y_train, x_val, y_val, checkpoint_every=0)
        elapsed = time.perf_counter() - start
        out[backend] = {
            "total_s": elapsed,
            "epochs": history.epochs_run,
            "epoch_s": elapsed / max(history.epochs_run, 1),
            "first_epoch_loss": history.train_loss[0],
            "final_train_loss": history.train_loss[-1],
        }
    return {
        "epochs": int(epochs),
        "n_samples": int(n_samples),
        "fused_epoch_s": out["fused"]["epoch_s"],
        "unfused_epoch_s": out["unfused"]["epoch_s"],
        "epoch_speedup": out["unfused"]["epoch_s"] / max(out["fused"]["epoch_s"], 1e-12),
        "first_epoch_loss_delta": abs(
            out["fused"]["first_epoch_loss"] - out["unfused"]["first_epoch_loss"]
        ),
        "fused_final_train_loss": out["fused"]["final_train_loss"],
        "unfused_final_train_loss": out["unfused"]["final_train_loss"],
    }


def run_scan_benchmark(
    seq_len: int = 64,
    batch: int = 32,
    draws: int = 8,
    num_filters: int = 8,
    repeats: int = 5,
    seed: int = 0,
    train_epochs: int = 5,
    train_samples: int = 24,
    train_seq_len: int = 32,
    n_classes: int = 3,
    include_training: bool = True,
) -> Dict:
    """Measure fused-vs-unfused scan throughput and verify equivalence.

    Returns a record with a ``solf`` section (the SO-LF kernel
    micro-benchmark at the acceptance workload) and, unless
    ``include_training=False``, a ``training`` section (end-to-end
    epoch wall-clock under ``Trainer.fit`` on the CI config).
    """
    solf = _bench_solf(seq_len, batch, draws, num_filters, repeats, seed)
    record: Dict = {
        "solf": solf,
        "equivalence_atol": SCAN_EQUIVALENCE_ATOL,
        "grad_atol": SCAN_GRAD_ATOL,
        "equivalent": bool(
            solf["loss_delta"] <= SCAN_EQUIVALENCE_ATOL
            and solf["max_abs_grad_delta"] <= SCAN_GRAD_ATOL
        ),
    }
    if include_training:
        record["training"] = _bench_training(
            train_epochs, train_samples, train_seq_len, n_classes, seed
        )
    # Same shared sink as mc-bench: the scan gauge inside mc_counters
    # doubles as a telemetry gauge, snapshotted into the event stream.
    telemetry.emit(
        "gauges", source="scan-bench", gauges=telemetry.gauges.snapshot()
    )
    return record


def format_scan_benchmark(record: Dict) -> str:
    """ASCII summary of a :func:`run_scan_benchmark` record."""
    from ..utils.tables import render_table

    solf = record["solf"]
    table = [
        [
            "unfused",
            f"{solf['unfused_forward_s'] * 1e3:.2f} ms",
            f"{solf['unfused_backward_s'] * 1e3:.2f} ms",
            f"{solf['unfused_s'] * 1e3:.2f} ms",
        ],
        [
            "fused",
            f"{solf['fused_forward_s'] * 1e3:.2f} ms",
            f"{solf['fused_backward_s'] * 1e3:.2f} ms",
            f"{solf['fused_s'] * 1e3:.2f} ms",
        ],
    ]
    header = ["scan backend", "forward", "backward", "fwd+bwd"]
    lines = [
        f"SO-LF bank: T={solf['seq_len']}, batch={solf['batch']}, "
        f"draws={solf['draws']}, n={solf['num_filters']}",
        render_table(header, table),
        f"speedup (fused over unfused): {solf['speedup']:.2f}x",
    ]
    verdict = "OK" if record["equivalent"] else "FAILED"
    lines.append(
        f"equivalence: |Δloss| = {solf['loss_delta']:.2e} "
        f"(tol {record['equivalence_atol']:.0e}), "
        f"max |Δgrad| = {solf['max_abs_grad_delta']:.2e} "
        f"(tol {record['grad_atol']:.0e}) — {verdict}"
    )
    training = record.get("training")
    if training:
        lines.append(
            f"Trainer.fit epoch wall-clock (CI config, {training['epochs']} epochs): "
            f"unfused {training['unfused_epoch_s'] * 1e3:.1f} ms → "
            f"fused {training['fused_epoch_s'] * 1e3:.1f} ms "
            f"({training['epoch_speedup']:.2f}x); first-epoch |Δloss| = "
            f"{training['first_epoch_loss_delta']:.2e}"
        )
    return "\n".join(lines)
