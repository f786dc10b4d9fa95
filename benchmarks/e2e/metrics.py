"""The benchmark's metric names and units (BENCHMARK.json lists the same).

Every workload reports every metric.  End-to-end metrics are measured
on each workload's own unit of work (:data:`UNITS`); per-layer shares
are a layer's time over the traced region's wall time (times the worker
count where the layer runs in campaign workers), and a layer a workload
does not pass through reports 0.
"""

#: End-to-end metrics, from untraced runs.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput": "1/s",
    "p50_ms": "ms",
}

#: What ``throughput`` counts and ``p50_ms`` times, per workload.
UNITS = {
    "train-paper": "one epoch of Trainer.fit",
    "campaign-ci": "one Table-I campaign; throughput counts cells",
    "serve-predict": "one /predict at 500 req/s; throughput: best of 10 windows at 64 in flight",
    "fleet-churn": "one process_many call; throughput counts stream steps",
}

#: The issue's per-workload metrics, printed by the report of
#: ``run.py --seed S`` after the gated ones; ``setup_s`` and
#: ``peak_rss_mb`` are gated under their own names, the rest are not
#: (README.md says why).
NAMED = {
    "train-paper": {"failed_share": "ratio", "epoch_ms": "ms", "final_loss": "nats"},
    "campaign-ci": {"failed_share": "ratio", "cells_per_min": "cells/min", "robust_acc_pp": "pp"},
    "serve-predict": {
        "failed_share": "ratio",
        "p50_ms.low": "ms",
        "p99_ms.low": "ms",
        "p50_ms.high": "ms",
        "max_rate_rps": "req/s",
        "http_p50_ms": "ms",
    },
    "fleet-churn": {"failed_share": "ratio", "steps_per_s": "steps/s"},
}

#: Per-layer metrics, from the traced run.
PER_LAYER = {
    "training.forward_share": "ratio",
    "training.forward_self_share": "ratio",
    "training.loss_share": "ratio",
    "training.validation_share": "ratio",
    "autograd.backward_share": "ratio",
    "optim.step_share": "ratio",
    "circuits.filters_share": "ratio",
    "circuits.crossbar_share": "ratio",
    "circuits.ptanh_share": "ratio",
    "circuits.scan_share": "ratio",
    "circuits.sampler_share": "ratio",
    "evaluation.share": "ratio",
    "parallel.occupancy": "ratio",
    "parallel.tail_idle_share": "ratio",
    "parallel.first_cell_share": "ratio",
    "parallel.max_cell_share": "ratio",
    "parallel.steals": "count",
    "plan.forward_share": "ratio",
    "plan.coerce_share": "ratio",
    "plan.rows_per_call": "rows",
    "serve.submit_share": "ratio",
    "serve.busy_share.light": "ratio",
    "serve.busy_share.heavy": "ratio",
    "serve.wait_share.light": "ratio",
    "serve.wait_share.heavy": "ratio",
    "serve.http_share": "ratio",
    "fleet.self_share": "ratio",
    "fleet.stage_share": "ratio",
    "fleet.affine_share": "ratio",
    "fleet.ptanh_share": "ratio",
    "fleet.lifecycle_share": "ratio",
    "fleet.rows_per_call": "rows",
    "fleet.useful_share": "ratio",
    "telemetry.overhead": "ratio",
}
