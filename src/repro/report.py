"""Markdown report generation from saved experiment results.

``examples/run_full_evaluation.py`` saves a ``results.json`` per run;
this module renders it as a self-contained markdown report (the format
of EXPERIMENTS.md), so paper-vs-measured summaries regenerate from the
recorded numbers rather than being hand-maintained.

:func:`render_run` does the same for telemetry run directories
(:class:`repro.telemetry.Run`): it reads ``run.json`` + ``events.jsonl``
and renders the per-epoch loss/LR trajectory as sparkline tables, the
span wall-clock breakdown and the final gauge snapshot — the backend of
``python -m repro runs show``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["render_report", "render_report_file", "render_run", "sparkline"]

PathLike = Union[str, pathlib.Path]

#: Published averages for the headline comparisons (Table I / III).
PAPER_TABLE1_AVG = {"elman": (0.501, 0.025), "ptpnc": (0.582, 0.031), "adapt": (0.726, 0.014)}
PAPER_TABLE3_AVG = {"devices": (118, 228), "power_mw": (0.634, 0.058)}

MODEL_LABELS = {
    "elman": "Elman RNN (reference)",
    "ptpnc": "pTPNC (baseline)",
    "adapt": "ADAPT-pNC (proposed)",
}


def _mean_std(entry: Dict) -> str:
    return f"{entry['mean']:.3f} ± {entry['std']:.3f}"


def _table1_section(record: Dict) -> List[str]:
    table1 = record.get("table1")
    if not table1:
        return []
    lines = [
        "## Table I — accuracy under variation + perturbed inputs",
        "",
        "| Dataset | " + " | ".join(MODEL_LABELS[k] for k in MODEL_LABELS) + " |",
        "|---|---|---|---|",
    ]
    for dataset, entry in table1.items():
        cells = " | ".join(_mean_std(entry[k]) for k in MODEL_LABELS)
        marker = "**" if dataset == "Average" else ""
        lines.append(f"| {marker}{dataset}{marker} | {cells} |")
    avg = table1.get("Average")
    if avg:
        lines.append("")
        paper = ", ".join(
            f"{MODEL_LABELS[k]}: {m:.3f} ± {s:.3f}" for k, (m, s) in PAPER_TABLE1_AVG.items()
        )
        lines.append(f"Paper averages for comparison — {paper}.")
        ordering_ok = avg["adapt"]["mean"] >= avg["ptpnc"]["mean"]
        lines.append(
            "Shape check: proposed ≥ baseline on average — "
            + ("**reproduced**." if ordering_ok else "**NOT reproduced**.")
        )
    lines.append("")
    return lines


def _table2_section(record: Dict) -> List[str]:
    timings = record.get("table2_seconds_per_step")
    if not timings:
        return []
    lines = [
        "## Table II — runtime of a one-epoch fit",
        "",
        "| Model | Wall time / one-epoch fit |",
        "|---|---|",
    ]
    for kind, label in MODEL_LABELS.items():
        if kind in timings:
            lines.append(f"| {label} | {timings[kind]*1e3:.1f} ms |")
    lines.append("")
    return lines


def _table3_section(record: Dict) -> List[str]:
    rows = record.get("table3")
    if not rows:
        return []
    lines = [
        "## Table III — hardware costs",
        "",
        "| Dataset | Devices (base → prop) | Power mW (base → prop) |",
        "|---|---|---|",
    ]
    total_base = total_prop = power_base = power_prop = 0.0
    for row in rows:
        base_total = row["baseline"][3]
        prop_total = row["proposed"][3]
        total_base += base_total
        total_prop += prop_total
        power_base += row["baseline_power_mw"]
        power_prop += row["proposed_power_mw"]
        lines.append(
            f"| {row['dataset']} | {base_total} → {prop_total} | "
            f"{row['baseline_power_mw']:.3f} → {row['proposed_power_mw']:.3f} |"
        )
    n = len(rows)
    ratio = total_prop / max(total_base, 1)
    reduction = 1.0 - power_prop / max(power_base, 1e-12)
    lines += [
        "",
        f"Average device ratio {ratio:.2f}× (paper ≈1.9×); "
        f"power reduction {reduction:.0%} (paper ≈91 %) over {n} datasets.",
        "",
    ]
    return lines


def _mc_section(record: Dict) -> List[str]:
    """Render the Monte-Carlo vectorization record (``mc-bench``)."""
    mc = record.get("mc_vectorization")
    if not mc:
        return []
    lines = [
        "## Monte-Carlo vectorization — batched vs sequential",
        "",
        "| MC draws | Sequential / step | Batched / step | Speedup | Draws/s (batched) |",
        "|---|---|---|---|---|",
    ]
    for row in mc.get("rows", []):
        lines.append(
            f"| {row['draws']} | {row['sequential_s']*1e3:.1f} ms | "
            f"{row['batched_s']*1e3:.1f} ms | {row['speedup']:.2f}× | "
            f"{row['batched_draws_per_sec']:.1f} |"
        )
    lines.append("")
    verdict = "**equivalent**" if mc.get("equivalent") else "**NOT equivalent**"
    lines.append(
        f"Loss agreement between backends: max |Δ| = "
        f"{mc.get('max_abs_loss_delta', float('nan')):.2e} "
        f"(tolerance {mc.get('equivalence_atol', 1e-8):.0e}) — {verdict}."
    )
    counters = mc.get("counters")
    if counters:
        lines.append(
            f"Recorded {counters.get('draws', 0):.0f} draws over "
            f"{counters.get('forward_calls', 0):.0f} forwards "
            f"({counters.get('draws_per_second', 0.0):.1f} draws/s; "
            f"forward {counters.get('forward_seconds', 0.0):.2f} s, "
            f"backward {counters.get('backward_seconds', 0.0):.2f} s)."
        )
        by_backend = counters.get("by_backend") or {}
        if by_backend:
            split = ", ".join(
                f"{backend} {seconds:.2f} s"
                for backend, seconds in sorted(by_backend.items())
            )
            lines.append(f"Forward wall-clock by MC backend: {split}.")
        scan = counters.get("scan") or {}
        if scan:
            split = ", ".join(
                f"{backend} {entry['seconds']*1e3:.1f} ms / {entry['calls']:.0f} scans"
                for backend, entry in sorted(scan.items())
            )
            lines.append(f"Filter-scan wall-clock by kernel: {split}.")
    lines.append("")
    return lines


def _filter_scan_section(record: Dict) -> List[str]:
    """Render the fused filter-scan record (``scan-bench``)."""
    fs = record.get("filter_scan")
    if not fs:
        return []
    solf = fs.get("solf") or {}
    lines = [
        "## Fused filter scan — custom-Function kernel vs node-per-step oracle",
        "",
        f"SO-LF bank at T={solf.get('seq_len', '?')}, "
        f"batch={solf.get('batch', '?')}, draws={solf.get('draws', '?')}, "
        f"n={solf.get('num_filters', '?')}:",
        "",
        "| Scan backend | Forward | Backward | Fwd+bwd |",
        "|---|---|---|---|",
    ]
    for backend in ("unfused", "fused"):
        lines.append(
            f"| {backend} | {solf.get(f'{backend}_forward_s', 0.0)*1e3:.2f} ms | "
            f"{solf.get(f'{backend}_backward_s', 0.0)*1e3:.2f} ms | "
            f"{solf.get(f'{backend}_s', 0.0)*1e3:.2f} ms |"
        )
    verdict = "**equivalent**" if fs.get("equivalent") else "**NOT equivalent**"
    lines += [
        "",
        f"Speedup (fused over unfused): {solf.get('speedup', 0.0):.2f}×.",
        f"Equivalence: |Δloss| = {solf.get('loss_delta', float('nan')):.2e} "
        f"(tolerance {fs.get('equivalence_atol', 1e-10):.0e}), "
        f"max |Δgrad| = {solf.get('max_abs_grad_delta', float('nan')):.2e} "
        f"(tolerance {fs.get('grad_atol', 1e-8):.0e}) — {verdict}.",
    ]
    training = fs.get("training")
    if training:
        lines.append(
            f"End-to-end `Trainer.fit` epoch wall-clock: "
            f"unfused {training.get('unfused_epoch_s', 0.0)*1e3:.1f} ms → "
            f"fused {training.get('fused_epoch_s', 0.0)*1e3:.1f} ms "
            f"({training.get('epoch_speedup', 0.0):.2f}×)."
        )
    lines.append("")
    return lines


def _streaming_section(record: Dict) -> List[str]:
    """Render the streaming-evaluation record (``stream-eval``).

    Expects ``record["streaming"]`` as written by the ``stream-eval``
    CLI: ``{"model", "chunk_size", "scenarios": [result.to_record()]}``
    with one entry per :class:`repro.core.StreamingEvalResult`.
    """
    streaming = record.get("streaming")
    if not streaming:
        return []
    scenarios = streaming.get("scenarios") or []
    lines = [
        "## Streaming — stateful online inference over drifting streams",
        "",
        f"Model: {streaming.get('model', '?')}; "
        f"chunk size {streaming.get('chunk_size', '?')} "
        f"(chunking-invariant by construction).",
        "",
        "| Scenario | Steps | Accuracy | Accuracy over time |",
        "|---|---|---|---|",
    ]
    for s in scenarios:
        lines.append(
            f"| {s.get('scenario', '?')} | {s.get('steps', '?')} | "
            f"{s.get('accuracy', float('nan')):.3f} | "
            f"`{sparkline(s.get('accuracy_curve') or [])}` |"
        )
    lines.append("")
    for s in scenarios:
        details = []
        if s.get("pre_change_accuracy") is not None:
            pre, post = s.get("changepoint_halo", ["?", "?"])
            details.append(
                f"around changepoints (±{pre}/{post} steps): "
                f"{s['pre_change_accuracy']:.3f} before → "
                f"{s['post_change_accuracy']:.3f} after, recovery "
                f"`{sparkline(s.get('changepoint_curve') or [], width=24)}`"
            )
        if s.get("burst_accuracy") is not None:
            details.append(
                f"burst-corrupted steps {s['burst_accuracy']:.3f} vs "
                f"clean {s['clean_accuracy']:.3f}"
            )
        if details:
            lines.append(f"* **{s.get('scenario', '?')}** — " + "; ".join(details))
    if any(
        s.get("pre_change_accuracy") is not None or s.get("burst_accuracy") is not None
        for s in scenarios
    ):
        lines.append("")
    return lines


def _fig_sections(record: Dict) -> List[str]:
    lines: List[str] = []
    fig5 = record.get("fig5")
    if fig5:
        lines += ["## Fig. 5 — baseline under stress", ""]
        for key, value in fig5.items():
            lines.append(f"* {key.replace('_', ' ')}: {value:.3f}")
        lines.append("")
    fig7 = record.get("fig7")
    if fig7:
        lines += [
            "## Fig. 7 — ablation",
            "",
            "| Config | Clean | Perturbed |",
            "|---|---|---|",
        ]
        for config, modes in fig7.items():
            lines.append(
                f"| {config} | {_mean_std(modes['clean'])} | {_mean_std(modes['perturbed'])} |"
            )
        lines.append("")
    mu = record.get("mu_extraction")
    if mu:
        lines += [
            "## µ extraction",
            "",
            f"µ ∈ [{mu['mu_min']:.2f}, {mu['mu_max']:.2f}], mean {mu['mu_mean']:.3f}; "
            f"{mu['within_paper_band']:.0%} of fits inside the paper's [1, 1.3] band.",
            "",
        ]
    return lines


def render_report(record: Dict) -> str:
    """Render one ``results.json`` record as a markdown report."""
    lines = [
        f"# ADAPT-pNC evaluation report — scale `{record.get('scale', '?')}`",
        "",
        f"Datasets: {len(record.get('datasets', []))}; "
        f"seeds: {record.get('seeds', [])}.",
        "",
    ]
    lines += _table1_section(record)
    lines += _table2_section(record)
    lines += _table3_section(record)
    lines += _mc_section(record)
    lines += _filter_scan_section(record)
    lines += _streaming_section(record)
    lines += _fig_sections(record)
    return "\n".join(lines)


def render_report_file(results_json: PathLike, output_md: PathLike | None = None) -> str:
    """Render a saved ``results.json``; optionally write ``output_md``."""
    record = json.loads(pathlib.Path(results_json).read_text())
    text = render_report(record)
    if output_md is not None:
        pathlib.Path(output_md).write_text(text)
    return text


# -- telemetry run rendering ------------------------------------------------

#: Eight-level unicode block ramp used by :func:`sparkline`.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render ``values`` as a fixed-``width`` unicode sparkline.

    Longer series are downsampled by striding; constant (or single
    -point) series render as a flat baseline.  Non-finite values map to
    the baseline block so a diverging run stays renderable.
    """
    import math

    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return SPARK_BLOCKS[0] * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    if span <= 0:
        return SPARK_BLOCKS[0] * len(vals)
    out = []
    for v in vals:
        if not math.isfinite(v):
            out.append(SPARK_BLOCKS[0])
            continue
        idx = int((v - lo) / span * (len(SPARK_BLOCKS) - 1))
        out.append(SPARK_BLOCKS[idx])
    return "".join(out)


def _epoch_series_section(epochs: List[Dict]) -> List[str]:
    """Sparkline table over the per-epoch telemetry records."""
    if not epochs:
        return ["*(no epoch events recorded)*", ""]
    series = {
        "train loss": [e["train_loss"] for e in epochs],
        "val loss": [e["val_loss"] for e in epochs],
        "learning rate": [e["lr"] for e in epochs],
    }
    if any("mc_loss_std" in e for e in epochs):
        series["MC loss σ"] = [e.get("mc_loss_std", 0.0) for e in epochs]
    lines = [
        "| Series | First | Last | Min | Trajectory |",
        "|---|---|---|---|---|",
    ]
    for label, vals in series.items():
        lines.append(
            f"| {label} | {vals[0]:.4g} | {vals[-1]:.4g} | "
            f"{min(vals):.4g} | `{sparkline(vals)}` |"
        )
    last = epochs[-1]
    lines += [
        "",
        f"{len(epochs)} epochs recorded; best val loss "
        f"{last.get('best_val_loss', float('nan')):.4g} at epoch "
        f"{last.get('best_epoch', '?')}; mean epoch wall-clock "
        f"{sum(e.get('epoch_s', 0.0) for e in epochs) / len(epochs) * 1e3:.1f} ms.",
        "",
    ]
    return lines


def _span_section(run_end: Optional[Dict]) -> List[str]:
    """Span wall-clock and gauge tables from the ``run_end`` event."""
    if not run_end:
        return []
    lines: List[str] = []
    spans = run_end.get("span_totals") or {}
    if spans:
        lines += [
            "## Span wall-clock",
            "",
            "| Span | Total | Calls |",
            "|---|---|---|",
        ]
        for name, entry in sorted(spans.items()):
            lines.append(
                f"| `{name}` | {entry['seconds']*1e3:.1f} ms | {entry['calls']:.0f} |"
            )
        lines.append("")
    gauges = run_end.get("gauges") or {}
    mc = gauges.get("mc")
    if mc:
        lines += [
            "## Monte-Carlo counters",
            "",
            f"* forwards: {mc.get('forward_calls', 0):.0f} "
            f"({mc.get('forward_seconds', 0.0):.2f} s, "
            f"{mc.get('draws', 0):.0f} draws, "
            f"{mc.get('draws_per_second', 0.0):.1f} draws/s)",
            f"* backwards: {mc.get('backward_calls', 0):.0f} "
            f"({mc.get('backward_seconds', 0.0):.2f} s)",
            "",
        ]
    return lines


def _sweep_section(events: List[Dict]) -> List[str]:
    """Sweep-campaign summary from ``sweep.*`` events, if any were emitted.

    Renders the campaign totals from ``sweep.end``, the execution policy
    from ``sweep.start``, and — because failed cells are the thing an
    operator needs to act on — one line per non-``ok`` ``sweep.cell_end``
    with its error, attempt count and any recorded timeouts/retries.
    """
    start = next((e for e in events if e["kind"] == "sweep.start"), None)
    end = next((e for e in events if e["kind"] == "sweep.end"), None)
    if start is None and end is None:
        return []
    lines = ["## Sweep", ""]
    if start:
        lines.append(
            f"* executor: **{start.get('executor', '?')}** "
            f"(max_workers={start.get('max_workers', '?')}, "
            f"timeout_s={start.get('timeout_s')}, "
            f"retries={start.get('retries', '?')})"
        )
        if start.get("cache_dir"):
            lines.append(
                f"* storage: `{start['cache_dir']}` "
                f"({start.get('store', 'files')} backend, "
                f"fingerprint `{start.get('cache_fingerprint', '?')}`, "
                f"{start.get('n_cached', 0)} cells resumed)"
            )
    pool_end = next(
        (e for e in reversed(events) if e["kind"] == "sweep.pool.end"), None
    )
    if pool_end:
        busy_s = pool_end.get("busy_s", pool_end.get("occupancy")) or {}
        busy = ", ".join(
            f"{slot} {seconds:.1f}s" for slot, seconds in sorted(busy_s.items())
        )
        lines.append(
            f"* pool: {pool_end.get('n_workers', '?')} workers, "
            f"{pool_end.get('steals', 0)} steals, "
            f"{pool_end.get('restarts', 0)} replaced"
            + (f"; busy: {busy}" if busy else "")
        )
    if end:
        lines.append(
            f"* cells: {end.get('n_ok', '?')}/{end.get('n_cells', '?')} ok, "
            f"{end.get('n_failed', 0)} failed, "
            f"{end.get('n_cached', 0)} from cache "
            f"({end.get('elapsed_s', 0.0):.1f} s)"
        )
    n_retries = sum(1 for e in events if e["kind"] == "sweep.retry")
    n_timeouts = sum(1 for e in events if e["kind"] == "sweep.timeout")
    if n_retries or n_timeouts:
        lines.append(f"* retries: {n_retries}; timeouts: {n_timeouts}")
    failed = [
        e for e in events if e["kind"] == "sweep.cell_end" and e.get("status") != "ok"
    ]
    if failed:
        lines += ["", "| Failed cell | Attempts | Error |", "|---|---|---|"]
        for e in failed:
            error = (e.get("error") or "?").splitlines()[0]
            lines.append(
                f"| `{e.get('cell', '?')}` | {e.get('attempts', '?')} | {error} |"
            )
    lines.append("")
    return lines


def _serve_section(events: List[Dict]) -> List[str]:
    """Serving-tier summary from ``serve.*`` events, if any were emitted.

    Renders the service configuration from ``serve.start``, the final
    traffic totals (preferring ``serve.end``, falling back to the last
    ``serve.stats`` snapshot), the achieved batch-size histogram, and
    the degradation counters an operator acts on: queue-full
    rejections, request timeouts and worker restarts.
    """
    start = next((e for e in events if e["kind"] == "serve.start"), None)
    final = next(
        (
            e
            for e in reversed(events)
            if e["kind"] in ("serve.end", "serve.stats")
        ),
        None,
    )
    if start is None and final is None:
        return []
    lines = ["## Serving", ""]
    if start:
        lines.append(
            # ``window_s`` is absent since batching stopped waiting on a
            # timer; older runs' events still carry it and are ignored.
            f"* micro-batching: max batch {start.get('max_batch', '?')}, "
            f"queue {start.get('queue_size', '?')}, "
            f"workers {start.get('workers', 0)}, "
            f"precision {start.get('precision', 'inherit')}"
        )
    if final:
        by_status = final.get("by_status") or {}
        latency = final.get("latency_ms") or {}
        lines += [
            f"* requests: {final.get('requests', 0)} "
            f"({by_status.get('ok', 0)} ok) at {final.get('qps', 0.0):.1f} qps",
            f"* latency: p50 {latency.get('p50', 0.0):.2f} ms, "
            f"p99 {latency.get('p99', 0.0):.2f} ms, "
            f"mean {latency.get('mean', 0.0):.2f} ms",
            f"* batches: {final.get('batches', 0)} "
            f"(mean size {final.get('mean_batch_size', 0.0):.1f}, "
            f"max queue depth {final.get('max_queue_depth', 0)})",
        ]
        plan_cache = final.get("plan_cache") or {}
        if plan_cache:
            lines.append(
                f"* plan cache: {plan_cache.get('hits', 0)} hits, "
                f"{plan_cache.get('misses', 0)} misses, "
                f"{plan_cache.get('evictions', 0)} evictions"
            )
        degraded = []
        if by_status.get("queue_full"):
            degraded.append(f"{by_status['queue_full']} queue-full rejections")
        if by_status.get("timeout"):
            degraded.append(f"{by_status['timeout']} request timeouts")
        if final.get("worker_restarts"):
            degraded.append(f"{final['worker_restarts']} worker restarts")
        if by_status.get("error"):
            degraded.append(f"{by_status['error']} errors")
        lines.append(
            "* degradation: " + ("; ".join(degraded) if degraded else "none")
        )
        histogram = final.get("batch_size_histogram") or {}
        if histogram:
            lines += ["", "| Batch size | Batches |", "|---|---|"]
            for size, count in sorted(histogram.items(), key=lambda kv: int(kv[0])):
                lines.append(f"| {size} | {count} |")
    lines.append("")
    return lines


def _stream_run_section(events: List[Dict]) -> List[str]:
    """Streaming summary from ``stream.*`` events, if any.

    One line per completed scenario (``stream.end``) plus the per-chunk
    accuracy trajectory reconstructed from the ``stream.chunk`` events,
    and — when the run hosted a serving fleet — the batched
    fleet-stepping summary from the ``stream.batch.*`` events (rows
    coalesced per step, fleet occupancy, evictions).
    """
    ends = [e for e in events if e["kind"] == "stream.end"]
    steps = [e for e in events if e["kind"] == "stream.batch.step"]
    opens = [e for e in events if e["kind"] == "stream.batch.open"]
    evicts = [e for e in events if e["kind"] == "stream.batch.evict"]
    if not ends and not (steps or opens):
        return []
    lines = ["## Streaming", ""]
    if ends:
        lines += [
            "| Scenario | Dataset | Steps | Accuracy | Chunk accuracy |",
            "|---|---|---|---|---|",
        ]
        for end in ends:
            chunk_accs = [
                c.get("accuracy", 0.0)
                for c in events
                if c["kind"] == "stream.chunk"
                and c.get("scenario") == end.get("scenario")
            ]
            lines.append(
                f"| {end.get('scenario', '?')} | {end.get('dataset', '?')} | "
                f"{end.get('steps', '?')} | {end.get('accuracy', float('nan')):.3f} | "
                f"`{sparkline(chunk_accs)}` |"
            )
        lines.append("")
    if steps or opens:
        ok_steps = [e for e in steps if e.get("status") != "error"]
        rows = [int(e.get("rows", 0)) for e in ok_steps]
        total_rows = sum(rows)
        occupancies = [int(e.get("occupancy", 0)) for e in ok_steps + opens]
        capacity = next(
            (int(e["capacity"]) for e in ok_steps + opens if "capacity" in e), 0
        )
        lines.append("**Fleet stepping** (batched `/predict_stream`):")
        lines.append("")
        lines.append(
            f"* {len(ok_steps)} fleet steps advanced {total_rows} stream-chunks"
            + (
                f" ({total_rows / len(ok_steps):.2f} rows/step, "
                f"max {max(rows)})"
                if ok_steps
                else ""
            )
        )
        lines.append(
            f"* {len(opens)} sessions opened; peak occupancy "
            f"{max(occupancies) if occupancies else 0}"
            + (f"/{capacity}" if capacity else "")
            + f"; {len(evicts)} LRU evictions"
        )
        if ok_steps:
            lines.append(
                "* rows per step: `"
                + sparkline([float(r) for r in rows])
                + "`"
            )
        lines.append("")
    return lines


def render_run(run_dir: PathLike) -> str:
    """Render one telemetry run directory as a markdown report.

    Reads the manifest (``run.json``) and event stream
    (``events.jsonl``) written by :class:`repro.telemetry.Run` and
    produces the per-epoch sparkline table, evaluation summaries, sweep
    campaign summary (when the run wraps a ``repro.parallel`` sweep),
    serving summary (when the run wraps a ``repro.serve`` service),
    span wall-clock breakdown and Monte-Carlo counters.
    """
    from .telemetry import iter_events, load_manifest

    run_dir = pathlib.Path(run_dir)
    manifest = load_manifest(run_dir)
    events = list(iter_events(run_dir / "events.jsonl"))
    epochs = sorted(
        (e for e in events if e["kind"] == "epoch"), key=lambda e: e["epoch"]
    )
    evaluations = [e for e in events if e["kind"] == "evaluation"]
    run_end = next((e for e in events if e["kind"] == "run_end"), None)
    sweep_lines = _sweep_section(events)
    serve_lines = _serve_section(events)
    stream_lines = _stream_run_section(events)

    lines = [
        f"# Run `{manifest.get('run_id', run_dir.name)}`",
        "",
        f"* status: **{manifest.get('status', '?')}**",
        f"* created: {manifest.get('created_iso', '?')}",
        f"* git: `{manifest.get('git_sha') or 'unknown'}`",
        f"* seed: {manifest.get('seed')}; dataset: {manifest.get('dataset')}",
    ]
    model = manifest.get("model")
    if model:
        backends = manifest.get("backends") or {}
        lines.append(
            f"* model: {model} (variation_aware={manifest.get('variation_aware')}, "
            f"mc={backends.get('mc_backend', '?')}, "
            f"scan={backends.get('scan_backend', '?')})"
        )
    if manifest.get("checkpoint"):
        lines.append(f"* checkpoint: `{manifest['checkpoint']}`")
    lines += ["", "## Training", ""]
    lines += _epoch_series_section(epochs)
    if evaluations:
        lines += [
            "## Evaluations",
            "",
            "| Model | Variation | Draws | Accuracy | Wall-clock |",
            "|---|---|---|---|---|",
        ]
        for ev in evaluations:
            lines.append(
                f"| {ev.get('model', '?')} | {ev.get('variation', '?')} | "
                f"{ev.get('mc_samples', 0)} | "
                f"{ev.get('accuracy_mean', float('nan')):.3f} ± "
                f"{ev.get('accuracy_std', float('nan')):.3f} | "
                f"{ev.get('elapsed_s', 0.0)*1e3:.1f} ms |"
            )
        lines.append("")
    lines += sweep_lines
    lines += serve_lines
    lines += stream_lines
    lines += _span_section(run_end)
    return "\n".join(lines)
