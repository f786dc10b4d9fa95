"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------
* ``table1|table2|table3|fig5|fig6|fig7|mu`` — regenerate one paper
  artefact at a chosen ``--scale``;
* ``evaluate`` — run the whole suite and write ``results/<scale>/``;
* ``sweep`` — run a whole table/figure campaign through the sharded
  sweep orchestrator (worker processes or a persistent work-stealing
  pool, timeouts, retries, resumable file/SQLite campaign storage);
  ``--watch`` attaches a live terminal dashboard to a running or
  finished campaign (see ``docs/CAMPAIGNS.md``);
* ``query`` — run read-only SQL against the SQLite campaign store
  (cross-campaign questions in one statement; ``--list-examples``
  ships worked queries);
* ``mc-bench`` — measure sequential-vs-batched Monte-Carlo training
  throughput and verify loss equivalence between the two backends;
* ``scan-bench`` — measure the fused filter-scan kernel against the
  node-per-step oracle (SO-LF forward+backward and end-to-end epoch
  wall-clock) and verify loss/gradient equivalence;
* ``dtype-bench`` — measure each precision policy (float64 oracle,
  float32, mixed) through the fused SO-LF kernel and end-to-end
  training, and verify the float64 path is bit-equal across reruns
  while the reduced-precision policies stay within tolerance;
* ``report`` — render a saved ``results.json`` as markdown;
* ``runs`` — inspect telemetry run directories written by
  :class:`repro.telemetry.Run` (``list`` / ``show`` / ``tail``);
* ``export`` — train a model on a dataset and write its compiled
  netlist as a SPICE file;
* ``serve`` — train a model and serve it over HTTP behind the
  micro-batching inference tier (frozen forward plans, bounded queue,
  optional crash-isolated worker processes; see ``docs/SERVING.md``);
* ``stream-eval`` — train a model, then evaluate it *online* over
  drifting/faulty sensor-stream scenarios through the stateful
  :class:`repro.core.StreamingSession` (accuracy-over-time and
  changepoint-recovery curves, ``stream.*`` telemetry, markdown
  report section);
* ``tune`` — tune augmentation hyper-parameters for one dataset.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["build_parser", "main"]


def _config(scale: str, precision: Optional[str] = None):
    from dataclasses import replace

    from .core import ExperimentConfig

    config = {
        "paper": ExperimentConfig.paper,
        "ci": ExperimentConfig.ci,
        "smoke": ExperimentConfig.smoke,
    }[scale]()
    if precision is not None:
        config = replace(config, training=replace(config.training, precision=precision))
    return config


def _cmd_artifact(args: argparse.Namespace) -> int:
    from .core import (
        format_fig7,
        format_table1,
        run_fig5,
        run_fig6,
        run_fig7_ablation,
        run_mu_extraction,
        run_table1,
        run_table2,
        run_table3,
    )
    from .hw import format_hardware_table
    from .utils import render_table

    config = _config(args.scale, precision=args.precision)
    name = args.command
    if name == "table1":
        print(format_table1(run_table1(config, verbose=args.verbose)))
    elif name == "table2":
        timings = run_table2(config)
        print(render_table(["Model", "s / one-epoch fit"],
                           [[k, f"{v:.4f}"] for k, v in timings.items()]))
    elif name == "table3":
        print(format_hardware_table(run_table3(config)))
    elif name == "fig5":
        result = run_fig5(config)
        print(render_table(["Condition", "Accuracy"], [[k, f"{v:.3f}"] for k, v in result.items()]))
    elif name == "fig6":
        series = run_fig6()
        print(render_table(["Augmentation", "First 4 samples"],
                           [[k, ", ".join(f"{v:.2f}" for v in s[:4])] for k, s in series.items()]))
    elif name == "fig7":
        print(format_fig7(run_fig7_ablation(config, verbose=args.verbose)))
    elif name == "mu":
        result = run_mu_extraction(samples=args.samples)
        print(render_table(["Statistic", "Value"], [[k, f"{v:.3f}"] for k, v in result.items()]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import render_report_file

    text = render_report_file(args.results, args.output)
    if args.output is None:
        print(text)
    else:
        print(f"wrote {args.output}")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from .telemetry import is_run_dir, list_runs, tail_events

    if args.runs_command == "list":
        summaries = list_runs(args.root)
        if not summaries:
            print(f"no runs under {args.root}")
            return 0
        from .utils import render_table

        rows = [
            [
                s.run_id,
                s.status,
                s.created_iso,
                str(s.epochs),
                "-" if s.last_val_loss is None else f"{s.last_val_loss:.4g}",
                str(s.events),
            ]
            for s in summaries
        ]
        print(
            render_table(
                ["Run", "Status", "Created", "Epochs", "Val loss", "Events"], rows
            )
        )
        return 0

    if not is_run_dir(args.run_dir):
        print(f"{args.run_dir} is not a run directory (no run.json manifest)")
        return 1

    if args.runs_command == "show":
        from .report import render_run

        print(render_run(args.run_dir))
        return 0

    # tail: last N raw events as JSON lines.
    for event in tail_events(args.run_dir, n=args.n):
        print(json.dumps(event, sort_keys=True))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import numpy as np

    from .augment import default_config
    from .compile import compile_model
    from .core import AdaptPNC, Trainer, TrainingConfig
    from .data import load_dataset
    from .spice import circuit_to_spice

    dataset = load_dataset(args.dataset, n_samples=args.samples, seed=args.seed)
    model = AdaptPNC(dataset.info.n_classes, rng=np.random.default_rng(args.seed))
    trainer = Trainer(
        model,
        TrainingConfig.ci(),
        variation_aware=True,
        augmentation=default_config(args.dataset),
        seed=args.seed,
    )
    trainer.fit(dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val)
    compiled = compile_model(model, decouple=not args.coupled)
    text = circuit_to_spice(compiled.circuit, title=f"adapt_pnc_{args.dataset}")
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"trained on {args.dataset} and wrote netlist to {args.output}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import tune_augmentation

    best = tune_augmentation(
        args.dataset, n_trials=args.trials, seed=args.seed, max_epochs=args.epochs
    )
    print(f"best validation accuracy {best.score:.3f} with config:")
    for key, value in best.config.items():
        print(f"  {key} = {value:.4f}")
    return 0


def _cmd_mc_bench(args: argparse.Namespace) -> int:
    import json

    from .core import TrainingConfig, format_mc_benchmark, run_mc_benchmark

    config = TrainingConfig.ci() if args.scale == "ci" else TrainingConfig.paper()
    record = run_mc_benchmark(
        draws_list=tuple(args.draws),
        n_samples=args.samples,
        repeats=args.repeats,
        seed=args.seed,
        config=config,
        scan_backend=args.scan_backend,
    )
    print(format_mc_benchmark(record))
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump({"mc_vectorization": record}, fh, indent=2)
        print(f"wrote {args.output}")
    return 0 if record["equivalent"] else 1


def _cmd_scan_bench(args: argparse.Namespace) -> int:
    import json

    from .core import format_scan_benchmark, run_scan_benchmark

    record = run_scan_benchmark(
        seq_len=args.seq_len,
        batch=args.batch,
        draws=args.draws,
        num_filters=args.filters,
        repeats=args.repeats,
        seed=args.seed,
        train_epochs=args.epochs,
        include_training=not args.no_training,
    )
    print(format_scan_benchmark(record))
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump({"filter_scan": record}, fh, indent=2)
        print(f"wrote {args.output}")
    return 0 if record["equivalent"] else 1


def _cmd_dtype_bench(args: argparse.Namespace) -> int:
    import json

    from .core import format_dtype_benchmark, run_dtype_benchmark

    record = run_dtype_benchmark(
        seq_len=args.seq_len,
        batch=args.batch,
        draws=args.draws,
        num_filters=args.filters,
        repeats=args.repeats,
        seed=args.seed,
        train_epochs=args.epochs,
        include_training=not args.no_training,
        policies=args.policies,
    )
    print(format_dtype_benchmark(record))
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump({"precision": record}, fh, indent=2)
        print(f"wrote {args.output}")
    return 0 if record["equivalent"] else 1


def _resolve_watch_run(run_root: str, run: str) -> Optional[str]:
    """Resolve ``--watch [RUN]`` to an ``events.jsonl`` path.

    ``RUN`` may be a run directory, an ``events.jsonl`` path, or
    ``"latest"`` (the newest run under ``run_root`` with an event
    stream, preferring sweep runs).
    """
    import pathlib

    from .telemetry import EVENTS_FILENAME

    if run != "latest":
        path = pathlib.Path(run)
        if path.is_file():
            return str(path)
        if (path / EVENTS_FILENAME).is_file():
            return str(path / EVENTS_FILENAME)
        return None
    root = pathlib.Path(run_root)
    candidates = sorted(
        root.glob(f"*/{EVENTS_FILENAME}"),
        key=lambda p: (("sweep" in p.parent.name), p.stat().st_mtime),
    )
    return str(candidates[-1]) if candidates else None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from . import telemetry
    from .core import format_fig7, format_table1, run_fig7_ablation, run_table1
    from .parallel import SweepOptions

    if args.watch is not None:
        from .parallel import watch

        events_path = _resolve_watch_run(args.run_root, args.watch)
        if events_path is None:
            print(f"no run with an event stream found for --watch {args.watch!r}")
            return 1
        dashboard = watch(
            events_path, interval_s=args.watch_interval, once=args.watch_once
        )
        return 1 if dashboard.failed else 0

    config = _config(args.config, precision=args.precision)
    options = SweepOptions(
        executor=args.executor,
        max_workers=args.max_workers,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        cache_dir=None if args.no_cache else args.cache_dir,
        store=args.store,
        pool_restarts=args.pool_restarts,
    )
    run_ctx = (
        nullcontext(None)
        if args.no_telemetry
        else telemetry.Run(root=args.run_root, name=f"sweep-{args.artefact}")
    )
    with run_ctx as run:
        if args.artefact == "table1":
            table = run_table1(config, verbose=args.verbose, sweep=options)
            print(format_table1(table))
            entries = [entry for row in table.values() for entry in row.values()]
        else:
            results = run_fig7_ablation(config, verbose=args.verbose, sweep=options)
            print(format_fig7(results))
            entries = [entry for row in results.values() for entry in row.values()]
        n_failed = sum(entry.n_failed for entry in entries)
        if run is not None:
            print(f"telemetry: {run.dir}")
    if n_failed:
        print(f"WARNING: {n_failed} sweep cells failed after retries (see events.jsonl)")
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json
    import sqlite3

    from .parallel import EXAMPLE_QUERIES, run_query

    if args.list_examples:
        for name in sorted(EXAMPLE_QUERIES):
            print(f"-- {name}")
            print(EXAMPLE_QUERIES[name])
            print()
        return 0
    sql = EXAMPLE_QUERIES[args.example] if args.example else args.sql
    if not sql:
        print("provide a SQL statement, --example NAME, or --list-examples")
        return 2
    try:
        columns, rows = run_query(args.db, sql)
    except FileNotFoundError as exc:
        print(f"error: {exc} (run a sweep with --store sqlite first)")
        return 1
    except sqlite3.Error as exc:
        print(f"sql error: {exc}")
        return 1
    if args.as_json:
        for row in rows:
            print(json.dumps(dict(zip(columns, row)), default=str))
        return 0
    from .utils import render_table

    print(render_table(columns, [[_cell_text(v) for v in row] for row in rows]))
    print(f"{len(rows)} row{'s' if len(rows) != 1 else ''}")
    return 0


def _cell_text(value) -> str:
    """Compact text for one query-result cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _serve_self_test(server, name: str, dataset, n: int) -> List[str]:
    """Fire ``n`` local HTTP requests at a freshly started server and
    return a list of failure descriptions (empty on success)."""
    import http.client
    import json

    import numpy as np

    host, port = server.server_address[:2]

    def post(path, body):
        conn = http.client.HTTPConnection(host, port, timeout=120.0)
        try:
            conn.request(
                "POST", path, json.dumps(body), {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    failures = []
    for i in range(n):
        series = np.asarray(dataset.x_val[i % len(dataset.x_val)]).tolist()
        status, payload = post("/predict", {"model": name, "series": series})
        if status != 200 or "prediction" not in payload:
            failures.append(f"/predict #{i}: HTTP {status} {payload}")
    series = np.asarray(dataset.x_val[0]).tolist()
    status, payload = post(
        "/predict_mc", {"model": name, "series": series, "draws": 8}
    )
    if status != 200 or "confidence" not in payload:
        failures.append(f"/predict_mc: HTTP {status} {payload}")
    status, payload = post("/predict", {"model": name, "series": "not a series"})
    if status != 400:
        failures.append(f"malformed payload: expected HTTP 400, got {status}")
    return failures


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import nullcontext
    from dataclasses import replace

    import numpy as np

    from . import telemetry
    from .augment import default_config
    from .core import AdaptPNC, Trainer, TrainingConfig
    from .data import load_dataset
    from .serve import MicroBatchService, ServeHTTPServer, ServeOptions

    dataset = load_dataset(args.dataset, n_samples=args.samples, seed=args.seed)
    model = AdaptPNC(dataset.info.n_classes, rng=np.random.default_rng(args.seed))
    trainer = Trainer(
        model,
        replace(TrainingConfig.ci(), max_epochs=args.epochs),
        variation_aware=True,
        augmentation=default_config(args.dataset),
        seed=args.seed,
    )
    trainer.fit(dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val)

    options = ServeOptions(
        max_batch=args.max_batch,
        queue_size=args.queue_size,
        max_sessions=args.max_sessions,
        workers=args.workers,
        precision=args.precision,
    )
    run_ctx = (
        nullcontext(None)
        if args.no_telemetry
        else telemetry.Run(root=args.run_root, name=f"serve-{args.dataset}")
    )
    with run_ctx as run:
        with MicroBatchService(options) as service:
            service.register(args.dataset, model)
            with ServeHTTPServer(service, host=args.host, port=args.port) as server:
                print(f"serving {args.dataset!r} at {server.url}")
                if run is not None:
                    print(f"telemetry: {run.dir}")
                if args.self_test:
                    server.start_background()
                    failures = _serve_self_test(
                        server, args.dataset, dataset, args.self_test
                    )
                    snapshot = service.emit_stats()
                    print(
                        f"self-test: {snapshot['requests']} requests, "
                        f"p50 {snapshot['latency_ms']['p50']:.2f} ms, "
                        f"p99 {snapshot['latency_ms']['p99']:.2f} ms, "
                        f"mean batch {snapshot['mean_batch_size']:.1f}"
                    )
                    for failure in failures:
                        print(f"FAIL: {failure}")
                    return 1 if failures else 0
                try:
                    server.serve_forever()
                except KeyboardInterrupt:
                    print("\nshutting down")
    return 0


def _cmd_stream_eval(args: argparse.Namespace) -> int:
    import json
    from contextlib import nullcontext
    from dataclasses import replace

    import numpy as np

    from . import telemetry
    from .augment import default_config
    from .compile import compile_plan
    from .core import AdaptPNC, Trainer, TrainingConfig, evaluate_streaming
    from .data import load_dataset, make_stream
    from .report import _streaming_section

    dataset = load_dataset(args.dataset, n_samples=args.samples, seed=args.seed)
    model = AdaptPNC(dataset.info.n_classes, rng=np.random.default_rng(args.seed))
    trainer = Trainer(
        model,
        replace(TrainingConfig.ci(), max_epochs=args.epochs),
        variation_aware=True,
        augmentation=default_config(args.dataset),
        seed=args.seed,
    )
    trainer.fit(dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val)
    plan = compile_plan(model, precision=args.precision)

    run_ctx = (
        nullcontext(None)
        if args.no_telemetry
        else telemetry.Run(root=args.run_root, name=f"stream-{args.dataset}")
    )
    results = []
    with run_ctx as run:
        for scenario in args.scenarios:
            stream = make_stream(scenario, args.dataset, seed=args.seed)
            results.append(
                evaluate_streaming(plan, stream, chunk_size=args.chunk_size)
            )
        if run is not None:
            print(f"telemetry: {run.dir}")
    record = {
        "streaming": {
            "model": plan.model_class,
            "dataset": args.dataset,
            "chunk_size": args.chunk_size,
            "scenarios": [r.to_record() for r in results],
        }
    }
    print("\n".join(_streaming_section(record)))
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    # Delegates to the example script's logic without importing it.
    import subprocess

    cmd = [sys.executable, "examples/run_full_evaluation.py", "--scale", args.scale]
    return subprocess.call(cmd)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ADAPT-pNC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .autograd.precision import PRECISION_POLICIES
    from .data.streams import STREAM_SCENARIOS
    from .parallel.orchestrator import EXECUTORS
    from .parallel.store import EXAMPLE_QUERIES, STORE_BACKENDS

    for name in ("table1", "table2", "table3", "fig5", "fig6", "fig7", "mu"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--scale", choices=("smoke", "ci", "paper"), default="smoke")
        p.add_argument(
            "--precision",
            choices=PRECISION_POLICIES,
            default=None,
            help="training precision policy (default: the config preset's)",
        )
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--samples", type=int, default=10, help="mu-study sample count")
        p.set_defaults(func=_cmd_artifact)

    p = sub.add_parser("report", help="render results.json as markdown")
    p.add_argument("results", help="path to results.json")
    p.add_argument("--output", default=None, help="write markdown here (stdout otherwise)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("runs", help="inspect telemetry run directories")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    rp = runs_sub.add_parser("list", help="list runs under a root directory")
    rp.add_argument("--root", default="runs", help="directory holding run directories")
    rp.set_defaults(func=_cmd_runs)
    rp = runs_sub.add_parser("show", help="render one run as a markdown summary")
    rp.add_argument("run_dir", help="path to a run directory")
    rp.set_defaults(func=_cmd_runs)
    rp = runs_sub.add_parser("tail", help="print the last N events of a run")
    rp.add_argument("run_dir", help="path to a run directory")
    rp.add_argument("-n", type=int, default=10, help="number of events")
    rp.set_defaults(func=_cmd_runs)

    p = sub.add_parser("export", help="train + compile a model to a SPICE netlist")
    p.add_argument("dataset")
    p.add_argument("--output", default="adapt_pnc.cir")
    p.add_argument("--samples", type=int, default=90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coupled", action="store_true", help="omit inter-stage buffers")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("tune", help="tune augmentation hyper-parameters")
    p.add_argument("dataset")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "mc-bench", help="benchmark batched vs sequential Monte-Carlo training"
    )
    p.add_argument("--scale", choices=("ci", "paper"), default="ci")
    p.add_argument(
        "--draws", type=int, nargs="+", default=[2, 4, 8], help="MC draw counts to sweep"
    )
    p.add_argument("--samples", type=int, default=24, help="dataset size")
    p.add_argument("--repeats", type=int, default=3, help="timed repeats per backend")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scan-backend",
        choices=("fused", "unfused"),
        default="fused",
        help="filter-recurrence kernel used by both MC backends",
    )
    p.add_argument("--output", default=None, help="write the record as JSON here")
    p.set_defaults(func=_cmd_mc_bench)

    p = sub.add_parser(
        "scan-bench", help="benchmark fused vs unfused filter-scan kernels"
    )
    p.add_argument("--seq-len", type=int, default=64, help="sequence length T")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--draws", type=int, default=8, help="Monte-Carlo draws")
    p.add_argument("--filters", type=int, default=8, help="filter-bank width")
    p.add_argument("--repeats", type=int, default=5, help="timed repeats per backend")
    p.add_argument("--epochs", type=int, default=5, help="end-to-end training epochs")
    p.add_argument(
        "--no-training", action="store_true", help="skip the Trainer.fit comparison"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="write the record as JSON here")
    p.set_defaults(func=_cmd_scan_bench)

    p = sub.add_parser(
        "dtype-bench",
        help="benchmark precision policies (float64 oracle vs float32/mixed)",
    )
    p.add_argument("--seq-len", type=int, default=96, help="sequence length T")
    p.add_argument("--batch", type=int, default=48)
    p.add_argument("--draws", type=int, default=12, help="Monte-Carlo draws")
    p.add_argument("--filters", type=int, default=8, help="filter-bank width")
    p.add_argument("--repeats", type=int, default=5, help="timed repeats per policy")
    p.add_argument("--epochs", type=int, default=4, help="end-to-end training epochs")
    p.add_argument(
        "--policies",
        nargs="+",
        choices=PRECISION_POLICIES,
        default=None,
        help="precision policies to benchmark (default: all; float64 required)",
    )
    p.add_argument(
        "--no-training", action="store_true", help="skip the Trainer.fit comparison"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="write the record as JSON here")
    p.set_defaults(func=_cmd_dtype_bench)

    p = sub.add_parser(
        "sweep", help="run a sharded (or serial-oracle) experiment sweep"
    )
    p.add_argument(
        "--artefact",
        choices=("table1", "fig7"),
        default="table1",
        help="which cell grid to sweep",
    )
    p.add_argument(
        "--config",
        choices=("smoke", "ci", "paper"),
        default="smoke",
        help="experiment scale (same presets as the artefact commands)",
    )
    p.add_argument(
        "--precision",
        choices=PRECISION_POLICIES,
        default=None,
        help="training precision policy (default: the config preset's)",
    )
    p.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="parallel",
        help="serial oracle, spawn-per-cell workers, or a persistent "
        "work-stealing pool (all bit-equal)",
    )
    p.add_argument("--max-workers", type=int, default=2, help="worker process budget")
    p.add_argument(
        "--timeout", type=float, default=None, help="per-cell timeout in seconds"
    )
    p.add_argument(
        "--retries", type=int, default=1, help="relaunch budget per failed cell"
    )
    p.add_argument(
        "--backoff", type=float, default=0.1, help="base backoff before a retry (s)"
    )
    p.add_argument(
        "--cache-dir",
        default="sweep_cache",
        help="campaign storage root (sweeps resume from it)",
    )
    p.add_argument(
        "--store",
        choices=STORE_BACKENDS,
        default="files",
        help="storage backend under --cache-dir: JSON files or the "
        "queryable SQLite campaign store",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the resume cache entirely"
    )
    p.add_argument(
        "--pool-restarts",
        type=int,
        default=2,
        help="worker replacements the pool executor tolerates per campaign",
    )
    p.add_argument(
        "--watch",
        nargs="?",
        const="latest",
        default=None,
        metavar="RUN",
        help="render a live dashboard for RUN (a run dir or events.jsonl; "
        "default: the latest sweep run under --run-root) instead of "
        "launching a campaign",
    )
    p.add_argument(
        "--watch-interval",
        type=float,
        default=0.5,
        help="dashboard repaint interval in seconds",
    )
    p.add_argument(
        "--watch-once",
        action="store_true",
        help="render one dashboard frame and exit (no TTY needed)",
    )
    p.add_argument(
        "--run-root", default="runs", help="telemetry root for the sweep run directory"
    )
    p.add_argument(
        "--no-telemetry", action="store_true", help="do not open a telemetry run"
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "query", help="run read-only SQL against the SQLite campaign store"
    )
    p.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="one SQL statement (see --list-examples for schemas in action)",
    )
    p.add_argument(
        "--db",
        default="sweep_cache/campaigns.sqlite",
        help="campaign database path (written by sweep --store sqlite)",
    )
    p.add_argument(
        "--example",
        choices=sorted(EXAMPLE_QUERIES),
        default=None,
        help="run a named worked example instead of positional SQL",
    )
    p.add_argument(
        "--list-examples",
        action="store_true",
        help="print every worked example query and exit",
    )
    p.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit one JSON object per row instead of a table",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "serve", help="train a model and serve it over HTTP (micro-batched)"
    )
    p.add_argument("--dataset", default="Slope")
    p.add_argument("--samples", type=int, default=60, help="dataset size")
    p.add_argument("--epochs", type=int, default=8, help="training epochs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000, help="0 binds an ephemeral port")
    p.add_argument("--max-batch", type=int, default=32, help="largest coalesced batch")
    p.add_argument("--queue-size", type=int, default=128, help="bounded request queue")
    p.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="streaming-session LRU cap = fleet rows per model",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="crash-isolated plan worker processes (0 = in-process)",
    )
    p.add_argument(
        "--precision",
        choices=PRECISION_POLICIES,
        default=None,
        help="plan compilation precision (default: the active policy)",
    )
    p.add_argument(
        "--run-root", default="runs", help="telemetry root for the serve run directory"
    )
    p.add_argument(
        "--no-telemetry", action="store_true", help="do not open a telemetry run"
    )
    p.add_argument(
        "--self-test",
        type=int,
        default=0,
        metavar="N",
        help="serve in the background, fire N local requests, report and exit",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "stream-eval",
        help="train a model and evaluate it online over sensor-stream scenarios",
    )
    p.add_argument("--dataset", default="Slope")
    p.add_argument(
        "--scenarios",
        nargs="+",
        choices=sorted(STREAM_SCENARIOS),
        default=["drift", "dropout"],
        help="stream scenarios to evaluate (seeded, replayable)",
    )
    p.add_argument("--samples", type=int, default=60, help="training dataset size")
    p.add_argument("--epochs", type=int, default=8, help="training epochs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--chunk-size",
        type=int,
        default=16,
        help="steps per StreamingSession.process call (results are "
        "chunking-invariant; telemetry granularity is not)",
    )
    p.add_argument(
        "--precision",
        choices=PRECISION_POLICIES,
        default=None,
        help="plan compilation precision (default: the active policy)",
    )
    p.add_argument("--output", default=None, help="write the record as JSON here")
    p.add_argument(
        "--run-root", default="runs", help="telemetry root for the stream run directory"
    )
    p.add_argument(
        "--no-telemetry", action="store_true", help="do not open a telemetry run"
    )
    p.set_defaults(func=_cmd_stream_eval)

    p = sub.add_parser("evaluate", help="run the full evaluation suite")
    p.add_argument("--scale", choices=("smoke", "ci", "paper"), default="ci")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head).
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
