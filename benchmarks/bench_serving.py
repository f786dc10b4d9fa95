"""Micro-batching throughput: batched service vs one-request-per-forward.

Drives one :class:`repro.serve.MicroBatchService` with a thread-pool of
closed-loop clients twice — once with coalescing disabled
(``max_batch=1``: every request runs its own plan forward) and once
with natural batching up to ``max_batch`` (every request queued while
a batch computes joins the next one) — and reports QPS, latency
percentiles and the achieved batch-size distribution of each run.  The
forward amortises almost perfectly over the batch dimension (one GEMM
per layer regardless of rows), so the batched configuration should
clear ~2x throughput wherever more than one client can actually run
concurrently.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --assert-speedup 2.0

Each side times 6,000 requests by default (~0.8 s batched on 2 cores);
at 200 the batched run lasted ~30 ms and its speedup followed host
scheduling.  ``--assert-speedup`` exits non-zero when the batched run
is not at least that many times faster; on single-core runners
(``os.cpu_count() == 1``) the assertion is skipped because concurrent
clients cannot physically overlap there.  ``--run-root`` records both
runs' ``serve.*`` telemetry for ``python -m repro report``.
"""

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.core import PTPNC
from repro.serve import MicroBatchService, ServeOptions
from repro.telemetry import Run


def make_inputs(n_requests: int, steps: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        np.clip(np.cumsum(rng.normal(0.0, 0.3, steps)), -1.0, 1.0)
        for _ in range(n_requests)
    ]


def drive(service, inputs, clients: int, timeout_s: float = 120.0) -> dict:
    """Fire ``inputs`` at the service from ``clients`` closed-loop
    threads; returns wall-clock, QPS and the service's own stats."""
    latencies = []
    errors = []
    lock = threading.Lock()
    cursor = iter(range(len(inputs)))

    def worker():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                service.predict("bench", inputs[i], timeout=timeout_s)
            except Exception as exc:  # noqa: BLE001 — recorded, not raised
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            with lock:
                latencies.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall_s = time.perf_counter() - t0

    from repro.serve import percentile

    snapshot = service.stats.snapshot()
    return {
        "requests": len(latencies),
        "errors": errors,
        "wall_s": wall_s,
        "qps": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": percentile(latencies, 50) * 1e3,
            "p99": percentile(latencies, 99) * 1e3,
        },
        "mean_batch_size": snapshot["mean_batch_size"],
        "batch_size_histogram": snapshot["batch_size_histogram"],
    }


def run(
    n_requests: int = 6000,
    clients: int = 16,
    steps: int = 48,
    max_batch: int = 32,
    run_root=None,
) -> dict:
    model = PTPNC(2, rng=np.random.default_rng(0))
    inputs = make_inputs(n_requests, steps)

    def one_config(tag, options):
        ctx = Run(root=run_root, name=f"serve-bench-{tag}") if run_root else None
        try:
            if ctx is not None:
                ctx.__enter__()
            with MicroBatchService(options) as service:
                service.register("bench", model)
                service.predict("bench", inputs[0])  # warm the plan + JIT paths
                record = drive(service, inputs, clients)
                service.emit_stats()
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)
        return record

    unbatched = one_config(
        "unbatched",
        ServeOptions(max_batch=1, queue_size=max(128, n_requests)),
    )
    batched = one_config(
        "batched",
        ServeOptions(max_batch=max_batch, queue_size=max(128, n_requests)),
    )

    return {
        "n_requests": n_requests,
        "clients": clients,
        "steps": steps,
        "max_batch": max_batch,
        "cpu_count": os.cpu_count() or 1,
        "unbatched": unbatched,
        "batched": batched,
        "speedup": (
            batched["qps"] / unbatched["qps"] if unbatched["qps"] > 0 else float("inf")
        ),
    }


def test_micro_batching_throughput(benchmark):
    record = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nunbatched {record['unbatched']['qps']:.0f} qps  "
        f"batched {record['batched']['qps']:.0f} qps  "
        f"speedup {record['speedup']:.2f}x  "
        f"mean batch {record['batched']['mean_batch_size']:.1f}"
    )
    assert not record["unbatched"]["errors"], record["unbatched"]["errors"]
    assert not record["batched"]["errors"], record["batched"]["errors"]
    assert record["batched"]["mean_batch_size"] > 1.0
    if record["cpu_count"] >= 2:
        assert record["speedup"] >= 1.5, f"only {record['speedup']:.2f}x"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=6000)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--steps", type=int, default=48)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless batched QPS >= X times unbatched (skipped on 1 core)",
    )
    parser.add_argument("--p99-budget-ms", type=float, default=None,
                        help="fail when the batched p99 latency exceeds this")
    parser.add_argument("--run-root", default=None,
                        help="record serve.* telemetry runs under this directory")
    parser.add_argument("--output", default=None, help="write the record as JSON here")
    args = parser.parse_args()

    record = run(
        n_requests=args.requests,
        clients=args.clients,
        steps=args.steps,
        max_batch=args.max_batch,
        run_root=args.run_root,
    )
    for tag in ("unbatched", "batched"):
        side = record[tag]
        print(
            f"{tag:>9}: {side['qps']:8.0f} qps  "
            f"p50 {side['latency_ms']['p50']:6.2f} ms  "
            f"p99 {side['latency_ms']['p99']:6.2f} ms  "
            f"mean batch {side['mean_batch_size']:.1f}"
        )
    print(
        f"speedup {record['speedup']:.2f}x  "
        f"(clients={record['clients']}, cores={record['cpu_count']})"
    )
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.output}")

    failed = False
    for tag in ("unbatched", "batched"):
        if record[tag]["errors"]:
            print(f"FAIL: {tag} run had errors: {record[tag]['errors'][:3]}")
            failed = True
    if args.p99_budget_ms is not None:
        p99 = record["batched"]["latency_ms"]["p99"]
        if p99 > args.p99_budget_ms:
            print(f"FAIL: batched p99 {p99:.2f} ms > budget {args.p99_budget_ms} ms")
            failed = True
        else:
            print(f"batched p99 {p99:.2f} ms within {args.p99_budget_ms} ms budget")
    if args.assert_speedup is not None:
        if record["cpu_count"] < 2:
            print(
                f"single-core machine: skipping the >= {args.assert_speedup:.1f}x "
                "speedup assertion (clients cannot physically overlap)"
            )
        elif record["speedup"] < args.assert_speedup:
            print(
                f"FAIL: speedup {record['speedup']:.2f}x "
                f"< required {args.assert_speedup:.1f}x"
            )
            failed = True
        else:
            print(f"speedup {record['speedup']:.2f}x >= {args.assert_speedup:.1f}x")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
