"""The four end-to-end workloads, each run in a process of its own.

``run.py`` starts this file once per workload and per traced or
untraced pass::

    python benchmarks/e2e/workloads.py <workload> --seed S --seconds N \
        --workdir DIR [--trace] [--trace-out FILE]

It needs ``src`` on ``PYTHONPATH`` and prints one JSON object as the last
line of its standard output.  The seed drives every input: data, model
initialisation, arrival times and chunk schedules.

Every workload reports the same end-to-end metrics, each measured on
its own unit of work (see README.md for the table):

* ``setup_s`` — the median import time over five interpreters plus the
  median of three set-ups, each building the program's state and
  warming it up;
* ``peak_rss_mb`` — peak resident memory of this process and its children;
* ``throughput`` — units of work completed per second;
* ``p50_ms`` — median per-unit latency.

Tails are reported (p95 and the highest percentile with ten samples
beyond it) but not gated: on a shared host, fleet-call p95 moved by
70 % between quiet and busy hours where p50 moved by 15 %.

Only default code paths run (float64, batched MC, fused scan,
interpreted graph), so removing an opt-in backend reads as no change.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402 — the import time above is part of setup_s
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from repro.compile import compile_plan  # noqa: E402
from repro.core import (  # noqa: E402
    AdaptPNC,
    ExperimentConfig,
    MultiStreamSession,
    StreamingSession,
    Trainer,
    TrainingConfig,
)
from repro.core.experiment import run_table1  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.data.streams import drift_stream  # noqa: E402
from repro.parallel import SweepOptions  # noqa: E402
from repro.serve import MicroBatchService, ServeHTTPServer, ServeOptions  # noqa: E402
from repro.telemetry import read_events  # noqa: E402

import loadgen  # noqa: E402
import spans  # noqa: E402

_IMPORT_S = time.perf_counter() - _T_START

#: Set-ups per run; ``setup_s`` adds their median to the import time's.
SETUPS = 3

#: Interpreters whose import time ``setup_s`` takes the median of: this
#: one and fresh ones started after the workload.  Importing numpy,
#: scipy and ``repro`` is most of set-up and most of its run-to-run noise.
IMPORTS = 5


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem size of one workload; ``TINY`` keeps the tests fast."""

    epochs: int = 200
    samples: int = 150
    datasets: Optional[Tuple[str, ...]] = None
    warm_epochs: int = 2
    session_steps: Tuple[int, int] = (256, 4096)


FULL = Size()
TINY = Size(epochs=6, samples=60, datasets=("Slope", "GPOVY"), warm_epochs=1,
            session_steps=(32, 128))


@dataclasses.dataclass
class Outcome:
    """What one workload measured, before it becomes the JSON line."""

    setups_s: List[float]
    throughput: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    #: The workload's :data:`metrics.NAMED` values but ``failed_share``.
    named: Dict[str, float]
    info: Dict[str, object]
    layers: Optional[Dict[str, float]] = None
    digest: Optional[str] = None


def _timed_setups(setup: Callable[[], object],
                  teardown: Optional[Callable[[object], None]] = None):
    """Run ``setup`` :data:`SETUPS` times; keep the last, tear down the rest."""
    times, state = [], None
    for _ in range(SETUPS):
        if state is not None and teardown is not None:
            teardown(state)
        t = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t)
    return times, state


def _import_times() -> List[float]:
    """This interpreter's import time and that of ``IMPORTS - 1`` fresh ones."""
    here = str(pathlib.Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    times = [_IMPORT_S]
    for _ in range(IMPORTS - 1):
        out = subprocess.run(
            [sys.executable, "-c", "import workloads; print(workloads._IMPORT_S)"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def _traced_region(tracing: Optional[spans.Tracing]):
    return tracing if tracing is not None else contextlib.nullcontext()


# -- train-paper ---------------------------------------------------------------


def train_paper(seed: int, seconds: float, tracing, size: Size = FULL) -> Outcome:
    """Repeated paper-protocol fits of AdaptPNC(6) on Symbols (90x64 train split)."""
    config = replace(TrainingConfig.paper(), max_epochs=size.epochs)

    def fit(data, cfg):
        model = AdaptPNC(6, rng=np.random.default_rng(seed))
        trainer = Trainer(model, cfg, variation_aware=True, seed=seed)
        return trainer.fit(data.x_train, data.y_train, data.x_val, data.y_val,
                           checkpoint_every=0)

    def setup():
        data = load_dataset("Symbols", size.samples, seed)
        fit(data, replace(config, max_epochs=size.warm_epochs))
        return data

    setups, data = _timed_setups(setup)
    fits: List[Tuple[float, object]] = []
    with _traced_region(tracing):
        t0 = time.perf_counter()
        while len(fits) < 2 or time.perf_counter() - t0 < seconds:
            t = time.perf_counter()
            history = fit(data, config)
            fits.append((time.perf_counter() - t, history))
        wall = time.perf_counter() - t0

    epochs = sum(h.epochs_run for _, h in fits)
    finals = [h.train_loss[-1] for _, h in fits]
    bad = sum(1 for _, h in fits for loss in h.train_loss if not math.isfinite(loss))
    outcome = Outcome(
        setups_s=setups,
        throughput=epochs / sum(s for s, _ in fits),
        latencies_ms=[1e3 * s / h.epochs_run for s, h in fits],
        attempted=epochs,
        failed=bad,
        checks={
            "all_epochs_run": all(h.epochs_run == size.epochs for _, h in fits),
            "final_loss_bit_equal": len({repr(v) for v in finals}) == 1,
            "final_loss_finite": all(math.isfinite(v) for v in finals),
        },
        named={"epoch_ms": statistics.median(1e3 * s / h.epochs_run for s, h in fits),
               "final_loss": finals[0]},
        info={"fits": len(fits)},
        digest=repr(finals[0]),
    )
    if tracing is not None:
        outcome.layers = spans.span_shares(tracing.tracer.table(), wall)
    return outcome


# -- campaign-ci ---------------------------------------------------------------


def _table_digest(table) -> str:
    rows = [(d, k, repr(r.mean), repr(r.std), r.n_failed)
            for d, entry in table.items() for k, r in entry.items()]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _pool_metrics(events: List[dict], workers: int) -> Dict[str, float]:
    """Occupancy, idle tail, first-cell delay and steals from ``sweep.*`` events."""
    busy = idle = first = longest = window = 0.0
    steals = 0
    starts: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    sweep_start = None
    for event in events:
        kind, t = event["kind"], event["t"]
        if kind == "sweep.start":
            sweep_start, starts, intervals = t, {}, []
        elif kind == "sweep.cell_start":
            starts.setdefault(event["cell"], t)
        elif kind == "sweep.cell_end" and not event.get("cached"):
            intervals.append((starts.get(event["cell"], t - event["elapsed_s"]), t))
        elif kind == "sweep.pool.steal":
            steals += 1
        elif kind == "sweep.end" and sweep_start is not None and intervals:
            window += t - sweep_start
            busy += sum(e - s for s, e in intervals)
            first += min(s for s, _ in intervals) - sweep_start
            longest = max(longest, max(e - s for s, e in intervals) / (t - sweep_start))
            edges = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
            running, last = 0, sweep_start
            for at, step in edges:
                if running < workers:
                    idle += at - last
                running, last = running + step, at
            idle += t - last
    if window <= 0:
        return {}
    return {
        "parallel.occupancy": busy / (window * workers),
        "parallel.tail_idle_share": idle / window,
        "parallel.first_cell_share": first / window,
        "parallel.max_cell_share": longest,
        "parallel.steals": float(steals),
    }


def campaign_ci(seed: int, seconds: float, tracing, size: Size = FULL) -> Outcome:
    """The CI-scale Table-I campaign on the work-stealing pool, 2 workers."""
    config = replace(ExperimentConfig.ci(), seeds=(seed,))
    if size.datasets:
        config = replace(config, datasets=size.datasets)
    sweep = SweepOptions(executor="pool", max_workers=2)
    warm = ExperimentConfig(
        datasets=("Slope",), n_samples=30, seeds=(seed,),
        training=replace(TrainingConfig.ci(), max_epochs=size.warm_epochs),
        eval_mc=1, top_k=1,
    )

    def setup():
        run_table1(warm, sweep=sweep)

    setups, _ = _timed_setups(setup)
    campaigns = []
    with _traced_region(tracing):
        t0 = time.perf_counter()
        while not campaigns or time.perf_counter() - t0 < seconds:
            t = time.perf_counter()
            table = run_table1(config, sweep=sweep)
            campaigns.append((time.perf_counter() - t, table))
        wall = time.perf_counter() - t0

    n_cells = len(config.datasets) * 3
    entries = [r for _, table in campaigns for d, row in table.items()
               if d != "Average" for r in row.values()]
    digests = {_table_digest(table) for _, table in campaigns}
    robust = campaigns[0][1]["Average"]["adapt"].mean
    checks = {
        "all_cells_ok": all(r.n_failed == 0 and math.isfinite(r.mean) for r in entries),
        "robust_acc_in_range": 0.0 < robust <= 1.0,
    }
    if len(campaigns) > 1:
        checks["campaigns_equal"] = len(digests) == 1
    throughput = n_cells * len(campaigns) / sum(s for s, _ in campaigns)
    outcome = Outcome(
        setups_s=setups,
        throughput=throughput,
        latencies_ms=[1e3 * s for s, _ in campaigns],
        attempted=n_cells * len(campaigns),
        failed=sum(r.n_failed for r in entries),
        checks=checks,
        named={"cells_per_min": 60.0 * throughput, "robust_acc_pp": 100.0 * robust},
        info={"campaigns": len(campaigns), "cells": n_cells},
        digest=digests.pop(),
    )
    if tracing is not None:
        table = spans.worker_table(tracing.run.span_totals())
        layers = spans.span_shares(table, wall * sweep.max_workers)
        layers.update(_pool_metrics(read_events(tracing.run.events_path), sweep.max_workers))
        outcome.layers = layers
    return outcome


# -- serve-predict -------------------------------------------------------------

#: Open-loop ladder: rate (req/s) -> share of the run's seconds.  500
#: req/s gets most: its p50 is gated and its p99 needs >= 10 samples
#: beyond it.  The other steps place ``max_rate_rps``.
_LADDER = {500: 0.30, 1000: 0.10, 2000: 0.05, 3000: 0.10, 4000: 0.05}

#: The ladder steps the per-layer ``.light`` and ``.heavy`` metrics read.
_LIGHT_RATE, _HEAVY_RATE = 500, 3000

#: ``max_rate_rps`` is the highest ladder rate with no failed request,
#: p99 within this many ms and the backlog drained within this many s.
_SLO_P99_MS, _SLO_DRAIN_S = 10.0, 1.0

#: Share of the run's seconds given to each closed-loop phase.
_SERVE_SPLIT = {"http": 0.1, "inproc": 0.05, "capacity": 0.25}

#: Capacity is the best of this many back-to-back windows.  The three
#: service threads on two cores fall into a slower scheduling mode for
#: seconds at a time (51k vs 44k req/s, measured); noise only ever slows
#: a window, so the fastest one is the steadiest estimate.
_CAPACITY_WINDOWS = 10

#: Requests in flight in the capacity windows.
_IN_FLIGHT = 64

#: Responses compared against a lone ``plan.forward``.
_CHECKED_RESPONSES = 256


class _Server:
    """One hosted model: service, HTTP transport and a keep-alive client."""

    def __init__(self, seed: int, series: np.ndarray) -> None:
        self.service = MicroBatchService(ServeOptions(queue_size=1024))
        self.service.register("adapt", AdaptPNC(3, rng=np.random.default_rng(seed)))
        self.http = ServeHTTPServer(self.service, port=0).start_background()
        host, port = self.http.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=10)
        self.series = series
        self.post(json.dumps({"model": "adapt", "series": series[0].tolist()}).encode())
        warm = loadgen.poisson_schedule(2 * _LIGHT_RATE, 0.2, seed)
        loadgen.open_loop("warm", self.submit, warm)

    def submit(self, i: int):
        return self.service.submit("adapt", self.series[i % len(self.series)])

    def post(self, body: bytes) -> bool:
        self.conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        response.read()
        return response.status == 200

    def close(self) -> None:
        self.conn.close()
        self.http.close()
        self.service.close()


def _batch_rows(service: MicroBatchService) -> np.ndarray:
    """``[rows, batches]`` the service has run so far."""
    snap = service.stats.snapshot()
    return np.array([snap["mean_batch_size"] * snap["batches"], snap["batches"]])


def _meets_slo(phase: loadgen.Phase) -> bool:
    return (phase.failed == 0 and phase.drain_s <= _SLO_DRAIN_S
            and loadgen.percentile(phase.latencies_s * 1e3, 99) <= _SLO_P99_MS)


def serve_predict(seed: int, seconds: float, tracing, size: Size = FULL) -> Outcome:
    """Open-loop /predict over a rate ladder, capacity, and HTTP."""
    data = load_dataset("Slope", 300, seed)
    series = np.concatenate([data.x_train, data.x_val, data.x_test])
    bodies = [json.dumps({"model": "adapt", "series": s.tolist()}).encode() for s in series]
    split = {name: share * seconds for name, share in _SERVE_SPLIT.items()}
    ladder_due = {rate: loadgen.poisson_schedule(rate, share * seconds, seed + k)
                  for k, (rate, share) in enumerate(_LADDER.items())}

    setups, server = _timed_setups(lambda: _Server(seed, series), _Server.close)
    try:
        ladder, windows, batched = {}, {}, {}
        with _traced_region(tracing):
            t0 = time.perf_counter()
            for rate, due in ladder_due.items():
                before, start = _batch_rows(server.service), time.perf_counter()
                ladder[rate] = loadgen.open_loop(f"r{rate}", server.submit, due)
                windows[rate] = (start, time.perf_counter())
                batched[rate] = _batch_rows(server.service) - before
            http_phase = loadgen.sequential(
                "http", lambda i: server.post(bodies[i % len(bodies)]), split["http"])
            inproc = loadgen.sequential(
                "inproc", lambda i: server.service.predict("adapt", series[i % len(series)]),
                split["inproc"])
            capacity = [
                loadgen.closed_loop(f"capacity{k}", server.submit, _IN_FLIGHT,
                                    split["capacity"] / _CAPACITY_WINDOWS)
                for k in range(_CAPACITY_WINDOWS)
            ]
            wall = time.perf_counter() - t0
        light, heavy = ladder[_LIGHT_RATE], ladder[_HEAVY_RATE]
        plan, _ = server.service.registry.plan("adapt")
        checked = [(i, f) for i, f in enumerate(light.futures[:_CHECKED_RESPONSES])
                   if f is not None and f.done() and f.exception() is None]
        worst, same = 0.0, True
        for i, future in checked:
            got = future.result()["logits"]
            lone = plan.forward(series[i % len(series)][None])[0]
            worst = max(worst, float(np.max(np.abs(got - lone))))
            same &= int(np.argmax(got)) == int(np.argmax(lone))
    finally:
        server.close()

    phases = [*ladder.values(), http_phase, inproc, *capacity]
    outcome = Outcome(
        setups_s=setups,
        throughput=max(p.ok / p.wall_s for p in capacity),
        latencies_ms=list(light.latencies_s * 1e3),
        attempted=sum(p.sent for p in phases),
        failed=sum(p.failed for p in phases),
        checks={
            "argmax_matches_lone_forward": same and len(checked) > 0,
            "logits_within_1e-9": worst <= 1e-9,
        },
        named={
            "p50_ms.low": loadgen.percentile(light.latencies_s * 1e3, 50),
            "p99_ms.low": loadgen.percentile(light.latencies_s * 1e3, 99),
            "p50_ms.high": loadgen.percentile(heavy.latencies_s * 1e3, 50),
            "max_rate_rps": float(max((r for r, p in ladder.items() if _meets_slo(p)),
                                      default=0)),
            "http_p50_ms": loadgen.percentile(http_phase.latencies_s * 1e3, 50),
        },
        info={
            "phases": {p.name: p.summary() for p in phases},
            "max_abs_logit_diff": worst,
        },
    )
    if tracing is not None:
        tracer = tracing.tracer
        layers = spans.span_shares(tracer.table(), wall)
        for name, rate in (("light", _LIGHT_RATE), ("heavy", _HEAVY_RATE)):
            forwards = tracer.durations("plan.forward", *windows[rate])
            layers[f"serve.busy_share.{name}"] = sum(forwards) / (windows[rate][1] - windows[rate][0])
            if forwards and len(ladder[rate].latencies_s):
                p50 = loadgen.percentile(ladder[rate].latencies_s, 50)
                layers[f"serve.wait_share.{name}"] = 1.0 - statistics.median(forwards) / p50
        http_p50 = loadgen.percentile(http_phase.latencies_s, 50)
        layers["serve.http_share"] = 1.0 - loadgen.percentile(inproc.latencies_s, 50) / http_p50
        rows, calls = batched[_HEAVY_RATE]
        layers["plan.rows_per_call"] = rows / max(1, calls)
        outcome.layers = layers
    return outcome


# -- fleet-churn ---------------------------------------------------------------

#: Fleet rows; chance an open session sends a chunk in a round; longest chunk.
_CAPACITY, _PARTICIPATION, _MAX_CHUNK = 32, 0.85, 16

#: Sessions whose first stream is replayed through a lone StreamingSession.
_CHECKED_SLOTS = 4


def churn_schedule(seed: int, signal_steps: int, rounds: int, size: Size = FULL):
    """Seeded ragged fleet traffic: ``rounds`` of ``(slots, starts, lengths, ended)``.

    All 32 session slots stay occupied.  Each round, every slot sends a
    chunk of 1-16 steps with probability 0.85, cut from its session's
    window of the signal; a session lasts a seeded 256-4096 steps (the
    size's ``session_steps``), then its slot closes it and opens the next.
    """
    rng = np.random.default_rng(seed)
    lo, hi = size.session_steps
    pos = np.zeros(_CAPACITY, dtype=np.int64)
    end = np.zeros(_CAPACITY, dtype=np.int64)

    def begin(slot):
        steps = int(rng.integers(lo, hi + 1))
        pos[slot] = int(rng.integers(0, signal_steps - steps + 1))
        end[slot] = pos[slot] + steps

    for slot in range(_CAPACITY):
        begin(slot)
    out = []
    for _ in range(rounds):
        slots = np.flatnonzero(rng.random(_CAPACITY) < _PARTICIPATION)
        lengths = np.minimum(rng.integers(1, _MAX_CHUNK + 1, _CAPACITY)[slots],
                             end[slots] - pos[slots])
        starts = pos[slots].copy()
        pos[slots] += lengths
        ended = slots[pos[slots] >= end[slots]]
        for slot in ended:
            begin(slot)
        out.append((slots.tolist(), starts.tolist(), lengths.tolist(), ended.tolist()))
    return out


def fleet_churn(seed: int, seconds: float, tracing, size: Size = FULL) -> Outcome:
    """A 32-row MultiStreamSession under seeded join/leave churn, as fast as it goes.

    The run lasts ``seconds``, and longer until the first session of each
    checked slot has ended, so the recorded sessions are whole.
    """
    signal = drift_stream("Slope", segments=64, windows_per_segment=4, seed=seed).x
    schedule = churn_schedule(seed, signal.size, int(4000 * seconds) + 100, size)

    def setup():
        plan = compile_plan(AdaptPNC(3, rng=np.random.default_rng(seed)))
        fleet = MultiStreamSession(plan, capacity=_CAPACITY)
        rows = [fleet.open() for _ in range(_CAPACITY)]
        for k in range(8):
            fleet.process_many({r: signal[16 * k:16 * k + 1 + r % 16] for r in rows})
        for r in rows:
            fleet.close(r)
        return plan, fleet

    setups, (plan, fleet) = _timed_setups(setup)
    rows = [fleet.open() for _ in range(_CAPACITY)]
    recording = set(range(_CHECKED_SLOTS))
    records = {slot: [] for slot in recording}
    calls, steps, rows_sent, computed, failed = [], 0, 0, 0, 0
    with _traced_region(tracing):
        t0 = time.perf_counter()
        for slots, starts, lengths, ended in schedule:
            chunks = {rows[s]: signal[a:a + n] for s, a, n in zip(slots, starts, lengths)}
            t = time.perf_counter()
            try:
                out = fleet.process_many(chunks)
            except Exception:  # noqa: BLE001 — a raising call is a measured failure
                failed += 1
                break
            calls.append(time.perf_counter() - t)
            for s in recording.intersection(slots):
                records[s].append((chunks[rows[s]], out[rows[s]]))
            steps += sum(lengths)
            rows_sent += len(slots)
            computed += _CAPACITY * max(lengths, default=0)
            for s in ended:
                fleet.close(rows[s])
                rows[s] = fleet.open()
                recording.discard(s)
            if not recording and time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0

    replays_equal = True
    for chunks_and_logits in records.values():
        lone = StreamingSession(plan)
        replays_equal &= all(np.array_equal(lone.process(c), o) for c, o in chunks_and_logits)
    checked_steps = sum(len(c) for r in records.values() for c, _ in r)
    digest = hashlib.sha256()
    for slot in sorted(records):
        for _, logits in records[slot]:
            digest.update(logits.tobytes())
    outcome = Outcome(
        setups_s=setups,
        throughput=steps / wall,
        latencies_ms=[1e3 * c for c in calls],
        attempted=len(calls) + failed,
        failed=failed,
        checks={"lone_session_bit_equal": replays_equal and checked_steps > 0
                and not recording},
        named={"steps_per_s": steps / wall},
        info={"steps": steps, "calls": len(calls), "checked_steps": checked_steps},
        digest=digest.hexdigest(),
    )
    if tracing is not None:
        layers = spans.span_shares(tracing.tracer.table(), wall)
        layers["fleet.rows_per_call"] = rows_sent / max(1, len(calls))
        layers["fleet.useful_share"] = steps / max(1, computed)
        outcome.layers = layers
    return outcome


WORKLOADS = {
    "train-paper": train_paper,
    "campaign-ci": campaign_ci,
    "serve-predict": serve_predict,
    "fleet-churn": fleet_churn,
}


def measure(name: str, seed: int, seconds: float, workdir: pathlib.Path,
            traced: bool = False, size: Size = FULL,
            trace_out: Optional[pathlib.Path] = None) -> dict:
    """Run one workload in this process and return its result record."""
    tracing = spans.Tracing(workdir) if traced else None
    outcome = WORKLOADS[name](seed, seconds, tracing, size)
    latencies = outcome.latencies_ms
    # Read before the import probes, which are children of this process too.
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    imports = _import_times()
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "correct": all(outcome.checks.values()),
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            "setup_s": statistics.median(imports) + statistics.median(outcome.setups_s),
            "peak_rss_mb": rss_kib / 1024.0,
            "throughput": outcome.throughput,
            "p50_ms": loadgen.percentile(latencies, 50),
        },
        "named": dict(outcome.named, failed_share=outcome.failed / outcome.attempted),
        "info": dict(outcome.info, samples=len(latencies),
                     p95_ms=loadgen.percentile(latencies, 95),
                     tail=loadgen.tail_percentile(latencies),
                     setups_s=outcome.setups_s, imports_s=imports),
        "digest": outcome.digest,
    }
    if traced:
        record["layers"] = spans.complete(outcome.layers)
        if trace_out is not None:
            tracer = tracing.tracer
            table = tracer.table()
            for key, row in spans.worker_table(tracing.run.span_totals()).items():
                table.setdefault(key, [0, 0.0, 0.0])[:] = row
            trace_out.write_text(json.dumps({
                "workload": name,
                "seed": seed,
                "spans": tracer.log,
                "logged": len(tracer.log),
                "totals": [[parent, span, *row] for (parent, span), row in sorted(table.items())],
            }))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=pathlib.Path)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, args.workdir,
                     traced=args.trace, trace_out=args.trace_out)
    print(json.dumps(record, default=float))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
