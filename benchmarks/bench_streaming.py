"""Streaming-session throughput: chunked stateful inference vs one-shot.

Streams one long drifting sensor stream (T >> 64) through a
:class:`repro.core.StreamingSession` at several transport chunk sizes
and compares step throughput against the batched one-shot plan forward.
The session pays a fixed per-step cost (elementwise recurrence + one
row-stable affine kernel per layer) — that is exactly what buys the
bit-exact split-invariance contract — so the batched forward is
expected to be faster on throughput; the interesting numbers are the
per-step latency of the streaming path and how little the chunk size
matters to it.

``--multi`` benchmarks the fleet engine instead: N concurrent streams
stepped per-session (N independent :class:`StreamingSession` loops —
what the serving tier did before the fleet scheduler) versus one
:class:`repro.core.MultiStreamSession` advancing all N rows together,
layer by layer over each round's chunks, over ragged randomly-cut chunk
schedules.  The aggregate-speedup
gate (≥3x at 32 streams) is skipped on single-core runners like the
other serving benches; every stream's trajectory must be bit-equal to
its single-stream oracle regardless.  Each ``--multi`` run appends a
compact entry to the ``BENCH_streaming.json`` trajectory.

Equivalence is enforced, not assumed: every chunked pass must be
bit-equal to the one-chunk session pass, and the session's final logits
must agree with the batched plan forward to float64 accumulation
tolerance.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --multi --streams 32
    PYTHONPATH=src python benchmarks/bench_streaming.py --output streaming_bench.json
"""

import argparse
import json
import os
import pathlib
import time

import numpy as np

from repro.compile import compile_plan
from repro.core import AdaptPNC, MultiStreamSession, StreamingSession
from repro.data import drift_stream

EQUIVALENCE_ATOL = 1e-12

#: Aggregate fleet speedup the --multi gate demands at 32 streams.
MULTI_SPEEDUP_TARGET = 3.0

#: Fleet-speedup trajectory across bench runs — one compact entry
#: appended per ``--multi`` invocation.
TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / "BENCH_streaming.json"


def run(
    steps_target: int = 2048,
    chunk_sizes=(1, 16, 64, 256),
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    model = AdaptPNC(3, rng=np.random.default_rng(seed))
    plan = compile_plan(model)
    stream = drift_stream(
        "Slope",
        segments=max(2, steps_target // (64 * 8)),
        windows_per_segment=8,
        seed=seed,
    )
    x = stream.x
    steps = x.size

    # Oracle trajectory: the whole stream in one session call.
    oracle = StreamingSession(plan).process(x)

    rows = []
    equivalent = True
    max_abs_delta = 0.0
    for chunk in chunk_sizes:
        session = StreamingSession(plan)
        best = float("inf")
        for _ in range(repeats):
            session.reset()
            pieces = []
            t0 = time.perf_counter()
            for lo in range(0, steps, chunk):
                pieces.append(session.process(x[lo : lo + chunk]))
            best = min(best, time.perf_counter() - t0)
        trajectory = np.concatenate(pieces, axis=0)
        bit_equal = bool(np.array_equal(trajectory, oracle))
        equivalent &= bit_equal
        rows.append(
            {
                "chunk_size": int(chunk),
                "seconds": best,
                "steps_per_sec": steps / best,
                "us_per_step": best / steps * 1e6,
                "bit_equal_one_shot": bit_equal,
            }
        )

    # Batched reference: the plan forward over the full (1, T) series.
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        batched_logits = plan.forward(x[None])[0]
        best = min(best, time.perf_counter() - t0)
    max_abs_delta = float(np.max(np.abs(oracle[-1] - batched_logits)))
    equivalent &= max_abs_delta <= EQUIVALENCE_ATOL

    return {
        "streaming": {
            "model": plan.model_class,
            "steps": int(steps),
            "repeats": repeats,
            "rows": rows,
            "batched_forward_s": best,
            "batched_steps_per_sec": steps / best,
            "max_abs_logit_delta_vs_plan": max_abs_delta,
            "equivalence_atol": EQUIVALENCE_ATOL,
            "equivalent": bool(equivalent),
        }
    }


def _ragged_schedule(rng, n_streams: int, steps: int, max_chunk: int):
    """Random per-stream chunk cut points: a list of rounds, each round
    a ``{stream: (lo, hi)}`` dict.  Streams advance at different rates
    and may sit a round out, so no two streams share cut points."""
    cursors = [0] * n_streams
    rounds = []
    while any(c < steps for c in cursors):
        spans = {}
        for s in range(n_streams):
            if cursors[s] >= steps:
                continue
            if rng.random() < 0.15 and len(rounds) > 0:
                continue  # this stream sits the round out
            size = int(rng.integers(1, max_chunk + 1))
            lo = cursors[s]
            hi = min(lo + size, steps)
            spans[s] = (lo, hi)
            cursors[s] = hi
        if spans:
            rounds.append(spans)
    return rounds


def run_multi(
    n_streams: int = 32,
    steps: int = 512,
    max_chunk: int = 16,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Fleet stepping vs per-session stepping over ragged schedules."""
    model = AdaptPNC(3, rng=np.random.default_rng(seed))
    plan = compile_plan(model)
    rng = np.random.default_rng(seed + 1)
    streams = [
        drift_stream(
            "Slope",
            segments=2,
            windows_per_segment=max(1, steps // (2 * 64)),
            seed=seed + 100 + s,
        ).x[:steps]
        for s in range(n_streams)
    ]
    steps = min(x.size for x in streams)
    streams = [x[:steps] for x in streams]
    schedule = _ragged_schedule(rng, n_streams, steps, max_chunk)

    # Oracle + per-session baseline timing: N independent sessions
    # stepped through the same ragged schedule.
    oracle = [np.empty((steps, plan.n_classes)) for _ in range(n_streams)]
    per_session_s = float("inf")
    for _ in range(repeats):
        sessions = [StreamingSession(plan) for _ in range(n_streams)]
        t0 = time.perf_counter()
        for spans in schedule:
            for s, (lo, hi) in spans.items():
                oracle[s][lo:hi] = sessions[s].process(streams[s][lo:hi])
        per_session_s = min(per_session_s, time.perf_counter() - t0)

    # Fleet: same schedule, one batched advance per round.
    fleet_out = [np.empty((steps, plan.n_classes)) for _ in range(n_streams)]
    fleet_s = float("inf")
    for _ in range(repeats):
        fleet = MultiStreamSession(plan, capacity=n_streams)
        rows = [fleet.open() for _ in range(n_streams)]
        t0 = time.perf_counter()
        for spans in schedule:
            chunks = {
                rows[s]: streams[s][lo:hi] for s, (lo, hi) in spans.items()
            }
            results = fleet.process_many(chunks)
            for s, (lo, hi) in spans.items():
                fleet_out[s][lo:hi] = results[rows[s]]
        fleet_s = min(fleet_s, time.perf_counter() - t0)

    bit_equal = all(
        np.array_equal(fleet_out[s], oracle[s]) for s in range(n_streams)
    )
    total_steps = n_streams * steps
    speedup = per_session_s / fleet_s
    return {
        "multi_stream": {
            "model": plan.model_class,
            "n_streams": int(n_streams),
            "steps_per_stream": int(steps),
            "rounds": len(schedule),
            "max_chunk": int(max_chunk),
            "repeats": int(repeats),
            "per_session_s": per_session_s,
            "per_session_steps_per_sec": total_steps / per_session_s,
            "fleet_s": fleet_s,
            "fleet_steps_per_sec": total_steps / fleet_s,
            "speedup": speedup,
            "speedup_target": MULTI_SPEEDUP_TARGET,
            "bit_equal_oracle": bool(bit_equal),
            "cpu_count": os.cpu_count(),
        }
    }


def record_trajectory(record: dict, path: pathlib.Path = TRAJECTORY) -> dict:
    """Append a compact trajectory entry for this ``--multi`` run."""
    multi = record["multi_stream"]
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "speedup": round(multi["speedup"], 3),
        "per_session_steps_per_sec": round(multi["per_session_steps_per_sec"], 1),
        "fleet_steps_per_sec": round(multi["fleet_steps_per_sec"], 1),
        "bit_equal_oracle": multi["bit_equal_oracle"],
        "workload": {
            "n_streams": multi["n_streams"],
            "steps_per_stream": multi["steps_per_stream"],
            "max_chunk": multi["max_chunk"],
            "rounds": multi["rounds"],
        },
    }
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return entry


def test_multi_stream_throughput(benchmark):
    record = benchmark.pedantic(
        lambda: run_multi(n_streams=8, steps=128, repeats=1),
        rounds=1,
        iterations=1,
    )["multi_stream"]
    print(
        f"\nfleet: {record['fleet_steps_per_sec']:.0f} steps/s  "
        f"per-session: {record['per_session_steps_per_sec']:.0f} steps/s  "
        f"speedup {record['speedup']:.2f}x"
    )
    assert record["bit_equal_oracle"], record


def test_streaming_throughput(benchmark):
    record = benchmark.pedantic(
        lambda: run(steps_target=512, chunk_sizes=(1, 64), repeats=1),
        rounds=1,
        iterations=1,
    )["streaming"]
    print(
        "\n"
        + "  ".join(
            f"chunk={row['chunk_size']}: {row['steps_per_sec']:.0f} steps/s"
            for row in record["rows"]
        )
        + f"  batched: {record['batched_steps_per_sec']:.0f} steps/s"
    )
    assert record["equivalent"], record
    assert all(row["bit_equal_one_shot"] for row in record["rows"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2048, help="target stream length")
    parser.add_argument(
        "--chunk-sizes", type=int, nargs="+", default=[1, 16, 64, 256]
    )
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats, min taken")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write the record as JSON here")
    parser.add_argument(
        "--multi",
        action="store_true",
        help="benchmark the batched fleet engine vs per-session stepping",
    )
    parser.add_argument(
        "--streams", type=int, default=32, help="concurrent streams for --multi"
    )
    parser.add_argument(
        "--max-chunk", type=int, default=16, help="largest ragged chunk for --multi"
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=MULTI_SPEEDUP_TARGET,
        help="fail --multi below this aggregate speedup (skipped on 1 core; "
        "0 disables)",
    )
    args = parser.parse_args()

    if args.multi:
        record = run_multi(
            n_streams=args.streams,
            steps=args.steps if args.steps != 2048 else 512,
            max_chunk=args.max_chunk,
            repeats=args.repeats,
            seed=args.seed,
        )["multi_stream"]
        print(
            f"{record['model']}: {record['n_streams']} streams x "
            f"{record['steps_per_stream']} steps, {record['rounds']} ragged rounds"
        )
        print(
            f"  per-session: {record['per_session_steps_per_sec']:9.0f} steps/s  "
            f"({record['per_session_s'] * 1e3:7.1f} ms)"
        )
        print(
            f"  fleet      : {record['fleet_steps_per_sec']:9.0f} steps/s  "
            f"({record['fleet_s'] * 1e3:7.1f} ms)"
        )
        print(
            f"  speedup {record['speedup']:.2f}x — "
            + ("bit-equal oracle" if record["bit_equal_oracle"] else "MISMATCH")
        )
        entry = record_trajectory({"multi_stream": record})
        print(f"trajectory -> {TRAJECTORY.name}: {json.dumps(entry['workload'])}")
        if args.output is not None:
            with open(args.output, "w") as fh:
                json.dump({"multi_stream_bench": record}, fh, indent=2)
            print(f"wrote {args.output}")
        if not record["bit_equal_oracle"]:
            print("FAIL: fleet diverged from the single-stream oracle")
            return 1
        if args.assert_speedup and (os.cpu_count() or 1) < 2:
            print(
                f"speedup gate ({args.assert_speedup:.1f}x) skipped: single-core runner"
            )
        elif args.assert_speedup and record["speedup"] < args.assert_speedup:
            print(
                f"FAIL: speedup {record['speedup']:.2f}x below "
                f"{args.assert_speedup:.1f}x"
            )
            return 1
        return 0

    record = run(
        steps_target=args.steps,
        chunk_sizes=tuple(args.chunk_sizes),
        repeats=args.repeats,
        seed=args.seed,
    )["streaming"]
    print(f"{record['model']} over {record['steps']} steps:")
    for row in record["rows"]:
        marker = "bit-equal" if row["bit_equal_one_shot"] else "MISMATCH"
        print(
            f"  chunk {row['chunk_size']:>4}: {row['steps_per_sec']:9.0f} steps/s  "
            f"({row['us_per_step']:6.1f} us/step)  {marker}"
        )
    print(
        f"  batched  : {record['batched_steps_per_sec']:9.0f} steps/s  "
        f"(plan.forward one-shot)"
    )
    print(
        f"final-logit |delta| vs plan: {record['max_abs_logit_delta_vs_plan']:.2e} "
        f"(tolerance {record['equivalence_atol']:.0e}) — "
        + ("equivalent" if record["equivalent"] else "NOT equivalent")
    )
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump({"streaming_bench": record}, fh, indent=2)
        print(f"wrote {args.output}")
    return 0 if record["equivalent"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
