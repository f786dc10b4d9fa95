"""Concurrency suite for :class:`repro.serve.MicroBatchService`.

Covers the in-process (``workers=0``) configuration: coalescing,
determinism against batch companions, backpressure, timeouts, the plan
LRU, Monte-Carlo prediction and the ``serve.*`` telemetry stream.
Worker-process faults live in ``test_workers.py``; the HTTP transport
in ``test_service.py``.
"""

import queue
import sys
import threading

import numpy as np
import pytest

from repro.compile import PlanInputError
from repro.core import PTPNC
from repro.serve import (
    MicroBatchService,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    ServeOptions,
    ServeStats,
    UnknownModelError,
    percentile,
)
from repro.telemetry import Run, read_events

from .conftest import fork_only

pytestmark = pytest.mark.serve


def make_service(model, name="demo", **kw):
    svc = MicroBatchService(ServeOptions(**kw))
    svc.register(name, model)
    return svc


@pytest.fixture
def stalled_service(monkeypatch, served_model):
    """A service whose batch thread never drains the queue — the
    deterministic way to exercise backpressure and request timeouts."""
    monkeypatch.setattr(MicroBatchService, "_batch_loop", lambda self: None)
    svc = make_service(served_model, queue_size=2)
    yield svc
    svc.close()


class TestBatching:
    def test_single_request_matches_frozen_plan(self, served_model, series):
        with make_service(served_model) as svc:
            plan, _ = svc.registry.plan("demo")
            result = svc.predict("demo", series)
            oracle = plan.forward(plan.coerce_series(series)[None])[0]
            assert result["prediction"] == plan.predict(series)
            assert np.array_equal(np.asarray(result["logits"]), oracle)
            assert result["batch_size"] == 1
            assert result["latency_ms"] > 0

    def test_concurrent_requests_coalesce_into_one_batch(
        self, served_model, series, gate, t
    ):
        # The batch thread is held inside a plug batch while six
        # requests queue; it then takes all six without waiting.
        with make_service(served_model, max_batch=8) as svc:
            hold = gate(svc)
            plug = svc.submit("demo", series)
            hold.wait_entered()
            futures = [svc.submit("demo", series) for _ in range(6)]
            hold.release()
            assert plug.result(timeout=t(10.0))["batch_size"] == 1
            results = [f.result(timeout=t(10.0)) for f in futures]
        sizes = {r["batch_size"] for r in results}
        assert sizes == {6}
        logits = [r["logits"] for r in results]
        assert all(np.array_equal(logits[0], other) for other in logits[1:])
        snap = svc.stats.snapshot()
        assert snap["batches"] == 2
        assert snap["batch_size_histogram"] == {"1": 1, "6": 1}

    def test_prediction_independent_of_batch_companions(
        self, served_model, series, gate, t
    ):
        """The determinism contract: same series, any companions ->
        same prediction, logits to accumulation tolerance."""
        with make_service(served_model, max_batch=1) as svc:
            baseline = svc.predict("demo", series)
        rng = np.random.default_rng(5)
        companions = [
            np.clip(np.cumsum(rng.normal(0, 0.3, series.shape[0])), -1, 1)
            for _ in range(5)
        ]
        with make_service(served_model, max_batch=8) as svc:
            hold = gate(svc)
            svc.submit("demo", series)
            hold.wait_entered()
            futures = [svc.submit("demo", series)]
            futures += [svc.submit("demo", c) for c in companions]
            hold.release()
            batched = futures[0].result(timeout=t(10.0))
        assert batched["batch_size"] == 6
        assert int(np.argmax(batched["logits"])) == baseline["prediction"]
        np.testing.assert_allclose(
            batched["logits"], baseline["logits"], rtol=0, atol=1e-9
        )

    def test_threaded_clients_all_get_correct_answers(self, served_model, t):
        rng = np.random.default_rng(11)
        inputs = [
            np.clip(np.cumsum(rng.normal(0, 0.3, 24)), -1, 1) for _ in range(12)
        ]
        with make_service(served_model, max_batch=4) as svc:
            plan, _ = svc.registry.plan("demo")
            expected = [plan.predict(s) for s in inputs]
            results = [None] * len(inputs)
            barrier = threading.Barrier(len(inputs))

            def client(i):
                barrier.wait()
                results[i] = svc.predict("demo", inputs[i], timeout=t(10.0))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(inputs))
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=t(30.0))
        assert [r["prediction"] for r in results] == expected
        assert svc.stats.snapshot()["by_status"] == {"ok": len(inputs)}

    @fork_only
    def test_worker_batch_threads_share_one_queue(self, served_model, t):
        """One batch thread per plan worker, all draining one queue: with
        more threads than cores and a short switch interval, every
        request is still answered once and correctly."""
        rng = np.random.default_rng(17)
        inputs = [np.clip(np.cumsum(rng.normal(0, 0.3, 24)), -1, 1) for _ in range(16)]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(served_model, workers=3, max_batch=4,
                              batch_timeout_s=t(30.0)) as svc:
                plan, _ = svc.registry.plan("demo")
                expected = [plan.predict(s) for s in inputs]

                def client(k):
                    for i, s in enumerate(inputs):
                        results[k, i] = svc.predict("demo", s, timeout=t(30.0))

                threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=t(60.0))
                assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 64
        assert all(r["prediction"] == expected[i] for (_, i), r in results.items())
        snap = svc.stats.snapshot()
        assert snap["by_status"] == {"ok": 64}
        assert snap["mean_batch_size"] * snap["batches"] == pytest.approx(64)

    def test_incompatible_shapes_split_batches(self, served_model, gate, t):
        rng = np.random.default_rng(3)
        long = np.clip(np.cumsum(rng.normal(0, 0.3, 24)), -1, 1)
        short = np.clip(np.cumsum(rng.normal(0, 0.3, 16)), -1, 1)
        with make_service(served_model, max_batch=8) as svc:
            plan, _ = svc.registry.plan("demo")
            hold = gate(svc)
            svc.submit("demo", long)
            hold.wait_entered()
            futures = [
                svc.submit("demo", s) for s in (long, short, long, short, long)
            ]
            hold.release()
            results = [f.result(timeout=t(10.0)) for f in futures]
            expected = [plan.predict(s) for s in (long, short, long, short, long)]
        assert [int(np.argmax(r["logits"])) for r in results] == expected
        # A shape flip closes the current batch, so nothing coalesces
        # across the boundary: the plug plus five batches of one.
        assert [r["batch_size"] for r in results] == [1] * 5
        assert svc.stats.snapshot()["batch_size_histogram"] == {"1": 6}

    def test_batch_threads_never_wait_on_a_timer(
        self, monkeypatch, served_model, series
    ):
        """Natural batching: the batch and fleet threads block only on
        an empty queue, never on a timed ``Queue.get``."""
        timed = []
        inner = queue.Queue.get

        def recording(q, block=True, timeout=None):
            if threading.current_thread().name.startswith("serve-"):
                if block and timeout is not None:
                    timed.append(timeout)
            return inner(q, block, timeout)

        monkeypatch.setattr(queue.Queue, "get", recording)
        with make_service(served_model, workers=0) as svc:
            futures = [svc.submit("demo", series) for _ in range(4)]
            for f in futures:
                f.result(timeout=10.0)
            sid = svc.predict_stream("demo", series[:4])["session"]
            svc.predict_stream("demo", series[4:], session_id=sid)
        assert timed == []

    def test_failing_plan_fails_its_batch_only(
        self, monkeypatch, served_model, series, t
    ):
        """A plan that raises fails its own batch; the thread goes on
        and the next request succeeds."""
        with make_service(served_model) as svc:
            plan, _ = svc.registry.plan("demo")
            calls = []

            def flaky(self, x):
                calls.append(x.shape[0])
                if len(calls) == 1:
                    raise RuntimeError("injected plan failure")
                return self.forward(x)

            monkeypatch.setattr(type(plan), "__call__", flaky)
            with pytest.raises(RuntimeError, match="injected plan failure"):
                svc.predict("demo", series, timeout=t(10.0))
            result = svc.predict("demo", series, timeout=t(10.0))
            oracle = plan.forward(plan.coerce_series(series)[None])[0]
        assert np.array_equal(np.asarray(result["logits"]), oracle)
        assert calls == [1, 1]
        assert svc.stats.snapshot()["by_status"] == {"error": 1, "ok": 1}

    def test_fault_outside_the_plan_keeps_the_thread(self, served_model, series, t):
        """A fault after the plan ran (here: recording stats) reaches the
        batch's waiter instead of killing the batch thread."""
        with make_service(served_model) as svc:
            inner = svc.stats.record_batch
            faults = []

            def failing_once(*args):
                if not faults:
                    faults.append(1)
                    raise RuntimeError("injected stats failure")
                return inner(*args)

            svc.stats.record_batch = failing_once
            with pytest.raises(RuntimeError, match="injected stats failure"):
                svc.predict("demo", series, timeout=t(10.0))
            result = svc.predict("demo", series, timeout=t(10.0))
        assert result["batch_size"] == 1
        assert svc.stats.snapshot()["batches"] == 1


class TestBackpressure:
    def test_queue_full_raises_and_counts(self, stalled_service, series):
        svc = stalled_service
        futures = [svc.submit("demo", series) for _ in range(2)]
        with pytest.raises(QueueFullError):
            svc.submit("demo", series)
        assert svc.stats.snapshot()["by_status"]["queue_full"] == 1
        svc.close()
        for future in futures:
            with pytest.raises(ServeError):
                future.result(timeout=0)

    def test_request_timeout(self, stalled_service, series, t):
        with pytest.raises(RequestTimeoutError):
            stalled_service.predict("demo", series, timeout=t(0.2))
        assert stalled_service.stats.snapshot()["by_status"]["timeout"] == 1


class TestValidationAndLifecycle:
    def test_unknown_model_rejected_synchronously(self, served_model, series):
        with make_service(served_model) as svc:
            with pytest.raises(UnknownModelError):
                svc.predict("nope", series)

    def test_malformed_series_rejected_synchronously(self, served_model):
        with make_service(served_model) as svc:
            for bad in ([[0.1, 0.2], [0.3]], "text", [0.1, np.nan, 0.2], []):
                with pytest.raises(PlanInputError):
                    svc.submit("demo", bad)

    def test_closed_service_rejects_new_requests(self, served_model, series):
        svc = make_service(served_model)
        svc.close()
        with pytest.raises(ServeError):
            svc.predict("demo", series)
        svc.close()  # idempotent

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            ServeOptions(max_batch=0)
        with pytest.raises(ValueError):
            ServeOptions(request_timeout_s=0)
        with pytest.raises(ValueError):
            ServeOptions(workers=-1)

    def test_plan_lru_eviction(self, served_model, series):
        other = PTPNC(2, rng=np.random.default_rng(9))
        with MicroBatchService(ServeOptions(plan_capacity=1)) as svc:
            svc.register("a", served_model)
            svc.register("b", other)  # warm compile evicts "a"
            assert svc.registry.evictions >= 1
            first = svc.predict("a", series)  # recompiles on miss
            again = svc.predict("a", series)  # now a hit
            assert first["prediction"] == again["prediction"]
            assert svc.registry.misses >= 2
            assert svc.registry.hits >= 1


class TestPredictMC:
    def test_mc_prediction_is_seeded_and_bounded(self, served_model, series):
        with make_service(served_model) as svc:
            one = svc.predict_mc("demo", series, draws=16, seed=3)
            two = svc.predict_mc("demo", series, draws=16, seed=3)
        assert one["class_votes"] == two["class_votes"]
        assert one["prediction"] == two["prediction"]
        assert sum(one["class_votes"]) == 16
        assert 1 / 16 <= one["confidence"] <= 1.0
        assert one["confidence"] == one["class_votes"][one["prediction"]] / 16

    def test_mc_restores_the_model_sampler(self, served_model, series):
        original = served_model.sampler
        with make_service(served_model) as svc:
            svc.predict_mc("demo", series, draws=4)
        assert served_model.sampler is original

    def test_mc_parameter_validation(self, served_model, series):
        with make_service(served_model) as svc:
            with pytest.raises(ValueError):
                svc.predict_mc("demo", series, draws=0)
            with pytest.raises(ValueError):
                svc.predict_mc("demo", series, spread=1.5)


class TestTelemetry:
    def test_serve_events_stream_into_the_run(self, served_model, series, tmp_path, t):
        with Run(dir=tmp_path / "run"):
            with make_service(served_model) as svc:
                svc.predict("demo", series)
                svc.predict_mc("demo", series, draws=4)
                svc.emit_stats()
        events = read_events(tmp_path / "run" / "events.jsonl")
        kinds = [e["kind"] for e in events]
        for expected in (
            "serve.start",
            "serve.plan_compile",
            "serve.batch",
            "serve.request",
            "serve.stats",
            "serve.end",
        ):
            assert expected in kinds, f"missing {expected} in {sorted(set(kinds))}"
        (end,) = [e for e in events if e["kind"] == "serve.end"]
        assert end["requests"] == 2
        assert end["by_status"] == {"ok": 2}
        batch = next(e for e in events if e["kind"] == "serve.batch")
        assert batch["model"] == "demo"
        assert batch["size"] == 1
        request = next(e for e in events if e["kind"] == "serve.request")
        assert request["exec_ms"] == pytest.approx(batch["exec_ms"])
        assert request["wait_ms"] == pytest.approx(batch["wait_ms"])
        assert request["wait_ms"] >= 0
        assert request["wait_ms"] + request["exec_ms"] <= request["latency_ms"]
        assert end["wait_ms"]["p50"] == pytest.approx(batch["wait_ms"])
        assert end["exec_ms"]["p99"] == pytest.approx(batch["exec_ms"])

    def test_report_renders_a_serving_section(self, served_model, series, tmp_path):
        from repro.report import render_run

        with Run(dir=tmp_path / "run"):
            with make_service(served_model) as svc:
                svc.predict("demo", series)
        text = render_run(tmp_path / "run")
        assert "## Serving" in text
        assert "micro-batching" in text
        assert "degradation: none" in text


class TestStatsUnit:
    def test_percentile_nearest_rank(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 51.0
        assert percentile(values, 100) == 100.0

    def test_snapshot_shape(self):
        stats = ServeStats()
        stats.record_request(0.010, status="ok")
        stats.record_request(0.020, status="ok")
        stats.record_request(0.0, status="queue_full")
        stats.record_batch(2, queue_depth=3, waits_s=[0.001, 0.003], exec_s=0.002)
        stats.record_stream_batch(1, steps=4, occupancy=1, waits_s=[0.005], exec_s=0.004)
        stats.record_worker_restart()
        stats.record_plan(hit=False)
        stats.record_plan(hit=True)
        snap = stats.snapshot()
        assert snap["requests"] == 3
        assert snap["by_status"] == {"ok": 2, "queue_full": 1}
        assert snap["latency_ms"]["p50"] == pytest.approx(10.0)
        assert snap["latency_ms"]["mean"] == pytest.approx(15.0)
        assert snap["mean_batch_size"] == 2.0
        assert snap["max_queue_depth"] == 3
        # Each request's parts: its own queue wait, its batch's compute.
        assert snap["wait_ms"] == pytest.approx({"p50": 3.0, "p99": 5.0})
        assert snap["exec_ms"] == pytest.approx({"p50": 2.0, "p99": 4.0})
        assert snap["worker_restarts"] == 1
        assert snap["plan_cache"] == {"hits": 1, "misses": 1, "evictions": 0}
