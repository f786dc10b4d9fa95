"""Streaming inference equivalence, plan regression and online evaluation."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.circuits import filter_stages
from repro.compile import compile_plan
from repro.core import (
    AdaptPNC,
    PTPNC,
    StreamingClassifier,
    StreamingSession,
    evaluate_streaming,
)
from repro.data import drift_stream, inject_bursts


@pytest.fixture
def series(rng):
    return np.clip(np.cumsum(rng.normal(0, 0.2, 32)), -1, 1)


class TestEquivalence:
    @pytest.mark.parametrize("cls", [PTPNC, AdaptPNC])
    def test_streaming_matches_batched_forward(self, cls, series):
        """The stateful stream must equal the batched sequence forward."""
        model = cls(3, rng=np.random.default_rng(0))
        stream = StreamingClassifier(model)
        streamed = stream.run(series)
        with no_grad():
            batched = model(series.reshape(1, -1)).data[0]
        assert np.allclose(streamed[-1], batched, atol=1e-12)

    def test_full_trajectory_matches(self, series):
        from repro.autograd import Tensor

        model = PTPNC(2, rng=np.random.default_rng(1))
        stream = StreamingClassifier(model)
        streamed = stream.run(series)
        with no_grad():
            seq = model.blocks[0](Tensor(series.reshape(1, -1, 1)))
            seq = model.blocks[1](seq).data[0] * model.logit_scale
        assert np.allclose(streamed, seq, atol=1e-12)


class TestState:
    def test_push_counts_steps(self, series, rng):
        stream = StreamingClassifier(AdaptPNC(2, rng=rng))
        for sample in series[:5]:
            stream.push(float(sample))
        assert stream.steps_seen == 5

    def test_reset_restores_initial_behaviour(self, series, rng):
        stream = StreamingClassifier(AdaptPNC(2, rng=rng))
        first = stream.run(series)
        stream.reset()
        assert stream.steps_seen == 0
        second = stream.run(series)
        assert np.array_equal(first, second)

    def test_state_carries_between_pushes(self, rng):
        stream = StreamingClassifier(PTPNC(2, rng=rng))
        a = stream.push(0.5)
        b = stream.push(0.5)  # same input, different state
        assert not np.allclose(a, b)

    def test_push_rejects_arrays(self, rng):
        stream = StreamingClassifier(PTPNC(2, rng=rng))
        with pytest.raises(ValueError):
            stream.push(np.array([0.1, 0.2]))

    def test_run_rejects_2d(self, rng):
        stream = StreamingClassifier(PTPNC(2, rng=rng))
        with pytest.raises(ValueError):
            stream.run(np.zeros((2, 5)))


class TestPlanRegression:
    """Streaming and ``compile.plan`` share ONE coefficient-resolution
    path (``filter_stages`` + ``nominal_coefficients``) — these tests
    pin the two together so they can never drift apart again."""

    @pytest.mark.parametrize("cls", [PTPNC, AdaptPNC])
    def test_session_coefficients_bit_equal_nominal(self, cls):
        """Every frozen (a, b) pair in the session's plan is bitwise the
        live filter bank's nominal coefficients."""
        model = cls(3, rng=np.random.default_rng(5))
        session = StreamingSession(model)
        assert len(session.plan.layers) == len(model.blocks)
        for layer, block in zip(session.plan.layers, model.blocks):
            stages = filter_stages(block.filters)
            assert len(layer.stages) == len(stages)
            for (a, b), stage in zip(layer.stages, stages):
                na, nb = stage.nominal_coefficients(block.filters.dt)
                assert np.array_equal(a, na)
                assert np.array_equal(b, nb)

    def test_session_from_plan_equals_session_from_model(self, series):
        """Compiling inside the session vs handing it a pre-compiled
        plan is bitwise the same trajectory."""
        model = AdaptPNC(3, rng=np.random.default_rng(6))
        plan = compile_plan(model)
        from_model = StreamingSession(model).process(series)
        from_plan = StreamingSession(plan).process(series)
        assert np.array_equal(from_model, from_plan)

    def test_streaming_logits_agree_with_plan_forward(self, series):
        """Final streamed logits agree with the batched plan forward to
        accumulation tolerance (BLAS row-count kernels prevent bitwise)
        and always pick the same class."""
        model = AdaptPNC(3, rng=np.random.default_rng(6))
        plan = compile_plan(model)
        streamed = StreamingSession(plan).process(series)[-1]
        batched = plan.forward(series[None])[0]
        assert np.allclose(streamed, batched, atol=1e-12, rtol=0)
        assert int(np.argmax(streamed)) == int(np.argmax(batched))

    def test_session_rejects_non_model_source(self):
        with pytest.raises(TypeError):
            StreamingSession(object())

    def test_predict_before_processing_raises(self):
        session = StreamingSession(PTPNC(2, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError):
            session.predict()


class TestEvaluateStreaming:
    @pytest.fixture(scope="class")
    def model(self):
        return AdaptPNC(3, rng=np.random.default_rng(2))

    @pytest.fixture(scope="class")
    def stream(self):
        return drift_stream("Slope", segments=3, windows_per_segment=2, seed=1)

    def test_result_shape_and_sanity(self, model, stream):
        result = evaluate_streaming(model, stream, chunk_size=32)
        assert result.steps == stream.steps
        assert result.scenario == stream.name
        assert 0.0 <= result.accuracy <= 1.0
        assert result.accuracy_curve.shape == (stream.steps,)
        assert np.all((result.accuracy_curve >= 0) & (result.accuracy_curve <= 1))
        assert len(result.segment_accuracy) == len(stream.changepoints) + 1
        assert result.changepoint_curve is not None
        assert result.changepoint_curve.shape == (sum(result.changepoint_halo),)
        assert result.pre_change_accuracy is not None
        assert result.burst_accuracy is None  # drift stream has no bursts

    def test_result_is_chunking_invariant(self, model, stream):
        fine = evaluate_streaming(model, stream, chunk_size=1)
        coarse = evaluate_streaming(model, stream, chunk_size=stream.steps)
        assert np.array_equal(fine.predictions, coarse.predictions)
        assert fine.accuracy == coarse.accuracy

    def test_burst_split_reported(self, model, stream):
        corrupted = inject_bursts(stream, "dropout", rate=0.1, seed=3)
        result = evaluate_streaming(model, corrupted, chunk_size=64)
        assert result.burst_accuracy is not None
        assert result.clean_accuracy is not None

    def test_to_record_is_json_serialisable(self, model, stream):
        import json

        record = evaluate_streaming(model, stream, chunk_size=64).to_record()
        loaded = json.loads(json.dumps(record))
        assert loaded["steps"] == stream.steps
        assert len(loaded["accuracy_curve"]) == stream.steps

    def test_emits_stream_telemetry(self, model, stream, tmp_path):
        from repro import telemetry
        from repro.telemetry import read_events

        with telemetry.Run(root=tmp_path, name="stream-test") as run:
            evaluate_streaming(model, stream, chunk_size=128)
        events = read_events(run.dir / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds.count("stream.start") == 1
        assert kinds.count("stream.end") == 1
        n_chunks = -(-stream.steps // 128)  # ceil division
        assert kinds.count("stream.chunk") == n_chunks
        end = next(e for e in events if e["kind"] == "stream.end")
        assert end["scenario"] == stream.name
        assert 0.0 <= end["accuracy"] <= 1.0

    def test_rejects_bad_chunk_size(self, model, stream):
        with pytest.raises(ValueError):
            evaluate_streaming(model, stream, chunk_size=0)

    def test_rejects_label_mismatch(self, model, stream):
        class Broken:
            name = dataset = "broken"
            x = stream.x
            labels = stream.labels[:-3]
            changepoints = ()
            burst_mask = np.zeros(stream.steps, dtype=bool)

        with pytest.raises(ValueError, match="labels"):
            evaluate_streaming(model, Broken())


class TestLatency:
    def test_latency_within_bounds(self, series, rng):
        stream = StreamingClassifier(AdaptPNC(2, rng=rng))
        latency = stream.decision_latency(series)
        assert 0 <= latency < series.size

    def test_constant_strong_input_settles_quickly(self, rng):
        model = PTPNC(2, rng=np.random.default_rng(0))
        stream = StreamingClassifier(model)
        series = np.full(64, 0.9)
        latency = stream.decision_latency(series)
        assert latency < 32  # settles within the first half


class TestSnapshotRestore:
    """state_dict / save_state / load_state round-trips are bit-exact."""

    @pytest.fixture
    def plan(self):
        return compile_plan(AdaptPNC(3, rng=np.random.default_rng(0)))

    def test_dict_round_trip_resumes_bit_equal(self, plan, series):
        full = StreamingSession(plan)
        whole = full.process(series)

        first = StreamingSession(plan)
        head = first.process(series[:13])
        snap = first.state_dict()

        second = StreamingSession(plan)
        second.load_state(snap)
        tail = second.process(series[13:])
        assert np.array_equal(np.concatenate([head, tail], axis=0), whole)
        assert second.steps_seen == series.size
        assert np.array_equal(second.last_logits, full.last_logits)

    def test_npz_round_trip(self, plan, series, tmp_path):
        path = tmp_path / "stream.npz"
        first = StreamingSession(plan)
        head = first.process(series[:9])
        first.save_state(path)

        second = StreamingSession(plan)
        second.load_state(path)
        assert np.array_equal(second.process(series[9:]),
                              StreamingSession(plan).process(series)[9:])
        assert np.array_equal(second.last_logits,
                              StreamingSession(plan).process(series)[-1])
        assert head.shape == (9, plan.n_classes)

    def test_snapshot_is_a_copy(self, plan, series):
        session = StreamingSession(plan)
        session.process(series[:5])
        snap = session.state_dict()
        before = session.process(series[5:10])
        for key, value in snap.items():
            if key.startswith("state_"):
                value.fill(1e9)  # must not touch the live session
        session.reset()
        session.load_state({k: v for k, v in session.state_dict().items()})
        fresh = StreamingSession(plan)
        fresh.process(series[:5])
        assert np.array_equal(before, fresh.process(series[5:10]))

    def test_fresh_snapshot_has_no_logits(self, plan):
        snap = StreamingSession(plan).state_dict()
        assert "last_logits" not in snap
        assert int(snap["steps_seen"]) == 0

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda d: d.update(format=np.array("bogus-v0")), "format"),
            (lambda d: d.update(model_class=np.array("Other")), "model"),
            (lambda d: d.update(dtype=np.array("float16")), "dtype"),
            (lambda d: d.pop("state_0_0"), "missing"),
            (
                lambda d: d.update(state_0_0=np.zeros((1, 99))),
                "shape",
            ),
        ],
    )
    def test_invalid_snapshots_rejected(self, plan, series, corrupt, match):
        session = StreamingSession(plan)
        session.process(series[:7])
        snap = session.state_dict()
        corrupt(snap)
        victim = StreamingSession(plan)
        victim.process(series[:3])
        expected_state = victim.state_dict()
        with pytest.raises(ValueError, match=match):
            victim.load_state(snap)
        # a failed load leaves the session untouched
        after = victim.state_dict()
        for key, value in expected_state.items():
            assert np.array_equal(after[key], value)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda d: d.update(last_logits=np.zeros(7)), "last_logits has shape"),
            (lambda d: d.update(last_logits=np.zeros((1, 3))), "last_logits has shape"),
            (
                lambda d: d.update(last_logits=np.array([0.0, np.nan, 0.0])),
                "last_logits has non-finite",
            ),
            (lambda d: d.pop("last_logits"), "no last_logits"),
            (lambda d: d.update(steps_seen=np.array(-1)), "non-negative integer"),
            (lambda d: d.update(steps_seen=np.array(6.5)), "non-negative integer"),
            (lambda d: d["state_0_0"].fill(np.nan), "state_0_0 has non-finite"),
            (lambda d: d["state_1_1"].fill(np.inf), "state_1_1 has non-finite"),
        ],
    )
    def test_corrupt_snapshot_values_rejected(self, plan, series, corrupt, match):
        """Well-formed keys with corrupt values must not load either."""
        session = StreamingSession(plan)
        session.process(series[:7])
        snap = session.state_dict()
        corrupt(snap)
        victim = StreamingSession(plan)
        victim.process(series[:3])
        expected_state = victim.state_dict()
        with pytest.raises(ValueError, match=match):
            victim.load_state(snap)
        after = victim.state_dict()
        assert after.keys() == expected_state.keys()
        for key, value in expected_state.items():
            assert np.array_equal(after[key], value)
        assert np.array_equal(
            victim.process(series[3:9]), StreamingSession(plan).process(series[:9])[3:]
        )

    def test_logits_without_steps_rejected(self, plan, series):
        session = StreamingSession(plan)
        session.process(series[:4])
        snap = session.state_dict()
        snap["steps_seen"] = np.array(0)
        with pytest.raises(ValueError, match="steps_seen=0 but a last_logits"):
            StreamingSession(plan).load_state(snap)

    def test_bad_source_type(self, plan):
        with pytest.raises(TypeError, match="state_dict mapping or an npz"):
            StreamingSession(plan).load_state(42)
