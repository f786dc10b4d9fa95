"""The fleet's layer-major step: long ragged chunks, atomicity, structure.

:meth:`repro.core.MultiStreamSession.process_many` packs the called
rows' chunks into one time-major block and runs it layer by layer: one
:func:`~repro.compile.plan.row_scan` per RC stage from the rows' carried
state, then one :func:`~repro.compile.plan.row_affine` and one
:func:`~repro.compile.plan.row_ptanh` over all ``time·rows`` voltages.
This suite pins the three things that change with that shape:

* bit-equality to a lone :class:`repro.core.StreamingSession` still
  holds when the einsum sees thousands of rows (32 rows, chunks of up
  to 256 steps), across topologies, channel counts and precisions, and
  rows left out of a call keep their state bit for bit;
* every chunk is validated before any state changes, so one bad chunk
  leaves the whole fleet as it was;
* the kernels run once per layer per call, and the per-step
  ``row_stage`` stays the single-stream oracle's alone.
"""

import numpy as np
import pytest

from repro.compile import PlanInputError, compile_plan
from repro.compile import plan as plan_module
from repro.core import (
    AdaptPNC,
    MultiStreamSession,
    PTPNC,
    PrintedTemporalClassifier,
    StreamingSession,
)

CAPACITY = 32


def _series(rng, steps, channels):
    shape = (steps,) if channels == 1 else (steps, channels)
    return np.clip(np.cumsum(rng.normal(0.0, 0.3, shape), axis=0), -2.0, 2.0)


def _snapshot(fleet):
    """Every row's state matrices, steps and last logits, copied."""
    state = [[v.copy() for v in stages] for stages in fleet._state]
    rows = {}
    for r in np.flatnonzero(fleet._occupied).tolist():
        last = fleet.last_logits(r)
        rows[r] = (fleet.steps_seen(r), None if last is None else last.copy())
    return state, rows


def _assert_snapshot_equal(fleet, snapshot):
    state, rows = _snapshot(fleet)
    want_state, want_rows = snapshot
    for mine, theirs in zip(state, want_state):
        for v, w in zip(mine, theirs):
            assert np.array_equal(v, w)
    assert rows.keys() == want_rows.keys()
    for r, (n, last) in rows.items():
        assert n == want_rows[r][0]
        assert (last is None) == (want_rows[r][1] is None)
        if last is not None:
            assert np.array_equal(last, want_rows[r][1])


PLAN_NAMES = ["adapt3", "adapt6", "ptpnc", "two_channel", "adapt3_float32"]


@pytest.fixture(scope="module")
def plans():
    rng = np.random.default_rng
    return {
        "adapt3": compile_plan(AdaptPNC(3, rng=rng(0))),
        "adapt6": compile_plan(AdaptPNC(6, rng=rng(1))),
        "ptpnc": compile_plan(PTPNC(4, rng=rng(2))),
        "two_channel": compile_plan(
            PrintedTemporalClassifier(3, hidden_size=5, in_channels=2, rng=rng(3))
        ),
        "adapt3_float32": compile_plan(AdaptPNC(3, rng=rng(0)), precision="float32"),
    }


@pytest.mark.parametrize("name", PLAN_NAMES)
def test_long_ragged_chunks_bit_equal_lone_sessions(plans, name):
    """32 rows, chunks of 1-256 steps: thousands of einsum rows per call."""
    plan = plans[name]
    fleet = MultiStreamSession(plan, capacity=CAPACITY)
    rows = [fleet.open() for _ in range(CAPACITY)]
    oracles = {r: StreamingSession(plan) for r in rows}
    rng = np.random.default_rng(11)
    for rnd in range(3):
        # Round 0 sends the full 256 steps on row 0, so the flattened
        # block is at least 32 * 256 rows deep.
        lengths = rng.integers(1, 257, CAPACITY)
        if rnd == 0:
            lengths[0] = 256
        called = rows if rnd != 1 else rows[::3]
        chunks = {r: _series(rng, int(lengths[r]), plan.in_channels) for r in called}
        results = fleet.process_many(chunks)
        assert set(results) == set(called)
        for r in called:
            want = oracles[r].process(chunks[r])
            assert results[r].dtype == plan.dtype
            assert np.array_equal(results[r], want)
    for r in rows:
        assert fleet.steps_seen(r) == oracles[r].steps_seen
        assert np.array_equal(fleet.last_logits(r), oracles[r].last_logits)
        for li, stages in enumerate(fleet._state):
            for si, v in enumerate(stages):
                assert np.array_equal(v[r], oracles[r]._state[li][si][0])


def test_rows_left_out_keep_their_state_bit_for_bit(plans):
    plan = plans["adapt3"]
    fleet = MultiStreamSession(plan, capacity=CAPACITY)
    rows = [fleet.open() for _ in range(CAPACITY)]
    rng = np.random.default_rng(12)
    fleet.process_many({r: _series(rng, int(rng.integers(1, 40)), 1) for r in rows})
    idle = rows[1::2]
    before = {r: [[v[r].copy() for v in stages] for stages in fleet._state] for r in idle}
    idle_steps = {r: (fleet.steps_seen(r), fleet.last_logits(r).copy()) for r in idle}
    for _ in range(3):
        fleet.process_many({r: _series(rng, int(rng.integers(1, 200)), 1) for r in rows[::2]})
    for r in idle:
        for li, stages in enumerate(fleet._state):
            for si, v in enumerate(stages):
                assert np.array_equal(v[r], before[r][li][si])
        assert fleet.steps_seen(r) == idle_steps[r][0]
        assert np.array_equal(fleet.last_logits(r), idle_steps[r][1])


def test_free_rows_are_never_written(plans):
    plan = plans["adapt3"]
    fleet = MultiStreamSession(plan, capacity=4)
    row = fleet.open()
    for stages in fleet._state:
        for v in stages:
            v[row + 1:] = 7.0  # a free row holding a sentinel
    fleet.process(row, np.linspace(-1.0, 1.0, 50))
    for stages in fleet._state:
        for v in stages:
            assert np.all(v[row + 1:] == 7.0)


def _poison(kind):
    def nan(x):
        x = x.copy()
        x[len(x) // 2] = np.nan
        return x

    def inf(x):
        x = x.copy()
        x[-1] = -np.inf
        return x

    def shape(x):
        return np.stack([x, x], axis=1)  # two channels for a one-channel plan

    return {"nan": nan, "inf": inf, "shape": shape}[kind]


@pytest.mark.parametrize("kind", ["nan", "inf", "shape"])
@pytest.mark.parametrize("victim", [0, 13, 31])
def test_bad_chunk_changes_no_row(plans, kind, victim):
    plan = plans["adapt3"]
    fleet = MultiStreamSession(plan, capacity=CAPACITY)
    rows = [fleet.open() for _ in range(CAPACITY)]
    rng = np.random.default_rng(13)
    # Leave a few rows fresh (no logits yet) and step the rest.
    fleet.process_many({r: _series(rng, int(rng.integers(1, 30)), 1) for r in rows[3:]})
    snapshot = _snapshot(fleet)
    chunks = {r: _series(rng, int(rng.integers(2, 60)), 1) for r in rows}
    chunks[rows[victim]] = _poison(kind)(chunks[rows[victim]])
    with pytest.raises(PlanInputError):
        fleet.process_many(chunks)
    _assert_snapshot_equal(fleet, snapshot)
    # The fleet still steps normally afterwards.
    fleet.close(rows[0])
    fresh = fleet.open()
    x = _series(rng, 9, 1)
    assert np.array_equal(fleet.process(fresh, x), StreamingSession(plan).process(x))


def test_unknown_row_changes_no_row(plans):
    plan = plans["adapt3"]
    fleet = MultiStreamSession(plan, capacity=4)
    rows = [fleet.open() for _ in range(3)]
    fleet.process_many({r: np.linspace(0.0, 1.0, 5 + r) for r in rows})
    snapshot = _snapshot(fleet)
    with pytest.raises(KeyError):
        fleet.process_many({rows[0]: np.ones(4), 3: np.ones(4)})
    _assert_snapshot_equal(fleet, snapshot)


def test_kernels_run_once_per_layer_per_call(plans, monkeypatch):
    plan = plans["adapt6"]
    calls = {"affine": 0, "ptanh": 0, "scan": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def no_row_stage(*args, **kwargs):
        raise AssertionError("the fleet must not step with row_stage")

    monkeypatch.setattr(plan_module, "row_affine", counting("affine", plan_module.row_affine))
    monkeypatch.setattr(plan_module, "row_ptanh", counting("ptanh", plan_module.row_ptanh))
    monkeypatch.setattr(plan_module, "row_scan", counting("scan", plan_module.row_scan))
    monkeypatch.setattr(plan_module, "row_stage", no_row_stage)
    fleet = MultiStreamSession(plan, capacity=8)
    rows = [fleet.open() for _ in range(8)]
    rng = np.random.default_rng(14)
    stages = sum(len(layer.stages) for layer in plan.layers)
    for n_call in range(1, 4):
        fleet.process_many({r: _series(rng, int(rng.integers(1, 40)), 1) for r in rows})
        assert calls["affine"] == n_call * plan.num_layers
        assert calls["ptanh"] == n_call * plan.num_layers
        assert calls["scan"] == n_call * stages
