"""Fault-injection tests of the sweep orchestrator.

Every cell function must live at module level so worker processes can
pickle it (the parallel executor forks/spawns one process per cell).
The misbehaviours exercised here are the ones the orchestrator promises
to survive: raising cells, hanging cells past their timeout, workers
killed mid-cell, and duplicate/invalid inputs.
"""

import os
import pathlib
import signal
import time

import pytest

from repro import telemetry
from repro.parallel import (
    CellOutcome,
    SweepCell,
    SweepOptions,
    run_cells,
)


# -- module-level cell functions (picklable) ---------------------------------


def cell_square(i: int):
    return {"sq": i * i}


def cell_raise(i: int):
    raise RuntimeError(f"cell {i} always fails")


def cell_raise_odd(i: int):
    if i % 2:
        raise ValueError(f"odd cell {i}")
    return {"sq": i * i}


def cell_flaky(i: int, marker_dir: str):
    """Fail on the first attempt, succeed once the marker exists."""
    marker = pathlib.Path(marker_dir) / f"attempted-{i}"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError("first attempt fails")
    return {"sq": i * i}


def cell_hang(i: int):
    time.sleep(60.0)
    return {"sq": i * i}


def cell_kill_self(i: int):
    """Simulate a worker dying mid-cell (OOM-killer, preemption)."""
    os.kill(os.getpid(), signal.SIGKILL)
    return {"sq": i * i}  # pragma: no cover — never reached


def cell_kill_self_once(i: int, marker_dir: str):
    marker = pathlib.Path(marker_dir) / f"killed-{i}"
    if not marker.exists():
        marker.write_text("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"sq": i * i}


def cell_count_invocations(i: int, counter_dir: str):
    """Append one line per invocation so tests can count reruns."""
    with open(pathlib.Path(counter_dir) / "calls.log", "a") as fh:
        fh.write(f"{i}\n")
    return {"sq": i * i}


def cell_probe_persisted(i: int, cache_root: str):
    """Report how many cells were already on disk when this cell ran."""
    n = len(list(pathlib.Path(cache_root).glob("*/cells/*.json")))
    return {"sq": i * i, "persisted_before_me": n}


def _cells(n=3, extra_args=()):
    return [SweepCell(key=("t", str(i)), args=(i, *extra_args)) for i in range(n)]


def _invocations(counter_dir) -> int:
    path = pathlib.Path(counter_dir) / "calls.log"
    return len(path.read_text().splitlines()) if path.exists() else 0


EXECUTORS = ("serial", "parallel", "pool")


# -- happy path --------------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
def test_all_ok(executor):
    out = run_cells(cell_square, _cells(4), SweepOptions(executor=executor))
    assert list(out) == [("t", str(i)) for i in range(4)]
    for i in range(4):
        outcome = out[("t", str(i))]
        assert outcome.ok and outcome.value == {"sq": i * i}
        assert outcome.attempts == 1 and not outcome.cached
    assert all(outcome.ok for outcome in out.values())


def test_duplicate_keys_rejected():
    cells = [SweepCell(key=("a",), args=(0,)), SweepCell(key=("a",), args=(1,))]
    with pytest.raises(ValueError, match="duplicate"):
        run_cells(cell_square, cells)


def test_options_validation():
    with pytest.raises(ValueError):
        SweepOptions(executor="magic")
    with pytest.raises(ValueError):
        SweepOptions(max_workers=0)
    with pytest.raises(ValueError):
        SweepOptions(retries=-1)
    with pytest.raises(ValueError):
        SweepOptions(timeout_s=0.0)


# -- raising cells -----------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
def test_always_raising_cell_degrades(executor):
    options = SweepOptions(executor=executor, retries=2, backoff_s=0.0)
    out = run_cells(cell_raise, _cells(2), options)
    for key, outcome in out.items():
        assert not outcome.ok
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # 1 + retries
        assert "always fails" in outcome.error
    assert sum(not o.ok for o in out.values()) == 2
    assert sum(o.attempts for o in out.values()) == 6


@pytest.mark.parametrize("executor", EXECUTORS)
def test_partial_failure_keeps_good_cells(executor):
    options = SweepOptions(executor=executor, retries=0, backoff_s=0.0)
    out = run_cells(cell_raise_odd, _cells(4), options)
    assert [out[("t", str(i))].ok for i in range(4)] == [True, False, True, False]
    assert out[("t", "0")].value == {"sq": 0}
    assert out[("t", "2")].value == {"sq": 4}


@pytest.mark.parametrize("executor", EXECUTORS)
def test_flaky_cell_recovers_on_retry(executor, tmp_path):
    options = SweepOptions(executor=executor, retries=1, backoff_s=0.0)
    out = run_cells(cell_flaky, _cells(2, extra_args=(str(tmp_path),)), options)
    for i in range(2):
        outcome = out[("t", str(i))]
        assert outcome.ok and outcome.value == {"sq": i * i}
        assert outcome.attempts == 2


def test_retry_events_emitted(tmp_path):
    with telemetry.Run(dir=tmp_path / "run") as run:
        run_cells(
            cell_raise,
            _cells(1),
            SweepOptions(executor="serial", retries=2, backoff_s=0.0),
        )
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    retries = [e for e in events if e["kind"] == "sweep.retry"]
    assert [e["attempt"] for e in retries] == [1, 2]
    ends = [e for e in events if e["kind"] == "sweep.cell_end"]
    assert len(ends) == 1 and ends[0]["status"] == "failed" and ends[0]["attempts"] == 3
    sweep_end = [e for e in events if e["kind"] == "sweep.end"]
    assert sweep_end and sweep_end[0]["n_failed"] == 1


# -- timeouts ----------------------------------------------------------------


def _cell_start_pids(run_dir):
    """``{cell label: worker_pid}`` of every ``sweep.cell_start`` event."""
    events = telemetry.read_events(run_dir / "events.jsonl", kind="sweep.cell_start")
    return {e["cell"]: e["worker_pid"] for e in events}


@pytest.mark.parametrize("executor", ("parallel", "pool"))
def test_hanging_worker_times_out(executor, tmp_path):
    options = SweepOptions(
        executor=executor, max_workers=2, timeout_s=1.0, retries=0, backoff_s=0.0
    )
    t0 = time.perf_counter()
    with telemetry.Run(dir=tmp_path / "run"):
        out = run_cells(cell_hang, _cells(1), options)
    elapsed = time.perf_counter() - t0
    outcome = out[("t", "0")]
    assert not outcome.ok
    assert "timeout" in outcome.error
    # Far below the 60s the cell wanted to sleep: the kill was enforced.
    assert elapsed < 20.0
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    timeouts = [e for e in events if e["kind"] == "sweep.timeout"]
    assert len(timeouts) == 1 and timeouts[0]["timeout_s"] == 1.0
    # The process that ran (and overran) the cell, not its replacement.
    assert outcome.worker_pid == _cell_start_pids(tmp_path / "run")["t/0"]


@pytest.mark.parametrize("executor", ("parallel", "pool"))
def test_timeout_then_retry_counts_attempts(executor):
    options = SweepOptions(
        executor=executor, max_workers=1, timeout_s=0.8, retries=1, backoff_s=0.0
    )
    out = run_cells(cell_hang, _cells(1), options)
    outcome = out[("t", "0")]
    assert not outcome.ok and outcome.attempts == 2


# -- killed workers ----------------------------------------------------------


@pytest.mark.parametrize("executor", ("parallel", "pool"))
def test_killed_worker_degrades(executor, tmp_path):
    options = SweepOptions(executor=executor, max_workers=2, retries=0, backoff_s=0.0)
    with telemetry.Run(dir=tmp_path / "run"):
        out = run_cells(cell_kill_self, _cells(2), options)
    started_on = _cell_start_pids(tmp_path / "run")
    for outcome in out.values():
        assert not outcome.ok
        assert "died without result" in outcome.error
        # The process that ran (and died in) the cell, not its replacement.
        started = started_on["/".join(outcome.key)]
        assert started is not None and outcome.worker_pid == started


def test_killed_worker_retries_to_success(tmp_path):
    options = SweepOptions(executor="parallel", max_workers=2, retries=1, backoff_s=0.0)
    out = run_cells(
        cell_kill_self_once, _cells(2, extra_args=(str(tmp_path),)), options
    )
    for i in range(2):
        outcome = out[("t", str(i))]
        assert outcome.ok and outcome.value == {"sq": i * i}
        assert outcome.attempts == 2


# -- cache / resume ----------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
def test_cache_skips_completed_cells(executor, tmp_path):
    counter = tmp_path / "counts"
    counter.mkdir()
    options = SweepOptions(
        executor=executor, cache_dir=str(tmp_path / "cache"), backoff_s=0.0
    )
    cells = _cells(3, extra_args=(str(counter),))

    first = run_cells(cell_count_invocations, cells, options, fingerprint={"v": 1})
    assert all(o.ok and not o.cached for o in first.values())
    assert _invocations(counter) == 3

    second = run_cells(cell_count_invocations, cells, options, fingerprint={"v": 1})
    assert all(o.ok and o.cached and o.attempts == 0 for o in second.values())
    assert _invocations(counter) == 3  # nothing recomputed
    assert {o.value["sq"] for o in second.values()} == {0, 1, 4}


def test_cells_persist_incrementally_not_at_sweep_end(tmp_path):
    """Each ok cell hits the disk cache *as it completes*.

    This is what makes SIGKILL-at-any-point resumable: if stores were
    batched after the executor returned, an interrupted campaign would
    lose every finished cell.  The serial oracle runs cells in
    submission order, so cell ``i`` must observe exactly ``i``
    already-persisted cells.
    """
    cache_root = tmp_path / "cache"
    options = SweepOptions(executor="serial", cache_dir=str(cache_root))
    cells = _cells(3, extra_args=(str(cache_root),))

    out = run_cells(cell_probe_persisted, cells, options, fingerprint={"v": 1})
    assert [out[c.key].value["persisted_before_me"] for c in cells] == [0, 1, 2]


def test_cache_respects_fingerprint(tmp_path):
    counter = tmp_path / "counts"
    counter.mkdir()
    options = SweepOptions(executor="serial", cache_dir=str(tmp_path / "cache"))
    cells = _cells(2, extra_args=(str(counter),))

    run_cells(cell_count_invocations, cells, options, fingerprint={"config": "A"})
    run_cells(cell_count_invocations, cells, options, fingerprint={"config": "B"})
    # Different protocol -> different cache directory -> full recompute.
    assert _invocations(counter) == 4


def test_partial_cache_resume(tmp_path):
    """Only the cells missing from the cache are recomputed on resume."""
    counter = tmp_path / "counts"
    counter.mkdir()
    options = SweepOptions(executor="serial", cache_dir=str(tmp_path / "cache"))
    cells = _cells(4, extra_args=(str(counter),))

    run_cells(cell_count_invocations, cells[:2], options, fingerprint={"v": 1})
    assert _invocations(counter) == 2

    out = run_cells(cell_count_invocations, cells, options, fingerprint={"v": 1})
    assert _invocations(counter) == 4  # two cached + two fresh
    assert [out[c.key].cached for c in cells] == [True, True, False, False]
    assert all(o.ok for o in out.values())


def test_failed_cells_not_cached(tmp_path):
    options = SweepOptions(
        executor="serial", cache_dir=str(tmp_path / "cache"), retries=0
    )
    out = run_cells(cell_raise, _cells(1), options, fingerprint={"v": 1})
    assert not out[("t", "0")].ok
    # The failure must be retried on the next campaign, not served stale.
    again = run_cells(cell_raise, _cells(1), options, fingerprint={"v": 1})
    assert not again[("t", "0")].cached and again[("t", "0")].attempts == 1


# -- telemetry ---------------------------------------------------------------


def test_sweep_events_cover_lifecycle(tmp_path):
    with telemetry.Run(dir=tmp_path / "run"):
        run_cells(
            cell_square,
            _cells(2),
            SweepOptions(executor="parallel", max_workers=2),
        )
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    kinds = [e["kind"] for e in events]
    assert kinds.count("sweep.start") == 1
    assert kinds.count("sweep.cell_start") == 2
    assert kinds.count("sweep.cell_end") == 2
    assert kinds.count("sweep.end") == 1
    start = next(e for e in events if e["kind"] == "sweep.start")
    assert start["executor"] == "parallel" and start["n_cells"] == 2
    ends = [e for e in events if e["kind"] == "sweep.cell_end"]
    assert {e["cell"] for e in ends} == {"t/0", "t/1"}
    assert all(e["values"]["sq"] in (0, 1) for e in ends)


def test_outcome_dataclass_basics():
    ok = CellOutcome(key=("a",), status="ok", value={"x": 1})
    bad = CellOutcome(key=("b",), status="failed", error="boom")
    assert ok.ok and not bad.ok
    assert (bad.error, bad.attempts) == ("boom", 0)
