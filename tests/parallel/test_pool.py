"""Pool-executor tests: bit-equality, work-stealing, kill+replace.

The pooled executor only decides *where* a cell runs; cells are pure
functions of their args, so its results must be bit-identical to the
serial oracle — asserted here over both the outcome table and the
order-normalised ``sweep.cell_end`` event payloads.  The fault-handling
tests exercise the pool-specific machinery: a SIGKILLed worker is
replaced (not merely lost), replacements are bounded by
``SweepOptions.pool_restarts``, and a broken pool still tears down its
global state (gauge registration, campaign store).
"""

import os
import pathlib
import signal
import time

import pytest

from repro import telemetry
from repro.parallel import (
    POOL_GAUGE,
    PoolBrokenError,
    SweepCell,
    SweepOptions,
    run_cells,
)
from repro.parallel.pool import shard_cells


# -- module-level cell functions (picklable) ---------------------------------


def cell_value(i: int):
    """Deterministic multi-field payload (exercises payload equality)."""
    return {"sq": i * i, "i": i, "acc": 0.5 + i / 100.0}


def cell_slow_low(i: int):
    """First shard slow, second fast — forces the stealing path."""
    if i < 3:
        time.sleep(0.25)
    return {"sq": i * i}


def cell_emit(i: int):
    """Emit one custom event so event-forwarding can be asserted."""
    telemetry.emit("custom.ping", i=i)
    return {"sq": i * i}


def cell_kill_self(i: int):
    os.kill(os.getpid(), signal.SIGKILL)
    return {"sq": i * i}  # pragma: no cover — never reached


def cell_kill_self_once(i: int, marker_dir: str):
    marker = pathlib.Path(marker_dir) / f"killed-{i}"
    if not marker.exists():
        marker.write_text("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"sq": i * i}


def _cells(n, extra_args=()):
    return [SweepCell(key=("t", str(i)), args=(i, *extra_args)) for i in range(n)]


def _cell_end_payloads(events):
    """sweep.cell_end payloads normalised for scheduling-order comparison.

    Keeps only the scheduling-independent fields (cell identity, status
    and the cell's value dict), sorted by cell — wall-clock, pids and
    emission order legitimately differ between executors.
    """
    ends = [e for e in events if e["kind"] == "sweep.cell_end"]
    return sorted(
        (
            {"cell": e["cell"], "status": e["status"], "values": e["values"]}
            for e in ends
        ),
        key=lambda payload: payload["cell"],
    )


# -- sharding ----------------------------------------------------------------


def test_shard_cells_contiguous_blocks():
    shards = shard_cells(list(range(7)), 3)
    assert [list(s) for s in shards] == [[0, 1, 2], [3, 4], [5, 6]]


def test_shard_cells_more_shards_than_cells():
    shards = shard_cells([1, 2], 4)
    assert [list(s) for s in shards] == [[1], [2], [], []]
    assert sum(len(s) for s in shard_cells([], 3)) == 0


# -- bit-equality vs the serial oracle ---------------------------------------


def test_pool_bit_equal_to_serial(tmp_path):
    cells = _cells(8)
    with telemetry.Run(dir=tmp_path / "serial"):
        serial = run_cells(cell_value, cells, SweepOptions(executor="serial"))
    with telemetry.Run(dir=tmp_path / "pool"):
        pooled = run_cells(
            cell_value, cells, SweepOptions(executor="pool", max_workers=3)
        )

    # Result tables: same keys in submission order, identical values.
    assert list(serial) == list(pooled)
    for key in serial:
        assert serial[key].value == pooled[key].value
        assert serial[key].status == pooled[key].status

    # Event payloads, order-normalised: identical cell/status/values.
    serial_events = telemetry.read_events(tmp_path / "serial" / "events.jsonl")
    pool_events = telemetry.read_events(tmp_path / "pool" / "events.jsonl")
    assert _cell_end_payloads(serial_events) == _cell_end_payloads(pool_events)


def test_pool_work_stealing_stays_bit_equal(tmp_path):
    """Heterogeneous shard costs trigger steals without changing results."""
    cells = _cells(6)
    serial = run_cells(cell_slow_low, cells, SweepOptions(executor="serial"))
    with telemetry.Run(dir=tmp_path / "run"):
        pooled = run_cells(
            cell_slow_low, cells, SweepOptions(executor="pool", max_workers=2)
        )
    for key in serial:
        assert pooled[key].ok and pooled[key].value == serial[key].value

    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    steals = [e for e in events if e["kind"] == "sweep.pool.steal"]
    # Worker 1's fast shard drains first; it must steal from shard 0.
    assert steals, "expected at least one sweep.pool.steal event"
    assert all(e["victim_slot"] != e["thief_slot"] for e in steals)


# -- pool lifecycle telemetry ------------------------------------------------


def test_pool_lifecycle_events(tmp_path):
    with telemetry.Run(dir=tmp_path / "run"):
        run_cells(cell_value, _cells(5), SweepOptions(executor="pool", max_workers=2))
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    starts = [e for e in events if e["kind"] == "sweep.pool.start"]
    ends = [e for e in events if e["kind"] == "sweep.pool.end"]
    assert len(starts) == 1 and len(ends) == 1
    assert starts[0]["n_workers"] == 2
    assert starts[0]["shard_sizes"] == [3, 2]
    assert len(starts[0]["pids"]) == 2
    assert ends[0]["restarts"] == 0
    assert sum(ends[0]["cells_per_slot"].values()) == 5
    assert set(ends[0]["busy_s"]) == {"slot0", "slot1"}
    assert all(seconds >= 0.0 for seconds in ends[0]["busy_s"].values())
    start = next(e for e in events if e["kind"] == "sweep.start")
    assert start["executor"] == "pool" and start["max_workers"] == 2


def test_pool_forwards_worker_events(tmp_path):
    with telemetry.Run(dir=tmp_path / "run"):
        run_cells(cell_emit, _cells(3), SweepOptions(executor="pool", max_workers=2))
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    pings = [e for e in events if e["kind"] == "sweep.worker"
             and e.get("worker_kind") == "custom.ping"]
    assert {p["fields"]["i"] for p in pings} == {0, 1, 2}


def test_pool_gauge_unregistered_after_campaign():
    run_cells(cell_value, _cells(2), SweepOptions(executor="pool", max_workers=2))
    assert POOL_GAUGE not in telemetry.gauges.names()


# -- kill + replace ----------------------------------------------------------


def test_pool_survives_sigkilled_worker(tmp_path):
    options = SweepOptions(
        executor="pool", max_workers=2, retries=1, backoff_s=0.0, pool_restarts=4
    )
    with telemetry.Run(dir=tmp_path / "run"):
        out = run_cells(
            cell_kill_self_once, _cells(2, extra_args=(str(tmp_path),)), options
        )
    for i in range(2):
        outcome = out[("t", str(i))]
        assert outcome.ok and outcome.value == {"sq": i * i}
        assert outcome.attempts == 2
    events = telemetry.read_events(tmp_path / "run" / "events.jsonl")
    replaces = [e for e in events if e["kind"] == "sweep.pool.worker_replace"]
    assert replaces, "worker death must be answered with a replacement"
    assert all(e["new_pid"] != e["old_pid"] for e in replaces)
    ends = [e for e in events if e["kind"] == "sweep.pool.end"]
    assert ends[0]["restarts"] == len(replaces)


def test_pool_restart_budget_raises_broken():
    options = SweepOptions(
        executor="pool", max_workers=1, retries=0, backoff_s=0.0, pool_restarts=0
    )
    with pytest.raises(PoolBrokenError, match="restart budget"):
        run_cells(cell_kill_self, _cells(2), options)


def test_broken_pool_closes_store_and_gauge(tmp_path, monkeypatch):
    """Regression: PoolBrokenError mid-campaign leaves no global state.

    The storage handle is closed (the try/finally in ``run_cells``) and
    the pool gauge is unregistered even though the campaign aborted.
    """
    from repro.parallel import orchestrator as orch_module
    from repro.parallel import store as store_module

    captured = {}
    real_open = store_module.open_storage

    def capturing_open(root, protocol, backend="files"):
        storage = real_open(root, protocol, backend)
        captured["store"] = storage
        return storage

    monkeypatch.setattr(orch_module, "open_storage", capturing_open)
    options = SweepOptions(
        executor="pool",
        max_workers=1,
        retries=0,
        backoff_s=0.0,
        pool_restarts=0,
        cache_dir=str(tmp_path / "cache"),
        store="sqlite",
    )
    with pytest.raises(PoolBrokenError):
        run_cells(cell_kill_self, _cells(2), options, fingerprint={"v": 1})
    assert captured["store"].closed
    assert POOL_GAUGE not in telemetry.gauges.names()


# -- resume through the pool -------------------------------------------------


@pytest.mark.parametrize("store", ("files", "sqlite"))
def test_pool_resume_skips_cached_cells(tmp_path, store):
    options = SweepOptions(
        executor="pool",
        max_workers=2,
        cache_dir=str(tmp_path / "cache"),
        store=store,
        backoff_s=0.0,
    )
    cells = _cells(4)
    first = run_cells(cell_value, cells, options, fingerprint={"v": 1})
    assert all(o.ok and not o.cached for o in first.values())

    second = run_cells(cell_value, cells, options, fingerprint={"v": 1})
    assert all(o.ok and o.cached and o.attempts == 0 for o in second.values())
    for key in first:
        assert second[key].value == first[key].value
