"""Dashboard tests: the pure event fold, rendering, ETA and watch().

``SweepDashboard`` is a pure fold — no clock, no TTY, no subprocess —
so every column is asserted from synthetic event sequences.  The
``watch()`` shell is exercised in its CI form (``once=True`` against a
finished run's ``events.jsonl``).
"""

import io
import json

import pytest

from repro import telemetry
from repro.parallel import SweepCell, SweepOptions, run_cells
from repro.parallel.dashboard import SweepDashboard, _drain, watch


def cell_square(i: int):
    return {"sq": i * i}


def _start(n_cells=4, executor="pool", **extra):
    event = {
        "kind": "sweep.start",
        "executor": executor,
        "n_cells": n_cells,
        "n_cached": 0,
        "max_workers": 2,
        "store": "sqlite",
        "cache_fingerprint": "deadbeef00000000",
        "wall": 1000.0,
    }
    event.update(extra)
    return event


def _cell_end(cell, status="ok", cached=False, elapsed_s=2.0, wall=1010.0):
    return {
        "kind": "sweep.cell_end",
        "cell": cell,
        "status": status,
        "cached": cached,
        "elapsed_s": elapsed_s,
        "wall": wall,
    }


# -- event fold --------------------------------------------------------------


def test_fold_counts_outcomes():
    dash = SweepDashboard()
    dash.observe(_start(n_cells=4))
    dash.observe(_cell_end("t/0"))
    dash.observe(_cell_end("t/1", status="failed", cached=False))
    dash.observe(_cell_end("t/2", cached=True))
    assert (dash.ok, dash.failed, dash.cached_seen) == (1, 1, 1)
    assert dash.completed == 3 and not dash.done
    assert dash.failures == ["t/1"]
    dash.observe({"kind": "sweep.end", "n_ok": 3, "n_failed": 1, "elapsed_s": 9.5})
    assert dash.done and dash.ok == 3 and dash.elapsed_s == 9.5


def test_unknown_kinds_are_ignored():
    dash = SweepDashboard()
    dash.observe({"kind": "sweep.some_future_event", "x": 1})
    dash.observe({"no_kind": True})
    assert dash.completed == 0


def test_pool_slots_track_pids_and_replacements():
    dash = SweepDashboard()
    dash.observe(_start())
    dash.observe({"kind": "sweep.pool.start", "pids": [100, 200]})
    dash.observe(
        {"kind": "sweep.cell_start", "cell": "t/0", "attempt": 1,
         "worker_pid": 200, "wall": 1001.0}
    )
    frame = dash.render(now_wall=1003.0)
    assert "t/0 (attempt 1)" in frame and "200" in frame

    dash.observe({"kind": "sweep.pool.steal", "thief_slot": 0, "victim_slot": 1})
    dash.observe(
        {"kind": "sweep.pool.worker_replace", "slot": 1, "old_pid": 200,
         "new_pid": 300, "reason": "died", "restarts": 1}
    )
    assert dash.steals == 1 and dash.restarts == 1
    # The replaced slot maps its new pid; the old pid is forgotten.
    dash.observe(
        {"kind": "sweep.cell_start", "cell": "t/1", "attempt": 2,
         "worker_pid": 300, "wall": 1004.0}
    )
    dash.observe(_cell_end("t/1", wall=1006.0))
    frame = dash.render(now_wall=1006.0)
    assert "w1*" in frame  # replacement marker
    assert "steals 1" in frame and "replaced 1" in frame


@pytest.mark.parametrize("field", ["busy_s", "occupancy"])
def test_pool_end_sets_slot_busy_seconds(field):
    """``busy_s`` (``occupancy`` in runs recorded before the rename)
    overwrites the folded per-slot busy time with the pool's own."""
    dash = SweepDashboard()
    dash.observe(_start())
    dash.observe({"kind": "sweep.pool.start", "pids": [100, 200]})
    dash.observe({"kind": "sweep.pool.end", field: {"slot0": 1.5, "slot1": 2.25}})
    frame = dash.render()
    assert "     1.50" in frame and "     2.25" in frame


def test_spawn_per_cell_pids_become_slots():
    """Without pool.start, each distinct worker pid gets its own row."""
    dash = SweepDashboard()
    dash.observe(_start(executor="parallel"))
    for pid, cell in ((111, "t/0"), (222, "t/1")):
        dash.observe(
            {"kind": "sweep.cell_start", "cell": cell, "attempt": 1,
             "worker_pid": pid, "wall": 1001.0}
        )
    frame = dash.render(now_wall=1002.0)
    assert "111" in frame and "222" in frame


# -- ETA ---------------------------------------------------------------------


def test_eta_needs_data_then_extrapolates():
    dash = SweepDashboard()
    dash.observe(_start(n_cells=4))
    assert dash.eta_s() is None  # no fresh cell yet — no rate
    dash.observe(_cell_end("t/0", elapsed_s=3.0))
    dash.observe(_cell_end("t/1", elapsed_s=5.0))
    # 2 remaining × mean 4s ÷ 2 workers = 4s.
    assert dash.eta_s() == 4.0
    dash.observe({"kind": "sweep.end", "n_ok": 4, "n_failed": 0})
    assert dash.eta_s() is None  # done — nothing to predict


# -- rendering ---------------------------------------------------------------


def test_render_progress_and_counters():
    dash = SweepDashboard()
    dash.observe(_start(n_cells=4))
    dash.observe(_cell_end("t/0"))
    dash.observe(_cell_end("t/1"))
    frame = dash.render(width=80)
    assert "executor=pool" in frame and "store=sqlite" in frame
    assert "campaign deadbeef00000000" in frame
    assert "2/4 ( 50%)" in frame
    assert "ok 2 · failed 0" in frame
    assert "█" in frame and "░" in frame


def test_render_lists_failures_with_overflow():
    dash = SweepDashboard()
    dash.observe(_start(n_cells=8))
    for i in range(6):
        dash.observe(_cell_end(f"t/{i}", status="failed"))
    frame = dash.render()
    assert "failed: t/0, t/1, t/2, t/3 (+2)" in frame


# -- tailing -----------------------------------------------------------------


def test_drain_waits_for_partial_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    dash = SweepDashboard()
    path.write_text(json.dumps(_start(n_cells=2)) + "\n" + '{"kind": "swe')
    with path.open() as handle:
        assert _drain(handle, dash) == 1  # partial trailing line not consumed
        # The writer finishes the line; the same handle picks it up.
        with path.open("a") as writer:
            writer.write('ep.cell_end", "cell": "t/0", "status": "ok"}\n')
        assert _drain(handle, dash) == 1
    assert dash.ok == 1


def test_watch_once_renders_real_campaign(tmp_path):
    cells = [SweepCell(key=("t", str(i)), args=(i,)) for i in range(3)]
    with telemetry.Run(dir=tmp_path / "run"):
        run_cells(cell_square, cells, SweepOptions(executor="serial"))
    out = io.StringIO()
    dash = watch(tmp_path / "run" / "events.jsonl", once=True, out=out)
    assert dash.done and dash.ok == 3 and dash.failed == 0
    frame = out.getvalue()
    assert "3/3 (100%)" in frame and "done in" in frame


def test_watch_follow_false_stops_at_eof(tmp_path):
    """A finished file without sweep.end still terminates (no tail loop)."""
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps(_start(n_cells=2)) + "\n" + json.dumps(_cell_end("t/0")) + "\n"
    )
    out = io.StringIO()
    dash = watch(path, once=False, follow=False, out=out)
    assert not dash.done and dash.ok == 1
    assert "1/2" in out.getvalue()
