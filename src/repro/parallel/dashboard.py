"""Live terminal dashboard for sweep campaigns (``repro sweep --watch``).

The orchestrator already narrates a campaign through the ``sweep.*``
event stream in the run's ``events.jsonl`` (see
``docs/OBSERVABILITY.md``); this module turns that stream into a live
terminal view — no new telemetry, just a reader.  That split keeps the
dashboard *attachable*: it can watch a campaign owned by another
process (the usual case: ``repro sweep …`` in one terminal,
``repro sweep --watch`` in a second), replay a finished run's file, or
render one frame in CI.

:class:`SweepDashboard` is a pure fold over events — ``observe(event)``
updates counters, ``render()`` returns a frame string — so every column
is unit-testable without a TTY, a subprocess or a clock.
:func:`watch` adds the impure shell: tail-follow the file, repaint on
an interval, quit on ``q``/``Ctrl-C`` or when ``sweep.end`` arrives.

Columns and keys are documented in ``docs/CAMPAIGNS.md``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, TextIO, Union

__all__ = ["SweepDashboard", "watch"]

PathLike = Union[str, pathlib.Path]

#: Frame glyphs for the progress bar (filled / current / empty).
_BAR = ("█", "░")


class _Slot:
    """Render-state of one worker slot."""

    __slots__ = ("pid", "cell", "attempt", "done", "busy_since", "busy_s", "replaced")

    def __init__(self, pid: Optional[int]) -> None:
        self.pid = pid
        self.cell: Optional[str] = None
        self.attempt = 0
        self.done = 0
        self.busy_since: Optional[float] = None
        self.busy_s = 0.0
        self.replaced = 0


class SweepDashboard:
    """Fold ``sweep.*`` events into a renderable campaign snapshot.

    Feed events (decoded ``events.jsonl`` dicts) to :meth:`observe`
    in file order; :meth:`render` produces one text frame at any point.
    Unknown event kinds are ignored (the event schema is open), so the
    dashboard keeps working as new kinds appear.
    """

    def __init__(self) -> None:
        self.executor: Optional[str] = None
        self.fingerprint: Optional[str] = None
        self.store: Optional[str] = None
        self.n_cells = 0
        self.n_cached = 0
        self.max_workers = 1
        self.ok = 0
        self.failed = 0
        self.cached_seen = 0
        self.retries = 0
        self.timeouts = 0
        self.steals = 0
        self.restarts = 0
        self.done = False
        self.elapsed_s: Optional[float] = None
        self.started_wall: Optional[float] = None
        self._fresh_elapsed: List[float] = []
        self._slots: Dict[int, _Slot] = {}
        self._slot_by_pid: Dict[int, int] = {}
        self._slot_by_cell: Dict[str, int] = {}
        self.failures: List[str] = []

    # -- event fold --------------------------------------------------------

    def observe(self, event: Dict) -> None:
        """Fold one decoded event into the snapshot (unknown kinds: no-op)."""
        kind = event.get("kind")
        handler = getattr(self, f"_on_{str(kind).replace('.', '_')}", None)
        if handler is not None:
            handler(event)

    def _on_sweep_start(self, event: Dict) -> None:
        self.executor = event.get("executor")
        self.fingerprint = event.get("cache_fingerprint")
        self.store = event.get("store")
        self.n_cells = int(event.get("n_cells", 0))
        self.n_cached = int(event.get("n_cached", 0))
        self.max_workers = int(event.get("max_workers", 1) or 1)
        self.started_wall = event.get("wall")

    def _on_sweep_pool_start(self, event: Dict) -> None:
        for slot, pid in enumerate(event.get("pids", [])):
            self._slots[slot] = _Slot(pid)
            if pid is not None:
                self._slot_by_pid[int(pid)] = slot

    def _on_sweep_pool_steal(self, event: Dict) -> None:
        self.steals += 1

    def _on_sweep_pool_worker_replace(self, event: Dict) -> None:
        self.restarts += 1
        slot_id = event.get("slot")
        if slot_id is None:
            return
        slot = self._slots.setdefault(int(slot_id), _Slot(None))
        old_pid = event.get("old_pid")
        if old_pid is not None:
            self._slot_by_pid.pop(int(old_pid), None)
        slot.pid = event.get("new_pid")
        slot.replaced += 1
        slot.cell = None
        slot.busy_since = None
        if slot.pid is not None:
            self._slot_by_pid[int(slot.pid)] = int(slot_id)

    def _on_sweep_pool_end(self, event: Dict) -> None:
        busy_s = event.get("busy_s", event.get("occupancy")) or {}
        for slot_key, seconds in busy_s.items():
            slot_id = int(str(slot_key).replace("slot", "") or 0)
            if slot_id in self._slots:
                self._slots[slot_id].busy_s = float(seconds)
                self._slots[slot_id].busy_since = None

    def _on_sweep_cell_start(self, event: Dict) -> None:
        pid = event.get("worker_pid")
        cell = event.get("cell")
        slot_id = self._slot_by_pid.get(int(pid)) if pid is not None else None
        if slot_id is None and pid is not None:
            # Spawn-per-cell executor: treat each distinct pid as a slot.
            slot_id = len(self._slots)
            self._slots[slot_id] = _Slot(pid)
            self._slot_by_pid[int(pid)] = slot_id
        if slot_id is not None:
            slot = self._slots[slot_id]
            slot.cell = cell
            slot.attempt = int(event.get("attempt", 1))
            slot.busy_since = event.get("wall")
            if cell:
                self._slot_by_cell[cell] = slot_id

    def _on_sweep_cell_end(self, event: Dict) -> None:
        if event.get("cached"):
            self.cached_seen += 1
        elif event.get("status") == "ok":
            self.ok += 1
            self._fresh_elapsed.append(float(event.get("elapsed_s", 0.0)))
        else:
            self.failed += 1
            self.failures.append(str(event.get("cell")))
        cell = event.get("cell")
        slot_id = self._slot_by_cell.pop(cell, None) if cell else None
        if slot_id is not None:
            slot = self._slots[slot_id]
            slot.done += 1
            if slot.busy_since is not None and event.get("wall") is not None:
                slot.busy_s += max(0.0, float(event["wall"]) - float(slot.busy_since))
            slot.cell = None
            slot.busy_since = None

    def _on_sweep_retry(self, event: Dict) -> None:
        self.retries += 1

    def _on_sweep_timeout(self, event: Dict) -> None:
        self.timeouts += 1

    def _on_sweep_end(self, event: Dict) -> None:
        self.done = True
        self.elapsed_s = event.get("elapsed_s")
        self.ok = int(event.get("n_ok", self.ok))
        self.failed = int(event.get("n_failed", self.failed))
        for slot in self._slots.values():
            slot.cell = None
            slot.busy_since = None

    # -- derived quantities ------------------------------------------------

    @property
    def completed(self) -> int:
        """Cells with a terminal outcome so far (fresh + cached)."""
        return self.ok + self.failed + self.cached_seen

    def eta_s(self, now_wall: Optional[float] = None) -> Optional[float]:
        """Naive ETA: remaining cells × mean fresh cell time ÷ workers.

        ``None`` until at least one fresh cell has finished (no rate to
        extrapolate from) or once the campaign is done.
        """
        if self.done or not self._fresh_elapsed:
            return None
        remaining = max(0, self.n_cells - self.completed)
        if remaining == 0:
            return 0.0
        mean = sum(self._fresh_elapsed) / len(self._fresh_elapsed)
        return remaining * mean / max(1, self.max_workers)

    # -- rendering ---------------------------------------------------------

    def render(self, width: int = 80, now_wall: Optional[float] = None) -> str:
        """One text frame of the campaign (no ANSI codes, no clock reads).

        ``now_wall`` feeds the busy-duration column for in-flight cells;
        pass ``time.time()`` live, or a fixed value in tests.
        """
        width = max(40, width)
        lines: List[str] = []
        title = f"sweep · executor={self.executor or '?'}"
        if self.store:
            title += f" · store={self.store}"
        if self.fingerprint:
            title += f" · campaign {self.fingerprint}"
        lines.append(title[:width])

        bar_w = max(10, width - 30)
        frac = self.completed / self.n_cells if self.n_cells else 0.0
        filled = int(round(frac * bar_w))
        bar = _BAR[0] * filled + _BAR[1] * (bar_w - filled)
        lines.append(f"[{bar}] {self.completed}/{self.n_cells} ({frac:4.0%})")

        counters = (
            f"ok {self.ok} · failed {self.failed} · cached {self.cached_seen}"
            f" · retries {self.retries} · timeouts {self.timeouts}"
        )
        if self.steals or self.restarts or self.executor == "pool":
            counters += f" · steals {self.steals} · replaced {self.restarts}"
        lines.append(counters[:width])

        if self._slots:
            lines.append(f"{'slot':<6}{'pid':<9}{'state':<34}{'done':>5}{'busy s':>9}")
            for slot_id in sorted(self._slots):
                slot = self._slots[slot_id]
                busy = slot.busy_s
                if slot.busy_since is not None and now_wall is not None:
                    busy += max(0.0, now_wall - slot.busy_since)
                state = f"{slot.cell} (attempt {slot.attempt})" if slot.cell else "idle"
                marker = f"w{slot_id}" + ("*" * min(slot.replaced, 3))
                lines.append(
                    f"{marker:<6}{str(slot.pid or '-'):<9}{state[:33]:<34}"
                    f"{slot.done:>5}{busy:>9.2f}"
                )

        if self.done:
            tail = f"done in {self.elapsed_s:.2f}s" if self.elapsed_s else "done"
        else:
            eta = self.eta_s(now_wall)
            tail = f"eta ~{eta:.0f}s" if eta is not None else "eta —"
        if self.failures:
            tail += f" · failed: {', '.join(self.failures[:4])}"
            if len(self.failures) > 4:
                tail += f" (+{len(self.failures) - 4})"
        lines.append(tail[:width])
        return "\n".join(lines)


def _drain(handle: TextIO, dashboard: SweepDashboard) -> int:
    """Feed every complete new line of ``handle`` to the dashboard."""
    fed = 0
    while True:
        position = handle.tell()
        line = handle.readline()
        if not line:
            break
        if not line.endswith("\n"):
            handle.seek(position)  # partial write — wait for the rest
            break
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            dashboard.observe(event)
            fed += 1
    return fed


def watch(
    events_path: PathLike,
    interval_s: float = 0.5,
    once: bool = False,
    follow: bool = True,
    out: Optional[TextIO] = None,
    width: int = 80,
) -> SweepDashboard:
    """Render a live dashboard from an ``events.jsonl`` file.

    Tail-follows the file (the campaign may still be writing it),
    repainting every ``interval_s`` until ``sweep.end`` arrives, the
    user quits (``q`` or ``Ctrl-C``), or — with ``follow=False`` — the
    file is exhausted.  ``once=True`` renders exactly one frame from
    the file's current contents and returns (CI-friendly: no TTY, no
    loop).  Returns the final :class:`SweepDashboard` state.
    """
    out = out if out is not None else sys.stdout
    path = pathlib.Path(events_path)
    dashboard = SweepDashboard()
    interactive = (not once) and hasattr(out, "isatty") and out.isatty()

    with path.open("r", encoding="utf-8") as handle:
        lines_painted = 0
        try:
            while True:
                _drain(handle, dashboard)
                frame = dashboard.render(width=width, now_wall=time.time())
                if interactive and lines_painted:
                    out.write(f"\x1b[{lines_painted}F\x1b[J")  # repaint in place
                out.write(frame + "\n")
                out.flush()
                lines_painted = frame.count("\n") + 1
                if once or dashboard.done or not follow:
                    break
                if interactive:
                    if _quit_requested(interval_s):
                        break
                else:
                    time.sleep(interval_s)
        except KeyboardInterrupt:
            pass
    return dashboard


def _quit_requested(interval_s: float) -> bool:
    """Wait one repaint interval; True if the user pressed ``q``."""
    import select

    ready, _, _ = select.select([sys.stdin], [], [], interval_s)
    if ready:
        key = sys.stdin.read(1)
        return key.lower() == "q"
    return False
