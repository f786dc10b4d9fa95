"""Shared utilities: tables, timing, checkpointing."""

from .tables import render_table
from .timing import MCCounters, Stopwatch, mc_counters, time_callable

__all__ = [
    "render_table",
    "Stopwatch",
    "time_callable",
    "MCCounters",
    "mc_counters",
]
