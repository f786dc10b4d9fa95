"""Sharded parallel experiment sweeps with a bit-equal serial oracle.

The experiment harness's table/figure grids (``dataset × model ×
seed``) are embarrassingly parallel: every cell derives its randomness
from its own coordinates through independent ``SeedSequence``-spawned
streams, so cells can execute in any order, on any worker process, and
produce bit-identical values.  This package provides:

* :func:`run_cells` — the orchestrator: ``"serial"`` oracle,
  ``"parallel"`` spawn-per-cell execution, or ``"pool"`` persistent
  work-stealing workers — all with per-task timeouts, bounded
  retry-with-backoff and graceful degradation;
* :class:`SweepOptions` / :class:`SweepCell` / :class:`CellOutcome` —
  the policy/work/result triple;
* :class:`SweepCache` / :class:`CampaignStore` — the two campaign
  storage backends behind one interface (:func:`open_storage`):
  fingerprint-keyed JSON files, or one queryable SQLite database per
  cache root (``python -m repro query``);
* :class:`SweepDashboard` — the live terminal view behind
  ``python -m repro sweep --watch`` (see ``docs/CAMPAIGNS.md``);
* ``sweep.*`` telemetry events streamed into the active
  :class:`repro.telemetry.Run` (see ``docs/OBSERVABILITY.md``).

Entry points: ``repro.core.run_table1`` / ``run_fig7_ablation`` accept
``executor=``/``sweep=`` and the ``python -m repro sweep`` CLI drives a
whole campaign (see ``EXPERIMENTS.md`` and ``docs/CAMPAIGNS.md``).
"""

from .cache import CACHE_VERSION, SweepCache, sweep_fingerprint
from .dashboard import SweepDashboard, watch
from .orchestrator import (
    EXECUTORS,
    CellOutcome,
    SweepCell,
    SweepOptions,
    run_cells,
)
from .pool import POOL_GAUGE, PoolBrokenError
from .store import (
    EXAMPLE_QUERIES,
    STORE_BACKENDS,
    CampaignStore,
    campaign_db_path,
    open_storage,
    run_query,
)
from .worker import WorkerTelemetry, reset_inherited_telemetry

__all__ = [
    "CACHE_VERSION",
    "EXAMPLE_QUERIES",
    "EXECUTORS",
    "POOL_GAUGE",
    "STORE_BACKENDS",
    "CampaignStore",
    "CellOutcome",
    "PoolBrokenError",
    "SweepCache",
    "SweepCell",
    "SweepDashboard",
    "SweepOptions",
    "WorkerTelemetry",
    "campaign_db_path",
    "open_storage",
    "reset_inherited_telemetry",
    "run_cells",
    "run_query",
    "sweep_fingerprint",
    "watch",
]
