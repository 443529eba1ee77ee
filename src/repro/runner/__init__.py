"""Cached staged pipeline, solver registry, batch execution, campaign store.

The public names below are re-exported lazily (PEP 562): the first access
to, say, ``repro.runner.run_batch`` imports :mod:`repro.runner.batch`.  So
``import repro.runner.stages`` -- all that one ``repro run`` needs -- does
not also load the batch driver, the SQLite store and the fleet worker, nor
``sqlite3`` and the process-pool machinery they import.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "..constants": ("DEFAULT_HEARTBEAT_S", "DEFAULT_POLL_S", "DEFAULT_STALE_AFTER_S"),
        ".batch": (
            "BatchResult",
            "count_stage_flags",
            "execute_point",
            "run_batch",
            "sum_stage_times",
        ),
        ".cache": (
            "CacheStats",
            "StageCache",
            "content_digest",
            "default_cache_dir",
            "resolve_cache",
        ),
        ".store": (
            "PRIORITIES",
            "PRIORITY_BATCH",
            "PRIORITY_INTERACTIVE",
            "CampaignSummary",
            "ClaimedPoint",
            "PointRecord",
            "ResultStore",
            "default_store_path",
            "resolve_store",
        ),
        ".solvers": (
            "FallbackOutcome",
            "SolverEntry",
            "SolverOutcome",
            "WarmStart",
            "available_solvers",
            "get_solver_entry",
            "register_solver",
            "solve",
            "solve_with_fallback",
        ),
        ".result": ("ScenarioResult", "scenario_content_digest"),
        ".stages": ("PIPELINE_STAGES", "run_pipeline", "run_scenario"),
        ".worker": ("WorkerSummary", "run_worker"),
    },
)
