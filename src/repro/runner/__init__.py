"""Cached staged pipeline, solver registry, batch execution, campaign store.

The public names below are re-exported lazily (PEP 562): the first access
to, say, ``repro.runner.run_batch`` imports :mod:`repro.runner.batch`.  So
``import repro.runner.stages`` -- all that one ``repro run`` needs -- does
not also load the batch driver, the SQLite store and the fleet worker, nor
``sqlite3`` and the process-pool machinery they import.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

#: Defining module of every public name, relative to this package.
_EXPORTS: Dict[str, str] = {
    name: module
    for module, names in {
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
        ".stages": (
            "PIPELINE_STAGES",
            "ScenarioResult",
            "run_pipeline",
            "run_scenario",
            "scenario_content_digest",
        ),
        ".worker": ("WorkerSummary", "run_worker"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
