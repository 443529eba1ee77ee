"""``repro.telemetry``: stdlib-only spans, metrics, and trace aggregation.

The observability layer of the pipeline, in four pieces:

* :mod:`~repro.telemetry.trace` -- a contextvar-based tracer.  ``with
  span("solar", **attrs):`` instruments the pipeline stages, cache and
  store operations, and solver inner loops; events land as JSONL with
  monotonic timestamps, parent ids and process ids.  Disabled by default
  with near-zero overhead; enabled via ``REPRO_TRACE=<path>`` or the
  CLI's ``--trace``.  Worker processes write per-process shards which
  :func:`merge_trace` folds into one ordered timeline.
* :mod:`~repro.telemetry.metrics` -- counters/distribution rollups
  (p50/p90/p99) persisted into the campaign store's ``metrics`` table.
* :mod:`~repro.telemetry.summary` -- ``repro trace summary`` timing trees
  and ``chrome://tracing`` export.
* :mod:`~repro.telemetry.log` -- the CLI's logging-based output emitter
  honouring ``REPRO_LOG_LEVEL``.

Nothing here imports beyond the standard library, and nothing else in
:mod:`repro` is allowed to depend on telemetry *state*: every call site
works identically (minus the trace) when tracing is disabled.
"""

from __future__ import annotations

from .log import (
    CLI_LOGGER_NAME,
    LOG_LEVEL_ENV,
    configure_cli_logging,
    emit_diagnostic,
    emit_err,
    emit_error,
    emit_out,
    resolve_level,
)
from .metrics import MetricStats, quantile
from .summary import aggregate_tree, chrome_trace, render_summary
from .trace import (
    NULL_SPAN,
    TRACE_ENV,
    NullSpan,
    Span,
    Tracer,
    configure,
    configure_from_env,
    current_span_id,
    merge_active_trace,
    merge_trace,
    read_trace,
    shard_path_for,
    shard_paths,
    span,
    trace_event,
    trace_to,
    tracing_enabled,
    under_span,
)

__all__ = [
    "CLI_LOGGER_NAME",
    "LOG_LEVEL_ENV",
    "MetricStats",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "aggregate_tree",
    "chrome_trace",
    "configure",
    "configure_cli_logging",
    "configure_from_env",
    "current_span_id",
    "emit_diagnostic",
    "emit_err",
    "emit_error",
    "emit_out",
    "merge_active_trace",
    "merge_trace",
    "quantile",
    "read_trace",
    "render_summary",
    "resolve_level",
    "shard_path_for",
    "shard_paths",
    "span",
    "trace_event",
    "trace_to",
    "tracing_enabled",
    "under_span",
]
