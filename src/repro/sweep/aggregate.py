"""Typed aggregation of sweep outcomes: tables, group-by, pivot, accounting.

A :class:`SweepResult` pairs every expanded sweep point (its axis values and
labels) with the :class:`~repro.runner.ScenarioResult` the batch runner
produced for it, plus the run-level figures (wall-clock, worker count) and
the per-stage cache-reuse accounting the warm-sweep guarantees are asserted
against.  Everything is JSON-round-trippable so sweep outcomes can be
stored next to their plans and re-aggregated offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..runner.batch import BatchResult, count_stage_flags
from ..runner.stages import ScenarioResult
from ..runner.store import CampaignSummary

PathLike = Union[str, Path]

#: Result metrics exported into flat sweep tables, in column order.
DEFAULT_METRICS: Tuple[str, ...] = (
    "annual_energy_mwh",
    "baseline_energy_mwh",
    "improvement_percent",
    "wiring_extra_length_m",
    "capacity_factor",
    "runtime_s",
)

_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class SweepPointResult:
    """Outcome of one sweep point: axis coordinates plus the run record."""

    name: str
    overrides: Mapping[str, Any]
    labels: Mapping[str, str]
    result: ScenarioResult

    def axis_value(self, key: str) -> Any:
        """The point's coordinate on the axis with column name ``key``.

        Scalar override values are returned as-is (so numeric axes stay
        numeric in tables); structured values (e.g. a roof dictionary) are
        represented by their display label.
        """
        for path, value in self.overrides.items():
            if path.rsplit(".", 1)[-1] == key:
                if isinstance(value, _SCALARS) or value is None:
                    return value
                return self.labels.get(key, str(value))
        raise ConfigurationError(f"sweep point {self.name!r} has no axis {key!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overrides": dict(self.overrides),
            "labels": dict(self.labels),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPointResult":
        try:
            return cls(
                name=str(data["name"]),
                overrides=dict(data["overrides"]),
                labels={str(k): str(v) for k, v in data.get("labels", {}).items()},
                result=ScenarioResult.from_dict(data["result"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep point record: {exc}") from exc


@dataclass(frozen=True)
class PivotTable:
    """A two-axis rearrangement of one sweep metric.

    ``values[i][j]`` is the metric at ``row_labels[i]`` x ``col_labels[j]``
    (``None`` where the sweep has no such point, e.g. zip-mode sweeps).
    """

    index: str
    columns: str
    metric: str
    row_labels: Tuple[Any, ...]
    col_labels: Tuple[Any, ...]
    values: Tuple[Tuple[Optional[float], ...], ...]


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep run."""

    plan_name: str
    axis_keys: Tuple[str, ...]
    points: List[SweepPointResult]
    runtime_s: float = 0.0
    jobs: int = 1
    #: Durable-store accounting when the sweep ran as a campaign
    #: (``run_sweep(store=...)``); ``None`` for in-memory sweeps.
    campaign: Optional[CampaignSummary] = None

    @property
    def n_points(self) -> int:
        """Number of sweep points executed."""
        return len(self.points)

    def results(self) -> List[ScenarioResult]:
        """The underlying scenario results, in point order."""
        return [point.result for point in self.points]

    # -- tabulation --------------------------------------------------------------

    def table(self, metrics: Sequence[str] = DEFAULT_METRICS) -> List[dict]:
        """Flat rows: one dict per point with axis columns then metrics."""
        rows = []
        for point in self.points:
            row: dict = {"point": point.name}
            for key in self.axis_keys:
                row[key] = point.axis_value(key)
            for metric in metrics:
                row[metric] = getattr(point.result, metric)
            rows.append(row)
        return rows

    def pivot(
        self, index: str, columns: str, metric: str = "annual_energy_mwh"
    ) -> PivotTable:
        """Rearrange one metric onto an ``index`` x ``columns`` grid.

        Label order follows first appearance in point order, so pivots of
        grid-mode sweeps list axis values in their declared order.
        """
        self._require_axis(index)
        self._require_axis(columns)
        if index == columns:
            raise ConfigurationError("pivot needs two distinct axes")
        row_labels: List[Any] = []
        col_labels: List[Any] = []
        cells: Dict[Tuple[int, int], float] = {}
        for point in self.points:
            row_value = point.axis_value(index)
            col_value = point.axis_value(columns)
            if row_value not in row_labels:
                row_labels.append(row_value)
            if col_value not in col_labels:
                col_labels.append(col_value)
            key = (row_labels.index(row_value), col_labels.index(col_value))
            if key in cells:
                raise ConfigurationError(
                    f"pivot cell {row_value!r} x {col_value!r} is ambiguous: "
                    "several points share it (pivot on more axes or filter first)"
                )
            cells[key] = float(getattr(point.result, metric))
        values = tuple(
            tuple(cells.get((i, j)) for j in range(len(col_labels)))
            for i in range(len(row_labels))
        )
        return PivotTable(
            index=index,
            columns=columns,
            metric=metric,
            row_labels=tuple(row_labels),
            col_labels=tuple(col_labels),
            values=values,
        )

    def _require_axis(self, key: str) -> None:
        if key not in self.axis_keys:
            known = ", ".join(self.axis_keys)
            raise ConfigurationError(f"unknown sweep axis {key!r}; axes: {known}")

    # -- warm-start accounting -----------------------------------------------------

    def warm_started_count(self) -> int:
        """Number of points whose solver actually consumed a warm-start hint."""
        return sum(1 for result in self.results() if result.warm_started)

    def gap_by_point(self) -> Dict[str, float]:
        """Reported optimality gap per point, for points that reported one.

        Greedy points never report a gap; ILP points report ``0.0`` on a
        proven optimum and the solver's relative gap when an anytime budget
        stopped the search early.
        """
        return {
            point.name: point.result.gap
            for point in self.points
            if point.result.gap is not None
        }

    # -- cache-reuse accounting ----------------------------------------------------

    def cache_hit_counts(self) -> Dict[str, int]:
        """Per-stage count of points served from the stage cache."""
        return count_stage_flags(self.results(), cached=True)

    def stage_recompute_counts(self) -> Dict[str, int]:
        """Per-stage count of points that had to *recompute* the stage.

        The sweep engine's headline guarantee is expressed against this:
        a warm re-run of an unchanged sweep reports zero recomputations for
        every expensive stage, and a cold single-roof sweep along cheap axes
        (``n_modules``, ``solver.name``) recomputes the solar field exactly
        once for the whole grid.
        """
        return count_stage_flags(self.results(), cached=False)

    def summary(self) -> dict:
        """Aggregate figures for reports and the CLI."""
        return {
            "plan": self.plan_name,
            "n_points": self.n_points,
            "axes": list(self.axis_keys),
            "jobs": self.jobs,
            "runtime_s": self.runtime_s,
            "total_energy_mwh": sum(r.annual_energy_mwh for r in self.results()),
            "cache_hits_by_stage": self.cache_hit_counts(),
            "cache_recomputes_by_stage": self.stage_recompute_counts(),
            "n_warm_started": self.warm_started_count(),
            "max_gap": max(self.gap_by_point().values(), default=None),
            "campaign": None if self.campaign is None else self.campaign.as_dict(),
        }

    # -- (de)serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "plan_name": self.plan_name,
            "axis_keys": list(self.axis_keys),
            "runtime_s": self.runtime_s,
            "jobs": self.jobs,
            "campaign": None if self.campaign is None else self.campaign.as_dict(),
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        try:
            campaign = data.get("campaign")
            return cls(
                plan_name=str(data["plan_name"]),
                axis_keys=tuple(str(k) for k in data["axis_keys"]),
                points=[SweepPointResult.from_dict(p) for p in data["points"]],
                runtime_s=float(data.get("runtime_s", 0.0)),
                jobs=int(data.get("jobs", 1)),
                campaign=None if campaign is None else CampaignSummary.from_dict(campaign),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep result: {exc}") from exc

    def save(self, path: PathLike) -> None:
        """Write the aggregated result to a JSON file."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: PathLike) -> "SweepResult":
        """Read an aggregated result from a JSON file."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid sweep result JSON: {exc}") from exc
        return cls.from_dict(data)


def aggregate_batch(
    plan_name: str,
    axis_keys: Sequence[str],
    points: Sequence[Mapping[str, Any]],
    batch: BatchResult,
) -> SweepResult:
    """Join expanded sweep points with their batch records, in point order.

    ``points`` supplies ``{"name", "overrides", "labels"}`` per point (the
    attributes of :class:`~repro.sweep.grid.SweepPoint`); the batch must
    contain exactly one result per point name.
    """
    by_name = batch.by_name()
    missing = [p["name"] for p in points if p["name"] not in by_name]
    if missing:
        raise ConfigurationError(f"batch results missing for sweep points: {missing}")
    joined = [
        SweepPointResult(
            name=p["name"],
            overrides=dict(p["overrides"]),
            labels=dict(p["labels"]),
            result=by_name[p["name"]],
        )
        for p in points
    ]
    return SweepResult(
        plan_name=plan_name,
        axis_keys=tuple(axis_keys),
        points=joined,
        runtime_s=batch.runtime_s,
        jobs=batch.jobs,
        campaign=batch.campaign,
    )
