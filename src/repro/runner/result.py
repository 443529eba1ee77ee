"""The flat record of one scenario run, and a scenario's point digest.

:class:`ScenarioResult` is what ``repro run --output`` writes, what the
campaign store keeps per point and what the service answers with;
:func:`scenario_content_digest` is a scenario's identity as a campaign
point.  Neither needs the pipeline, so this module imports no numpy: a
``repro run`` of a document whose result the stage cache already holds
answers from it without loading the simulation code.
:mod:`repro.runner.stages` re-exports all three names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from .cache import content_digest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..scenario.spec import ScenarioSpec

#: Version stamp of every campaign point's digest.  Not the stage cache's
#: format: a point's identity depends on its inputs, not on the cache layout.
#: Stored results are looked up by this digest (the store's rows, and the
#: result entry that answers a repeated ``repro run``), so a change that
#: alters the result of an unchanged document -- or rejects a document that
#: used to run -- must bump it.
POINT_DIGEST_VERSION = 4


def scenario_content_digest(spec: ScenarioSpec) -> str:
    """Content digest identifying one scenario as a campaign point.

    The digest covers the scenario's full declarative dictionary under the
    same canonical-JSON hashing the stage cache uses for its entries, so a
    campaign point's identity changes exactly when any input that could
    change its result changes.  The durable result store
    (:mod:`repro.runner.store`) keys its rows on this digest.
    """
    return content_digest({"format": POINT_DIGEST_VERSION, "scenario": spec.to_dict()})


#: The nodes of :data:`repro.runner.stages.NODES` that the stage cache keeps,
#: in execution order: the keys of :attr:`ScenarioResult.stage_cached`.
CACHED_STAGES = ("scene", "grid", "solar", "suitability")


@dataclass
class ScenarioResult:
    """Flat, JSONL-serialisable outcome of one scenario run."""

    scenario: str
    solver: str
    n_modules: int
    n_valid_cells: int
    grid_cols: int
    grid_rows: int
    annual_energy_mwh: float
    baseline_energy_mwh: float
    improvement_percent: float
    wiring_extra_length_m: float
    capacity_factor: float
    runtime_s: float
    stage_cached: Dict[str, bool] = field(default_factory=dict)
    #: Exclusive wall-clock seconds per stage that ran (keys of
    #: :data:`repro.runner.stages.PIPELINE_STAGES`): a cold run has all eight, a warm one skips
    #: ``weather`` and ``horizon``, which only a missed solar field builds.
    #: The entries never overlap, so their sum is at most ``runtime_s``.
    #: Like ``runtime_s`` this is provenance, not part of the fingerprint.
    stage_times_s: Dict[str, float] = field(default_factory=dict)
    solver_info: Dict[str, Any] = field(default_factory=dict)
    placement: Dict[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    #: Degradation provenance: True when the configured solver failed (or
    #: blew its budget) and ``fallback_solver`` produced this best-effort
    #: answer instead; ``degradation_reason`` records why, one line per
    #: abandoned chain entry.  ``solver`` always names the *configured*
    #: solver so report joins stay stable.
    degraded: bool = False
    fallback_solver: Optional[str] = None
    degradation_reason: Optional[str] = None
    #: Warm-start provenance: True when a neighbour's placement actually
    #: contributed to the solve.  Like ``runtime_s`` this is provenance,
    #: not part of the fingerprint -- warm and cold runs of the same
    #: scenario are interchangeable by construction.
    warm_started: bool = False
    #: Solver-reported relative optimality gap (None = not reported).
    gap: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-serialisable record (one JSONL line)."""
        return {
            "scenario": self.scenario,
            "solver": self.solver,
            "n_modules": self.n_modules,
            "n_valid_cells": self.n_valid_cells,
            "grid_cols": self.grid_cols,
            "grid_rows": self.grid_rows,
            "annual_energy_mwh": self.annual_energy_mwh,
            "baseline_energy_mwh": self.baseline_energy_mwh,
            "improvement_percent": self.improvement_percent,
            "wiring_extra_length_m": self.wiring_extra_length_m,
            "capacity_factor": self.capacity_factor,
            "runtime_s": self.runtime_s,
            "stage_cached": dict(self.stage_cached),
            "stage_times_s": dict(self.stage_times_s),
            "solver_info": dict(self.solver_info),
            "placement": dict(self.placement),
            "tags": list(self.tags),
            "degraded": self.degraded,
            "fallback_solver": self.fallback_solver,
            "degradation_reason": self.degradation_reason,
            "warm_started": self.warm_started,
            "gap": self.gap,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            scenario=str(data["scenario"]),
            solver=str(data["solver"]),
            n_modules=int(data["n_modules"]),
            n_valid_cells=int(data["n_valid_cells"]),
            grid_cols=int(data.get("grid_cols", 0)),
            grid_rows=int(data.get("grid_rows", 0)),
            annual_energy_mwh=float(data["annual_energy_mwh"]),
            baseline_energy_mwh=float(data["baseline_energy_mwh"]),
            improvement_percent=float(data["improvement_percent"]),
            wiring_extra_length_m=float(data["wiring_extra_length_m"]),
            capacity_factor=float(data["capacity_factor"]),
            runtime_s=float(data["runtime_s"]),
            stage_cached=dict(data.get("stage_cached", {})),
            stage_times_s={
                str(name): float(seconds)
                for name, seconds in dict(data.get("stage_times_s", {})).items()
            },
            solver_info=dict(data.get("solver_info", {})),
            placement=dict(data.get("placement", {})),
            tags=tuple(data.get("tags", [])),
            degraded=bool(data.get("degraded", False)),
            fallback_solver=data.get("fallback_solver"),
            degradation_reason=data.get("degradation_reason"),
            warm_started=bool(data.get("warm_started", False)),
            gap=None if data.get("gap") is None else float(data["gap"]),
        )

    def fingerprint(self) -> dict:
        """Deterministic subset of the result (no runtimes, no cache state).

        Two runs of the same scenario -- serial or parallel, cold or warm
        cache -- must produce identical fingerprints; the determinism tests
        and the batch runner's integrity checks rely on this.
        """
        placement = dict(self.placement)
        placement.pop("metadata", None)
        return {
            "scenario": self.scenario,
            "solver": self.solver,
            "n_modules": self.n_modules,
            "n_valid_cells": self.n_valid_cells,
            "annual_energy_mwh": self.annual_energy_mwh,
            "baseline_energy_mwh": self.baseline_energy_mwh,
            "improvement_percent": self.improvement_percent,
            "wiring_extra_length_m": self.wiring_extra_length_m,
            "placement": placement,
        }

    def report(self) -> str:
        """Short human-readable summary line."""
        cached = [name for name, hit in self.stage_cached.items() if hit]
        cache_note = f" [cached: {', '.join(cached)}]" if cached else ""
        degraded_note = (
            f" [degraded -> {self.fallback_solver}]" if self.degraded else ""
        )
        return (
            f"{self.scenario}: solver={self.solver}{degraded_note} N={self.n_modules} "
            f"Ng={self.n_valid_cells} energy={self.annual_energy_mwh:.3f} MWh/y "
            f"(baseline {self.baseline_energy_mwh:.3f}, "
            f"{self.improvement_percent:+.2f} %) in {self.runtime_s:.2f}s{cache_note}"
        )
