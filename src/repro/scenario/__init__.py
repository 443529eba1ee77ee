"""Declarative scenario catalog: JSON-round-trippable pipeline specifications."""

from .catalog import builtin_scenarios
from .spec import (
    SCENARIO_FORMAT_VERSION,
    ScenarioSpec,
    SolarSpec,
    SolverSpec,
    TimeSpec,
    WeatherSpec,
    apply_scenario_overrides,
    roof_spec_from_dict,
    roof_spec_to_dict,
)

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "ScenarioSpec",
    "apply_scenario_overrides",
    "SolarSpec",
    "SolverSpec",
    "TimeSpec",
    "WeatherSpec",
    "roof_spec_from_dict",
    "roof_spec_to_dict",
    "builtin_scenarios",
]
