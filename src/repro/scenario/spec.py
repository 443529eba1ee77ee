"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* one end-to-end run of the
pipeline needs -- the roof, the module datasheet, the weather and time
configuration, the irradiance-model options and the solver choice -- as a
plain, JSON-round-trippable document.  It is the only description of a
pipeline run: scenarios and sweeps are specs, and :func:`repro.plan_roof`,
the case-study drivers and the runtime sweep build one (or its
:class:`TimeSpec`, :class:`WeatherSpec` and :class:`SolarSpec` parts) from
their arguments.  The declarative form serves three purposes:

* scenarios can be stored, versioned and shared as small JSON files (the
  pvlib-style "site spec" idiom);
* the batch runner can ship scenarios to worker processes without pickling
  heavyweight simulation objects;
* every pipeline stage keys its cache entry on the document paths it reads
  (:func:`repro.runner.stages.node_keys`): two runs sharing a roof, weather
  and time base -- whichever entry point described them -- hash to the same
  solar-field key and reuse each other's expensive intermediate results.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from ..constants import (
    DEFAULT_GRID_PITCH,
    TURIN_LATITUDE,
    TURIN_LINKE_TURBIDITY,
    TURIN_LONGITUDE,
)
from ..errors import ConfigurationError
from ..geometry.point import Point2D
from ..geometry.polygon import Polygon
from ..gis.roof import AdjacentStructure, ObstacleFootprint, RoofSpec
from ..pv.datasheet import DATASHEETS, ModuleDatasheet, get_datasheet

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..solar.irradiance_map import SolarSimulationConfig
    from ..solar.time_series import TimeGrid
    from ..weather.records import StationMetadata, WeatherSeries

# The simulation objects a spec builds (time grid, station, weather, solar
# configuration) are imported by the methods that build them, so a document
# loads, validates and digests without numpy.

PathLike = Union[str, Path]

#: Version stamp embedded in serialised scenarios (bump on breaking changes).
SCENARIO_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Roof (de)serialisation
# ---------------------------------------------------------------------------


def _polygon_to_list(polygon: Polygon) -> list:
    return [[float(v.x), float(v.y)] for v in polygon.vertices]


def _polygon_from_list(vertices: list) -> Polygon:
    return Polygon([Point2D(float(u), float(v)) for u, v in vertices])


def roof_spec_to_dict(spec: RoofSpec) -> dict:
    """Convert a :class:`~repro.gis.RoofSpec` into a JSON-serialisable dict."""
    return {
        "name": spec.name,
        "width_m": spec.width_m,
        "depth_m": spec.depth_m,
        "tilt_deg": spec.tilt_deg,
        "azimuth_deg": spec.azimuth_deg,
        "eave_height_m": spec.eave_height_m,
        "edge_setback_m": spec.edge_setback_m,
        "obstacles": [
            {
                "name": obstacle.name,
                "vertices": _polygon_to_list(obstacle.polygon),
                "height_m": obstacle.height_m,
                "clearance_m": obstacle.clearance_m,
            }
            for obstacle in spec.obstacles
        ],
        "adjacent_structures": [
            {
                "name": structure.name,
                "vertices": _polygon_to_list(structure.polygon),
                "height_m": structure.height_m,
            }
            for structure in spec.adjacent_structures
        ],
        "surface_roughness_m": spec.surface_roughness_m,
        "roughness_correlation_m": spec.roughness_correlation_m,
        "roughness_seed": spec.roughness_seed,
    }


def roof_spec_from_dict(data: Mapping[str, Any]) -> RoofSpec:
    """Rebuild a :class:`~repro.gis.RoofSpec` from its dictionary form."""
    try:
        return RoofSpec(
            name=str(data["name"]),
            width_m=float(data["width_m"]),
            depth_m=float(data["depth_m"]),
            tilt_deg=float(data["tilt_deg"]),
            azimuth_deg=float(data["azimuth_deg"]),
            eave_height_m=float(data.get("eave_height_m", 6.0)),
            edge_setback_m=float(data.get("edge_setback_m", 0.4)),
            obstacles=tuple(
                ObstacleFootprint(
                    name=str(entry["name"]),
                    polygon=_polygon_from_list(entry["vertices"]),
                    height_m=float(entry["height_m"]),
                    clearance_m=float(entry.get("clearance_m", 0.2)),
                )
                for entry in data.get("obstacles", [])
            ),
            adjacent_structures=tuple(
                AdjacentStructure(
                    name=str(entry["name"]),
                    polygon=_polygon_from_list(entry["vertices"]),
                    height_m=float(entry["height_m"]),
                )
                for entry in data.get("adjacent_structures", [])
            ),
            surface_roughness_m=float(data.get("surface_roughness_m", 0.0)),
            roughness_correlation_m=float(data.get("roughness_correlation_m", 2.0)),
            roughness_seed=int(data.get("roughness_seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed roof specification: {exc}") from exc


# ---------------------------------------------------------------------------
# Component specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSpec:
    """Declarative temporal sampling (see :class:`repro.solar.TimeGrid`)."""

    step_minutes: float = 60.0
    day_stride: int = 7

    def build(self) -> TimeGrid:
        """Materialise the :class:`TimeGrid`."""
        from ..solar.time_series import TimeGrid

        return TimeGrid(step_minutes=self.step_minutes, day_stride=self.day_stride)

    def to_dict(self) -> dict:
        return {"step_minutes": self.step_minutes, "day_stride": self.day_stride}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimeSpec":
        return cls(
            step_minutes=float(data.get("step_minutes", 60.0)),
            day_stride=int(data.get("day_stride", 7)),
        )


@dataclass(frozen=True)
class WeatherSpec:
    """Declarative weather-station configuration.

    ``kind`` selects the generator: ``"synthetic"`` (stochastic clear-sky
    index, the default) or ``"clearsky"`` (idealised cloud-free year).
    ``ghi_factor`` rescales the irradiance, emulating sunnier or cloudier
    climates while keeping the temporal structure fixed.
    """

    kind: str = "synthetic"
    seed: int = 0
    ghi_factor: float = 1.0
    station_name: str = "turin-synthetic"
    latitude_deg: float = TURIN_LATITUDE
    longitude_deg: float = TURIN_LONGITUDE
    altitude_m: float = 240.0

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "clearsky"):
            raise ConfigurationError(f"unknown weather kind {self.kind!r}")
        if self.ghi_factor < 0:
            raise ConfigurationError("ghi_factor must be non-negative")

    def station(self) -> StationMetadata:
        """The station metadata implied by the specification."""
        from ..weather.records import StationMetadata

        return StationMetadata(
            name=self.station_name,
            latitude_deg=self.latitude_deg,
            longitude_deg=self.longitude_deg,
            altitude_m=self.altitude_m,
        )

    def build(self, time_grid: TimeGrid) -> WeatherSeries:
        """Generate the weather series on the given time grid."""
        from ..weather.synthetic import (
            SyntheticWeatherConfig,
            generate_clearsky_weather,
            generate_weather,
            scale_weather,
        )

        config = SyntheticWeatherConfig(station=self.station(), seed=self.seed)
        if self.kind == "clearsky":
            series = generate_clearsky_weather(time_grid, config)
        else:
            series = generate_weather(time_grid, config)
        if self.ghi_factor != 1.0:
            series = scale_weather(series, self.ghi_factor)
        return series

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "ghi_factor": self.ghi_factor,
            "station_name": self.station_name,
            "latitude_deg": self.latitude_deg,
            "longitude_deg": self.longitude_deg,
            "altitude_m": self.altitude_m,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WeatherSpec":
        return cls(
            kind=str(data.get("kind", "synthetic")),
            seed=int(data.get("seed", 0)),
            ghi_factor=float(data.get("ghi_factor", 1.0)),
            station_name=str(data.get("station_name", "turin-synthetic")),
            latitude_deg=float(data.get("latitude_deg", TURIN_LATITUDE)),
            longitude_deg=float(data.get("longitude_deg", TURIN_LONGITUDE)),
            altitude_m=float(data.get("altitude_m", 240.0)),
        )


#: Solar-model keys every document carries at their one value.  The model
#: chain is fixed (Erbs decomposition, Hay-Davies transposition); the keys
#: stay in the document so scenario documents and their content digests
#: keep their form.
_FIXED_SOLAR_KEYS = {"sky_model": "haydavies", "decomposition_model": "erbs"}


@dataclass(frozen=True)
class SolarSpec:
    """Declarative irradiance-simulation options.

    Mirrors :class:`repro.solar.SolarSimulationConfig` with plain values so
    the configuration participates in JSON round-trips and content hashing.
    The document form also writes ``sky_model`` (``"haydavies"``),
    ``decomposition_model`` (``"erbs"``) and ``linke_turbidity`` (``null``:
    the Turin monthly climatology) at their one value.  :meth:`from_dict`
    accepts each of them absent or at that value -- the Turin values
    spelled out as a list count as ``null`` -- and raises
    :class:`~repro.errors.ConfigurationError` naming the key for any other.
    """

    albedo: float = 0.2
    n_horizon_sectors: int = 36
    horizon_max_distance_m: float = 60.0

    def build(self) -> SolarSimulationConfig:
        """Materialise the :class:`SolarSimulationConfig`."""
        from ..solar.irradiance_map import SolarSimulationConfig

        return SolarSimulationConfig(
            albedo=self.albedo,
            n_horizon_sectors=self.n_horizon_sectors,
            horizon_max_distance_m=self.horizon_max_distance_m,
        )

    def to_dict(self) -> dict:
        return {
            **_FIXED_SOLAR_KEYS,
            "albedo": self.albedo,
            "n_horizon_sectors": self.n_horizon_sectors,
            "horizon_max_distance_m": self.horizon_max_distance_m,
            "linke_turbidity": None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolarSpec":
        for key, value in _FIXED_SOLAR_KEYS.items():
            if data.get(key, value) != value:
                raise ConfigurationError(
                    f"solar.{key} must be {value!r}, the only model the pipeline "
                    f"runs; got {data[key]!r}"
                )
        turbidity = data.get("linke_turbidity")
        if turbidity is not None and not _is_turin_climatology(turbidity):
            raise ConfigurationError(
                "solar.linke_turbidity must be null or the Turin monthly "
                f"climatology {list(TURIN_LINKE_TURBIDITY)}; "
                f"got {turbidity!r}"
            )
        return cls(
            albedo=float(data.get("albedo", 0.2)),
            n_horizon_sectors=int(data.get("n_horizon_sectors", 36)),
            horizon_max_distance_m=float(data.get("horizon_max_distance_m", 60.0)),
        )


def _is_turin_climatology(values: Any) -> bool:
    try:
        monthly = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        return False
    return monthly == TURIN_LINKE_TURBIDITY


@dataclass(frozen=True)
class SolverSpec:
    """Solver choice plus its free-form option mapping.

    ``name`` must resolve in the :mod:`repro.runner.solvers` registry
    (``greedy``, ``traditional``, ``ilp``, ``exhaustive`` out of the box);
    ``options`` is forwarded to the solver's config dataclass, and a key it
    does not declare fails the run (``traditional`` takes no option).

    ``fallback`` names cheaper solvers tried in order when the configured
    one raises or the chain's wall-clock ``budget_s`` runs out (see
    :func:`repro.runner.solvers.solve_with_fallback`); results produced by
    a fallback entry are flagged ``degraded``.  ``warm_start=False`` opts
    the scenario out of warm-start hints offered by sweeps or campaign
    workers -- its points always solve cold.  All three fields serialise
    only when set (non-default), so plain scenarios keep their dictionary
    form -- and therefore their content digests -- unchanged.
    """

    name: str = "greedy"
    options: Mapping[str, Any] = field(default_factory=dict)
    fallback: Tuple[str, ...] = ()
    budget_s: Optional[float] = None
    warm_start: bool = True

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"name": self.name, "options": dict(self.options)}
        if self.fallback:
            data["fallback"] = list(self.fallback)
        if self.budget_s is not None:
            data["budget_s"] = self.budget_s
        if not self.warm_start:
            data["warm_start"] = False
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        budget = data.get("budget_s")
        return cls(
            name=str(data.get("name", "greedy")),
            options=dict(data.get("options", {})),
            fallback=tuple(str(name) for name in data.get("fallback", [])),
            budget_s=None if budget is None else float(budget),
            warm_start=bool(data.get("warm_start", True)),
        )


# ---------------------------------------------------------------------------
# Axis overrides
#
# The sweep engine (:mod:`repro.sweep`) varies scenarios along declarative
# *axes*: dotted paths into the scenario's dictionary form ("n_modules",
# "weather.seed", "solver.name", "module.gamma_p_per_k", "roof", ...).
# Applying an override is a pure dictionary transformation, so every sweep
# point remains JSON-round-trippable by construction and derives its cache
# keys exactly like a hand-written scenario would.
# ---------------------------------------------------------------------------


def apply_scenario_overrides(
    data: Mapping[str, Any], overrides: Mapping[str, Any]
) -> dict:
    """Apply dotted-path overrides to a scenario dictionary.

    Returns a new dictionary; ``data`` is not modified.  Paths must address
    existing keys (guarding against typos such as ``weather.sed``) with two
    deliberate exceptions:

    * ``solver.options.<key>`` may introduce new keys -- solver options are
      a free-form mapping forwarded to the solver's config dataclass;
    * a plain-string ``solver`` value is shorthand for
      ``{"name": value, "options": {}}``.

    Overriding ``module.<field>`` when the scenario references a datasheet
    by registry name first expands the name into its full field dictionary,
    so single-field datasheet axes (e.g. a temperature-coefficient sweep)
    work against named modules too.
    """
    result = json.loads(json.dumps(dict(data)))  # deep, JSON-faithful copy
    for path, value in overrides.items():
        _assign_override(result, str(path), value)
    return result


def _assign_override(data: dict, path: str, value: Any) -> None:
    parts = path.split(".")
    if not all(parts):
        raise ConfigurationError(f"malformed override path {path!r}")

    if parts[0] == "solver" and len(parts) == 1 and isinstance(value, str):
        value = {"name": value, "options": {}}
    if parts[0] == "module" and len(parts) > 1 and isinstance(data.get("module"), str):
        data["module"] = dataclasses.asdict(get_datasheet(data["module"]))

    node = data
    for key in parts[:-1]:
        if key not in node:
            known = ", ".join(sorted(node))
            raise ConfigurationError(
                f"override path {path!r} addresses unknown key {key!r}; known: {known}"
            )
        child = node[key]
        if not isinstance(child, dict):
            raise ConfigurationError(
                f"override path {path!r} does not address a mapping at {key!r}"
            )
        node = child
    leaf = parts[-1]
    # New keys are only allowed where the schema is free-form by design --
    # plus the optional solver-chain fields, which serialise only when set
    # and are therefore usually absent from the dictionary being overridden.
    free_form = len(parts) >= 2 and (
        parts[-2] == "options"
        or (parts[-2] == "solver" and leaf in ("fallback", "budget_s"))
    )
    if leaf not in node and not free_form:
        known = ", ".join(sorted(node))
        raise ConfigurationError(
            f"override path {path!r} addresses unknown key {leaf!r}; known: {known}"
        )
    node[leaf] = json.loads(json.dumps(value))  # detach from the caller


# ---------------------------------------------------------------------------
# The scenario itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully declarative end-to-end pipeline run.

    Attributes
    ----------
    name:
        Unique scenario identifier (catalog key, JSONL record key).
    roof:
        The roof to plan (size, tilt, azimuth, obstacles, neighbours).
    n_modules:
        Number of modules to place.
    n_series:
        Modules per series string (defaults to ``min(8, n_modules)``).
    module:
        Either a key into the bundled datasheet registry
        (:data:`repro.pv.datasheet.DATASHEETS`) or an inline datasheet dict.
    grid_pitch, dsm_pitch:
        Virtual-grid and DSM raster resolutions [m].
    time, weather, solar:
        Temporal sampling, weather generator and irradiance-model options.
    solver:
        Placement solver choice plus options.
    allow_rotation:
        Whether modules may be rotated by 90 degrees during placement.
    description, tags:
        Free-form catalog metadata (not part of any content key).

    Example
    -------
    Scenarios are JSON-round-trippable documents; the dictionary/JSON form
    is the storage and transport format, and what the stages' keys read:

    >>> from repro.scenario import ScenarioSpec, builtin_scenarios
    >>> spec = builtin_scenarios()["residential-south"]
    >>> ScenarioSpec.from_json(spec.to_json()).to_dict() == spec.to_dict()
    True
    >>> from repro.runner.stages import node_keys
    >>> node_keys(spec) == node_keys(spec.with_solver("ilp"))   # one per node
    True
    >>> spec.with_solver("ilp", time_limit_s=5.0).solver.name
    'ilp'
    """

    name: str
    roof: RoofSpec
    n_modules: int
    n_series: Optional[int] = None
    module: Union[str, Mapping[str, Any]] = "pv-mf165eb3"
    grid_pitch: float = DEFAULT_GRID_PITCH
    dsm_pitch: float = 0.4
    time: TimeSpec = field(default_factory=TimeSpec)
    weather: WeatherSpec = field(default_factory=WeatherSpec)
    solar: SolarSpec = field(default_factory=SolarSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    allow_rotation: bool = False
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.n_modules < 1:
            raise ConfigurationError("n_modules must be positive")
        if self.n_series is not None and self.n_series < 1:
            raise ConfigurationError("n_series must be positive")
        if self.grid_pitch <= 0 or self.dsm_pitch <= 0:
            raise ConfigurationError("grid and DSM pitches must be positive")
        if isinstance(self.module, str) and self.module.lower() not in DATASHEETS:
            known = ", ".join(sorted(DATASHEETS))
            raise ConfigurationError(
                f"unknown module datasheet {self.module!r}; known: {known}"
            )

    # -- derived objects ---------------------------------------------------------

    def datasheet(self) -> ModuleDatasheet:
        """Resolve the module reference into a :class:`ModuleDatasheet`."""
        if isinstance(self.module, str):
            return get_datasheet(self.module)
        return ModuleDatasheet(**dict(self.module))

    def series_length(self) -> int:
        """Modules per series string."""
        return self.n_series if self.n_series is not None else min(8, self.n_modules)

    def with_solver(self, name: str, **options: Any) -> "ScenarioSpec":
        """A copy of the scenario with a different solver choice."""
        return replace(self, solver=SolverSpec(name=name, options=options))

    def with_overrides(
        self, overrides: Mapping[str, Any], name: Optional[str] = None
    ) -> "ScenarioSpec":
        """A copy of the scenario with dotted-path axis overrides applied.

        The overrides are applied to the scenario's dictionary form (see
        :func:`apply_scenario_overrides`), so the result is exactly what a
        hand-edited JSON scenario would parse to -- including validation and
        cache-key derivation.  ``name`` renames the resulting scenario
        (sweep points need unique names).

        Example
        -------
        >>> from repro.scenario import builtin_scenarios
        >>> base = builtin_scenarios()["residential-south"]
        >>> point = base.with_overrides(
        ...     {"n_modules": 8, "weather.latitude_deg": 52.5, "solver": "traditional"},
        ...     name="residential-south@n8-berlin",
        ... )
        >>> (point.n_modules, point.weather.latitude_deg, point.solver.name)
        (8, 52.5, 'traditional')
        >>> base.n_modules  # the base scenario is untouched
        6
        """
        data = apply_scenario_overrides(self.to_dict(), overrides)
        if name is not None:
            data["name"] = name
        return ScenarioSpec.from_dict(data)

    # -- nested payloads; the stage cache keys on stages.node_keys instead --------

    def scene_payload(self) -> dict:
        """Nested payload of the rasterised scene (not a pipeline cache key)."""
        return {
            "stage": "scene",
            "roof": roof_spec_to_dict(self.roof),
            "dsm_pitch": self.dsm_pitch,
        }

    def grid_payload(self) -> dict:
        """Nested payload of the suitable-area virtual grid (not a pipeline cache key)."""
        return {"stage": "grid", "scene": self.scene_payload(), "grid_pitch": self.grid_pitch}

    def solar_payload(self) -> dict:
        """Nested payload of the spatio-temporal solar field (not a pipeline cache key)."""
        return {
            "stage": "solar",
            "grid": self.grid_payload(),
            "time": self.time.to_dict(),
            "weather": self.weather.to_dict(),
            "solar": self.solar.to_dict(),
        }

    # -- (de)serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Full JSON-serialisable dictionary form of the scenario."""
        module = self.module if isinstance(self.module, str) else dict(self.module)
        return {
            "format_version": SCENARIO_FORMAT_VERSION,
            "name": self.name,
            "roof": roof_spec_to_dict(self.roof),
            "n_modules": self.n_modules,
            "n_series": self.n_series,
            "module": module,
            "grid_pitch": self.grid_pitch,
            "dsm_pitch": self.dsm_pitch,
            "time": self.time.to_dict(),
            "weather": self.weather.to_dict(),
            "solar": self.solar.to_dict(),
            "solver": self.solver.to_dict(),
            "allow_rotation": self.allow_rotation,
            "description": self.description,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a scenario from its dictionary form."""
        version = data.get("format_version", SCENARIO_FORMAT_VERSION)
        if version != SCENARIO_FORMAT_VERSION:
            raise ConfigurationError(f"unsupported scenario format version {version}")
        try:
            module = data.get("module", "pv-mf165eb3")
            n_series = data.get("n_series")
            return cls(
                name=str(data["name"]),
                roof=roof_spec_from_dict(data["roof"]),
                n_modules=int(data["n_modules"]),
                n_series=None if n_series is None else int(n_series),
                module=module if isinstance(module, str) else dict(module),
                grid_pitch=float(data.get("grid_pitch", DEFAULT_GRID_PITCH)),
                dsm_pitch=float(data.get("dsm_pitch", 0.4)),
                time=TimeSpec.from_dict(data.get("time", {})),
                weather=WeatherSpec.from_dict(data.get("weather", {})),
                solar=SolarSpec.from_dict(data.get("solar", {})),
                solver=SolverSpec.from_dict(data.get("solver", {})),
                allow_rotation=bool(data.get("allow_rotation", False)),
                description=str(data.get("description", "")),
                tags=tuple(str(tag) for tag in data.get("tags", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed scenario specification: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise the scenario to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a scenario from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: PathLike) -> None:
        """Write the scenario to a JSON file."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "ScenarioSpec":
        """Read a scenario from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
