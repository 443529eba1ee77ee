"""Synthetic reconstructions of the paper's three case-study roofs.

The paper evaluates its floorplanner on the lean-to roofs of three adjacent
industrial buildings in Turin (~49-60 m x 10-12 m, facing S/S-W, 26 degrees
of tilt), whose LiDAR DSM and weather traces are proprietary.  The
reconstructions below are parametric stand-ins engineered to match the
published characteristics:

* grid dimensions W x L of Table I (287x51, 298x51, 298x52 elements of
  20 cm), hence the same facet sizes;
* a number of valid grid elements Ng in the same range (Roof 1 loses a large
  area to pipe racks, Roofs 2/3 only to scattered equipment);
* spatially non-uniform irradiance, with the least irradiated elements near
  one end of each roof (adjacent taller structures and the obstacles
  themselves cast the shadows that create the gradient of Figure 6(b)).

Absolute energy numbers therefore differ from Table I (different climate
realisation), but the structure of the comparison -- who wins, by roughly
how much, and why -- is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..constants import CASE_STUDY_AZIMUTH, CASE_STUDY_TILT, DEFAULT_GRID_PITCH
from ..errors import ConfigurationError
from ..geometry import Polygon
from ..gis import (
    AdjacentStructure,
    RoofScene,
    RoofSpec,
    chimney,
    hvac_unit,
    pipe_rack,
    scattered_vents,
    skylight_row,
)
from ..gis.gridding import RoofGrid
from ..solar import (
    RoofSolarField,
    SolarSimulationConfig,
    TimeGrid,
)
from ..weather import SyntheticWeatherConfig, WeatherSeries, generate_weather


@dataclass(frozen=True)
class CaseStudyConfig:
    """Scale and resolution knobs of the case-study experiments.

    ``scale`` shrinks the roofs (and obstacle layout) uniformly so tests can
    exercise the full pipeline on small instances; 1.0 reproduces the
    paper-sized roofs.  The time base defaults to an hourly simulation of
    every 7th day, which keeps the benchmarks laptop-friendly; pass
    ``time_step_minutes=15, day_stride=1`` for the paper's full resolution.
    """

    scale: float = 1.0
    grid_pitch: float = DEFAULT_GRID_PITCH
    dsm_pitch: float = 0.4
    time_step_minutes: float = 60.0
    day_stride: int = 7
    weather_seed: int = 7
    solar: SolarSimulationConfig = field(default_factory=SolarSimulationConfig)

    def __post_init__(self) -> None:
        if not 0.05 <= self.scale <= 2.0:
            raise ConfigurationError("scale must be within [0.05, 2.0]")
        if self.grid_pitch <= 0 or self.dsm_pitch <= 0:
            raise ConfigurationError("grid and DSM pitches must be positive")

    def time_grid(self) -> TimeGrid:
        """The time base implied by the configuration."""
        return TimeGrid(step_minutes=self.time_step_minutes, day_stride=self.day_stride)


#: One roof penetration (vent, exhaust, conduit stub) every this many square
#: metres of facet -- typical clutter density of an equipped industrial roof.
_VENT_DENSITY_M2 = 10.0


def _vent_count(width_m: float, depth_m: float) -> int:
    """Number of scattered vents for a roof of the given size."""
    return max(4, int(round(width_m * depth_m / _VENT_DENSITY_M2)))

def _eave_parapet(
    width_m: float, height_m: float = 0.6, thickness_m: float = 0.4
) -> AdjacentStructure:
    """Perimeter parapet running along the eave (south edge) of the facet.

    Industrial roofs carry a safety parapet along the perimeter; at low and
    medium sun elevations it shades the first metres of roof behind it, which
    is why the near-eave rows of the paper's irradiance maps are not the
    brightest ones.
    """
    polygon = Polygon.rectangle(-0.5, -thickness_m, width_m + 0.5, 0.0)
    return AdjacentStructure(name="eave-parapet", polygon=polygon, height_m=height_m)


def _penthouse(u: float, v: float, side_m: float = 3.6, height_m: float = 2.8):
    """A rooftop plant/stair room: a large obstacle in the middle of the facet."""
    return hvac_unit(u, v, side_m=side_m, height_m=height_m)

def _neighbour_building(
    width_m: float,
    depth_m: float,
    u_center: float,
    distance_south_m: float,
    footprint_w_m: float,
    footprint_d_m: float,
    height_m: float,
) -> AdjacentStructure:
    """A neighbouring (taller) building standing south of the eave.

    The paper's roofs sit in a dense industrial district; buildings across
    the yard shade broad swaths of the facets at low sun elevations, which is
    the large-scale component of the irradiance gradients of Figure 6(b).
    ``distance_south_m`` is the gap between the eave and the neighbour's
    near wall; ``height_m`` is the neighbour's roof height above the eave.
    """
    u0 = u_center - footprint_w_m / 2.0
    v0 = -(distance_south_m + footprint_d_m)
    polygon = Polygon.rectangle(u0, v0, u0 + footprint_w_m, -distance_south_m)
    return AdjacentStructure(name="neighbour-building", polygon=polygon, height_m=height_m)


def _tall_section(
    width_m: float, depth_m: float, side: str, extent_m: float, height_m: float
) -> AdjacentStructure:
    """A taller building section adjacent to one side of the roof facet."""
    if side == "east":
        polygon = Polygon.rectangle(width_m, -2.0, width_m + extent_m, depth_m + 2.0)
    elif side == "west":
        polygon = Polygon.rectangle(-extent_m, -2.0, 0.0, depth_m + 2.0)
    elif side == "ridge":
        polygon = Polygon.rectangle(-2.0, depth_m, width_m + 2.0, depth_m + extent_m)
    else:
        raise ConfigurationError(f"unknown side {side!r}")
    return AdjacentStructure(name=f"tall-section-{side}", polygon=polygon, height_m=height_m)


def roof1_spec(scale: float = 1.0) -> RoofSpec:
    """Roof 1: large pipe racks consume much of the surface (smallest Ng)."""
    width = 57.4 * scale
    depth = 10.2 * scale
    return RoofSpec(
        name="roof1",
        width_m=width,
        depth_m=depth,
        tilt_deg=CASE_STUDY_TILT,
        azimuth_deg=CASE_STUDY_AZIMUTH,
        eave_height_m=7.0,
        edge_setback_m=0.4 * scale,
        obstacles=(
            pipe_rack(
                0.12 * width,
                0.55 * depth,
                length_m=0.42 * width,
                width_m=2.0 * scale,
                height_m=1.3,
            ),
            pipe_rack(
                0.58 * width,
                0.20 * depth,
                length_m=0.34 * width,
                width_m=1.8 * scale,
                height_m=1.2,
            ),
            chimney(0.30 * width, 0.85 * depth, side_m=max(0.8 * scale, 0.4), height_m=1.8),
            chimney(0.72 * width, 0.80 * depth, side_m=max(0.8 * scale, 0.4), height_m=1.6),
            hvac_unit(0.88 * width, 0.45 * depth, side_m=max(2.2 * scale, 0.8), height_m=1.5),
            _penthouse(0.42 * width, 0.40 * depth, side_m=max(3.4 * scale, 1.0), height_m=2.8),
        )
        + scattered_vents(
            width,
            depth,
            n_vents=_vent_count(width, depth),
            seed=11,
            margin_m=1.0 * scale,
            height_range_m=(0.6, 1.3),
        ),
        adjacent_structures=(
            _tall_section(width, depth, "east", extent_m=8.0 * scale, height_m=4.5),
            _tall_section(width, depth, "ridge", extent_m=5.0 * scale, height_m=2.0),
            _eave_parapet(width, height_m=0.6),
            _neighbour_building(
                width,
                depth,
                u_center=0.30 * width,
                distance_south_m=7.0 * scale,
                footprint_w_m=0.35 * width,
                footprint_d_m=12.0 * scale,
                height_m=5.5,
            ),
            _neighbour_building(
                width,
                depth,
                u_center=0.80 * width,
                distance_south_m=10.0 * scale,
                footprint_w_m=0.25 * width,
                footprint_d_m=10.0 * scale,
                height_m=4.0,
            ),
        ),
        surface_roughness_m=0.15,
        roughness_correlation_m=max(1.2 * scale, 0.6),
        roughness_seed=101,
    )


def roof2_spec(scale: float = 1.0) -> RoofSpec:
    """Roof 2: scattered equipment only; the largest usable area."""
    width = 59.6 * scale
    depth = 10.2 * scale
    return RoofSpec(
        name="roof2",
        width_m=width,
        depth_m=depth,
        tilt_deg=CASE_STUDY_TILT,
        azimuth_deg=CASE_STUDY_AZIMUTH,
        eave_height_m=7.0,
        edge_setback_m=0.4 * scale,
        obstacles=(
            chimney(0.18 * width, 0.75 * depth, side_m=max(0.9 * scale, 0.4), height_m=1.8),
            chimney(0.47 * width, 0.82 * depth, side_m=max(0.8 * scale, 0.4), height_m=1.5),
            hvac_unit(0.67 * width, 0.30 * depth, side_m=max(2.4 * scale, 0.8), height_m=1.6),
            skylight_row(
                0.78 * width,
                0.60 * depth,
                length_m=0.12 * width,
                width_m=1.2 * scale,
                height_m=0.5,
            ),
            _penthouse(0.32 * width, 0.45 * depth, side_m=max(3.6 * scale, 1.0), height_m=2.9),
            _penthouse(0.58 * width, 0.62 * depth, side_m=max(3.0 * scale, 1.0), height_m=2.6),
        )
        + scattered_vents(
            width,
            depth,
            n_vents=_vent_count(width, depth),
            seed=22,
            margin_m=1.0 * scale,
            height_range_m=(0.6, 1.3),
        ),
        adjacent_structures=(
            _tall_section(width, depth, "east", extent_m=7.0 * scale, height_m=5.0),
            _eave_parapet(width, height_m=0.65),
            _neighbour_building(
                width,
                depth,
                u_center=0.55 * width,
                distance_south_m=8.0 * scale,
                footprint_w_m=0.40 * width,
                footprint_d_m=12.0 * scale,
                height_m=6.0,
            ),
            _neighbour_building(
                width,
                depth,
                u_center=0.12 * width,
                distance_south_m=6.0 * scale,
                footprint_w_m=0.20 * width,
                footprint_d_m=10.0 * scale,
                height_m=4.5,
            ),
        ),
        surface_roughness_m=0.14,
        roughness_correlation_m=max(1.2 * scale, 0.6),
        roughness_seed=202,
    )


def roof3_spec(scale: float = 1.0) -> RoofSpec:
    """Roof 3: similar to Roof 2 with a vent row and a western obstruction."""
    width = 59.6 * scale
    depth = 10.4 * scale
    return RoofSpec(
        name="roof3",
        width_m=width,
        depth_m=depth,
        tilt_deg=CASE_STUDY_TILT,
        azimuth_deg=CASE_STUDY_AZIMUTH,
        eave_height_m=7.0,
        edge_setback_m=0.4 * scale,
        obstacles=(
            chimney(0.25 * width, 0.80 * depth, side_m=max(0.9 * scale, 0.4), height_m=1.7),
            chimney(0.55 * width, 0.78 * depth, side_m=max(0.8 * scale, 0.4), height_m=1.6),
            skylight_row(
                0.38 * width,
                0.35 * depth,
                length_m=0.15 * width,
                width_m=1.3 * scale,
                height_m=0.5,
            ),
            hvac_unit(0.84 * width, 0.55 * depth, side_m=max(2.6 * scale, 0.8), height_m=1.7),
            _penthouse(0.16 * width, 0.50 * depth, side_m=max(3.4 * scale, 1.0), height_m=2.8),
            _penthouse(0.66 * width, 0.40 * depth, side_m=max(3.2 * scale, 1.0), height_m=2.7),
        )
        + scattered_vents(
            width,
            depth,
            n_vents=_vent_count(width, depth),
            seed=33,
            margin_m=1.0 * scale,
            height_range_m=(0.6, 1.3),
        ),
        adjacent_structures=(
            _tall_section(width, depth, "east", extent_m=6.0 * scale, height_m=4.0),
            _tall_section(width, depth, "west", extent_m=3.0 * scale, height_m=2.5),
            _eave_parapet(width, height_m=0.6),
            _neighbour_building(
                width,
                depth,
                u_center=0.40 * width,
                distance_south_m=7.0 * scale,
                footprint_w_m=0.30 * width,
                footprint_d_m=12.0 * scale,
                height_m=5.0,
            ),
            _neighbour_building(
                width,
                depth,
                u_center=0.85 * width,
                distance_south_m=9.0 * scale,
                footprint_w_m=0.25 * width,
                footprint_d_m=10.0 * scale,
                height_m=5.5,
            ),
        ),
        surface_roughness_m=0.16,
        roughness_correlation_m=max(1.2 * scale, 0.6),
        roughness_seed=303,
    )


def case_study_specs(scale: float = 1.0) -> Dict[str, RoofSpec]:
    """The three case-study roof specifications, keyed by name."""
    return {
        "roof1": roof1_spec(scale),
        "roof2": roof2_spec(scale),
        "roof3": roof3_spec(scale),
    }


@dataclass
class CaseStudy:
    """Everything needed to run placement experiments on one roof."""

    name: str
    config: CaseStudyConfig
    scene: RoofScene
    grid: RoofGrid
    weather: WeatherSeries
    solar: RoofSolarField

    @property
    def n_valid(self) -> int:
        """Number of valid grid elements (Table I column Ng)."""
        return self.grid.n_valid


def prepare_case_study(
    spec: RoofSpec,
    config: CaseStudyConfig | None = None,
    weather: Optional[WeatherSeries] = None,
    cache: "StageCache | None" = None,
) -> CaseStudy:
    """Build the scene, suitable grid, weather and solar field for one roof.

    This is the end-to-end "solar data extraction" pipeline of the paper's
    Section IV applied to a synthetic roof; passing the same ``weather``
    object to several roofs mimics the paper's setup where the three
    adjacent buildings share the same weather station.  The stages run
    through :func:`repro.runner.stages.run_pipeline`; with a ``cache`` the
    expensive ones (scene, suitable grid, solar field) are memoised on disk
    and reused by any later run -- experiments, scenarios or benchmarks --
    sharing the same inputs.
    """
    from ..runner.cache import StageCache
    from ..runner.stages import STAGE_SCENE, STAGE_SOLAR, PipelineSources, run_pipeline

    cfg = config if config is not None else CaseStudyConfig()
    stage_cache = cache if cache is not None else StageCache(enabled=False)
    if weather is None:
        weather = generate_weather(cfg.time_grid(), SyntheticWeatherConfig(seed=cfg.weather_seed))

    sources = PipelineSources.from_objects(
        spec, weather, cfg.solar, cfg.dsm_pitch, cfg.grid_pitch
    )
    values = run_pipeline(sources, STAGE_SOLAR, stage_cache, {}, {})
    scene, solar = values[STAGE_SCENE], values[STAGE_SOLAR]
    return CaseStudy(
        name=spec.name,
        config=cfg,
        scene=scene,
        grid=solar.grid,
        weather=weather,
        solar=solar,
    )


def prepare_all_case_studies(
    config: CaseStudyConfig | None = None,
    cache: "StageCache | None" = None,
) -> Dict[str, CaseStudy]:
    """Prepare the three case-study roofs sharing one weather trace."""
    cfg = config if config is not None else CaseStudyConfig()
    weather = generate_weather(cfg.time_grid(), SyntheticWeatherConfig(seed=cfg.weather_seed))
    studies = {}
    for name, spec in case_study_specs(cfg.scale).items():
        studies[name] = prepare_case_study(spec, cfg, weather, cache=cache)
    return studies
