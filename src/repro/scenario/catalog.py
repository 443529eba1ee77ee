"""Built-in scenario catalog.

A dozen named, ready-to-run scenarios spanning the workload space the
ROADMAP asks the system to serve: residential and industrial roofs, an
east/west orientation split, a shared-roof fleet (three scenarios that hash
to the same scene/solar content keys, so the batch runner computes the
expensive stages once), a high-latitude site, a heavily shaded courtyard
roof, a sparse-obstacle warehouse, and an ILP-solved exact instance.

All catalog entries are deliberately sized so the *entire* catalog runs in
well under a minute on a laptop (coarse DSM raster, two-hourly sampling of
every 30th day): they exercise every code path end to end and serve as the
fleet for the batch-runner benchmark, while custom JSON scenarios scale the
same machinery up to paper-sized instances.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigurationError
from ..geometry.polygon import Polygon
from ..gis.roof import (
    AdjacentStructure,
    RoofSpec,
    antenna,
    chimney,
    dormer,
    hvac_unit,
    pipe_rack,
    skylight_row,
    vent,
)
from .spec import ScenarioSpec, SolarSpec, SolverSpec, TimeSpec, WeatherSpec

#: Temporal sampling shared by the catalog: two-hourly samples of every 30th
#: day (156 samples) -- fast, yet an unbiased yearly estimate.
_CATALOG_TIME = TimeSpec(step_minutes=120.0, day_stride=30)

#: Coarser irradiance options used by the catalog (the defaults resolve the
#: paper-scale roofs; the catalog roofs are small enough for 24 sectors).
_CATALOG_SOLAR = SolarSpec(n_horizon_sectors=24, horizon_max_distance_m=40.0)

#: Virtual-grid pitch of the catalog scenarios: 0.4 m puts the paper module
#: on a 4 x 2 cell footprint and keeps the grids small.
_CATALOG_PITCH = 0.4

#: The industrial roofs' vent field: ``scattered_vents(18.0, 8.0, n_vents=6,
#: seed=9)`` written out, so loading the catalog draws no random numbers
#: (a test pins the two equal).
_INDUSTRIAL_VENTS = (
    vent(
        3.8885980895282035,
        2.1162709763575998,
        side_m=0.45550681658403575,
        height_m=0.8618888900309372,
    ),
    vent(
        7.518579111048557,
        3.247684216882914,
        side_m=0.48364752580975245,
        height_m=1.0162361895097307,
    ),
    vent(
        9.863810562722234,
        2.3870464002331158,
        side_m=0.3130308394740215,
        height_m=0.7909665961863729,
    ),
    vent(
        13.813502521630543,
        3.0951185865482627,
        side_m=0.4569219705345359,
        height_m=1.0899813465717054,
    ),
    vent(
        2.557448375947856,
        5.869600668261017,
        side_m=0.4481496965751497,
        height_m=0.679508643918948,
    ),
    vent(
        6.471393327395889,
        6.008663647590637,
        side_m=0.4972477098560477,
        height_m=1.092644448136746,
    ),
)


def _residential_roof(
    name: str, azimuth_deg: float = 0.0, tilt_deg: float = 30.0
) -> RoofSpec:
    """A 12 m x 6 m gable facet with a chimney, a dormer and an antenna."""
    return RoofSpec(
        name=name,
        width_m=12.0,
        depth_m=6.0,
        tilt_deg=tilt_deg,
        azimuth_deg=azimuth_deg,
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(
            chimney(2.5, 4.5, side_m=0.8, height_m=1.6),
            dormer(8.0, 2.0, width_m=1.8, depth_m=1.4, height_m=1.6),
            antenna(10.8, 5.0, side_m=0.3, height_m=2.5),
        ),
        surface_roughness_m=0.05,
        roughness_correlation_m=1.0,
        roughness_seed=17,
    )


def _industrial_roof(name: str, with_pipes: bool) -> RoofSpec:
    """A 18 m x 8 m lean-to industrial facet, optionally crossed by pipe racks."""
    obstacles = (
        chimney(4.0, 6.5, side_m=0.8, height_m=1.7),
        hvac_unit(14.5, 3.0, side_m=2.2, height_m=1.5),
        skylight_row(8.0, 5.5, length_m=3.0, width_m=1.2, height_m=0.5),
    )
    if with_pipes:
        obstacles = obstacles + (
            pipe_rack(2.0, 3.2, length_m=8.0, width_m=1.6, height_m=1.2),
        )
    return RoofSpec(
        name=name,
        width_m=18.0,
        depth_m=8.0,
        tilt_deg=26.0,
        azimuth_deg=10.0,
        eave_height_m=7.0,
        edge_setback_m=0.4,
        obstacles=obstacles + _INDUSTRIAL_VENTS,
        surface_roughness_m=0.10,
        roughness_correlation_m=1.2,
        roughness_seed=42,
    )


def _fleet_roof() -> RoofSpec:
    """The shared roof of the ``fleet-*`` scenarios (identical content key)."""
    return RoofSpec(
        name="fleet-roof",
        width_m=14.0,
        depth_m=7.0,
        tilt_deg=28.0,
        azimuth_deg=-5.0,
        eave_height_m=6.0,
        edge_setback_m=0.3,
        obstacles=(
            chimney(3.5, 5.5, side_m=0.8, height_m=1.5),
            hvac_unit(10.5, 2.5, side_m=2.0, height_m=1.4),
        ),
        surface_roughness_m=0.06,
        roughness_correlation_m=1.0,
        roughness_seed=7,
    )


def _heavy_shading_roof() -> RoofSpec:
    """A courtyard facet hemmed in by taller building sections on three sides."""
    width, depth = 13.0, 6.5
    return RoofSpec(
        name="courtyard",
        width_m=width,
        depth_m=depth,
        tilt_deg=22.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(
            chimney(4.0, 4.8, side_m=0.9, height_m=1.8),
            chimney(9.0, 5.2, side_m=0.8, height_m=1.6),
        ),
        adjacent_structures=(
            AdjacentStructure(
                name="east-wing",
                polygon=Polygon.rectangle(width, -2.0, width + 6.0, depth + 2.0),
                height_m=6.0,
            ),
            AdjacentStructure(
                name="ridge-wing",
                polygon=Polygon.rectangle(-2.0, depth, width + 2.0, depth + 5.0),
                height_m=4.0,
            ),
            AdjacentStructure(
                name="south-neighbour",
                polygon=Polygon.rectangle(1.0, -9.0, 9.0, -4.0),
                height_m=5.0,
            ),
        ),
        surface_roughness_m=0.08,
        roughness_correlation_m=1.0,
        roughness_seed=23,
    )


def _sparse_roof() -> RoofSpec:
    """A clean warehouse facet: nothing on the roof but the edge setback."""
    return RoofSpec(
        name="warehouse",
        width_m=16.0,
        depth_m=8.0,
        tilt_deg=15.0,
        azimuth_deg=0.0,
        eave_height_m=8.0,
        edge_setback_m=0.4,
    )


def _high_latitude_roof() -> RoofSpec:
    """A steep facet at a subarctic site (low sun, long shadows)."""
    return RoofSpec(
        name="nordic",
        width_m=11.0,
        depth_m=6.0,
        tilt_deg=45.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(chimney(3.0, 4.5, side_m=0.8, height_m=1.8),),
        surface_roughness_m=0.05,
        roughness_correlation_m=1.0,
        roughness_seed=31,
    )


def _ilp_roof() -> RoofSpec:
    """A tiny facet sized for the exact solvers."""
    return RoofSpec(
        name="ilp-mini",
        width_m=7.0,
        depth_m=4.0,
        tilt_deg=30.0,
        azimuth_deg=0.0,
        eave_height_m=4.0,
        edge_setback_m=0.2,
        obstacles=(chimney(2.0, 3.0, side_m=0.6, height_m=1.4),),
    )


def _scenario(name: str, roof: RoofSpec, n_modules: int, **kwargs) -> ScenarioSpec:
    """Catalog entry with the shared catalog-wide defaults applied."""
    kwargs.setdefault("time", _CATALOG_TIME)
    kwargs.setdefault("solar", _CATALOG_SOLAR)
    kwargs.setdefault("grid_pitch", _CATALOG_PITCH)
    kwargs.setdefault("dsm_pitch", 0.5)
    return ScenarioSpec(name=name, roof=roof, n_modules=n_modules, **kwargs)


def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """The built-in catalog, keyed by scenario name (insertion-ordered)."""
    fleet_roof = _fleet_roof()
    fleet_weather = WeatherSpec(seed=11)
    scenarios = [
        _scenario(
            "residential-south",
            _residential_roof("residential-south"),
            n_modules=6,
            n_series=3,
            description="12 m gable facet facing south; the quickstart workload.",
            tags=("residential",),
        ),
        _scenario(
            "residential-compact",
            _residential_roof("residential-compact", tilt_deg=35.0),
            n_modules=4,
            n_series=2,
            solver=SolverSpec(name="traditional"),
            description="Small residential roof planned with the compact baseline.",
            tags=("residential", "baseline"),
        ),
        _scenario(
            "ew-split-east",
            _residential_roof("ew-east", azimuth_deg=-90.0),
            n_modules=6,
            n_series=3,
            description="East-facing half of an east/west split installation.",
            tags=("residential", "east-west"),
        ),
        _scenario(
            "ew-split-west",
            _residential_roof("ew-west", azimuth_deg=90.0),
            n_modules=6,
            n_series=3,
            description="West-facing half of an east/west split installation.",
            tags=("residential", "east-west"),
        ),
        _scenario(
            "industrial-pipes",
            _industrial_roof("industrial-pipes", with_pipes=True),
            n_modules=8,
            n_series=4,
            description="Industrial facet crossed by pipe racks (paper Roof 1 style).",
            tags=("industrial",),
        ),
        _scenario(
            "industrial-clean",
            _industrial_roof("industrial-clean", with_pipes=False),
            n_modules=10,
            n_series=5,
            description="Industrial facet with scattered equipment only (Roof 2 style).",
            tags=("industrial",),
        ),
        _scenario(
            "fleet-a-n6",
            fleet_roof,
            n_modules=6,
            n_series=3,
            weather=fleet_weather,
            description="Fleet roof, 6 modules; shares scene/solar cache with fleet-*.",
            tags=("fleet",),
        ),
        _scenario(
            "fleet-b-n8",
            fleet_roof,
            n_modules=8,
            n_series=4,
            weather=fleet_weather,
            description="Fleet roof, 8 modules; solar field reused from the cache.",
            tags=("fleet",),
        ),
        _scenario(
            "fleet-c-baseline",
            fleet_roof,
            n_modules=6,
            n_series=3,
            weather=fleet_weather,
            solver=SolverSpec(name="traditional"),
            description="Fleet roof planned with the compact baseline for comparison.",
            tags=("fleet", "baseline"),
        ),
        _scenario(
            "high-latitude",
            _high_latitude_roof(),
            n_modules=5,
            n_series=5,
            weather=WeatherSpec(
                station_name="subarctic",
                latitude_deg=65.0,
                longitude_deg=25.5,
                altitude_m=90.0,
                seed=3,
            ),
            description="Steep roof at 65 degrees north; low sun, long shadows.",
            tags=("high-latitude",),
        ),
        _scenario(
            "heavy-shading",
            _heavy_shading_roof(),
            n_modules=5,
            n_series=5,
            description="Courtyard facet shaded by taller wings on three sides.",
            tags=("shading",),
        ),
        _scenario(
            "sparse-warehouse",
            _sparse_roof(),
            n_modules=12,
            n_series=6,
            description="Obstacle-free warehouse roof; placement is wiring-bound.",
            tags=("industrial", "sparse"),
        ),
        _scenario(
            "ilp-exact-mini",
            _ilp_roof(),
            n_modules=3,
            n_series=3,
            solver=SolverSpec(name="ilp", options={"time_limit_s": 20.0}),
            description="Tiny instance solved to ILP optimality (HiGHS).",
            tags=("exact",),
        ),
    ]
    catalog = {}
    for scenario in scenarios:
        if scenario.name in catalog:
            raise ConfigurationError(f"duplicate catalog scenario {scenario.name!r}")
        catalog[scenario.name] = scenario
    return catalog
