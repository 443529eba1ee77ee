"""Solar substrate: sun geometry, radiation models, shading, irradiance maps."""

from .clearsky import (
    ClearSkyIrradiance,
    beam_normal_clearsky,
    clearsky_irradiance,
    diffuse_horizontal_clearsky,
    rayleigh_optical_thickness,
    relative_air_mass,
)
from .decomposition import (
    DecompositionResult,
    clearness_index,
    decompose_ghi,
    erbs_diffuse_fraction,
)
from .irradiance_map import (
    RoofSolarField,
    SolarSimulationConfig,
    compute_roof_solar_field,
)
from .linke import LinkeTurbidityProfile
from .position import (
    SolarPosition,
    compute_solar_position,
    solar_declination,
    solar_elevation_azimuth,
)
from .shading import HorizonMap, compute_horizon_map
from .time_series import CompressedTimeGrid, TimeGrid, paper_time_grid
from .transposition import (
    PlaneOfArrayIrradiance,
    beam_on_plane,
    hay_davies_sky_diffuse,
    incidence_cosine,
    ground_reflected,
    plane_of_array,
)

__all__ = [
    "ClearSkyIrradiance",
    "beam_normal_clearsky",
    "clearsky_irradiance",
    "diffuse_horizontal_clearsky",
    "rayleigh_optical_thickness",
    "relative_air_mass",
    "DecompositionResult",
    "clearness_index",
    "decompose_ghi",
    "erbs_diffuse_fraction",
    "RoofSolarField",
    "SolarSimulationConfig",
    "compute_roof_solar_field",
    "LinkeTurbidityProfile",
    "SolarPosition",
    "compute_solar_position",
    "solar_declination",
    "solar_elevation_azimuth",
    "HorizonMap",
    "compute_horizon_map",
    "CompressedTimeGrid",
    "TimeGrid",
    "paper_time_grid",
    "PlaneOfArrayIrradiance",
    "beam_on_plane",
    "hay_davies_sky_diffuse",
    "incidence_cosine",
    "ground_reflected",
    "plane_of_array",
]
