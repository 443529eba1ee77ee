"""Floorplanning problem definition.

Bundles every input of the paper's problem statement (Section III-A): the
available surface aligned to the virtual grid, the spatio-temporal
irradiance/temperature data, the module to be placed (geometry + electrical
model), the number of modules N, and the series/parallel topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import DEFAULT_DISTANCE_THRESHOLD_FACTOR, DEFAULT_SUITABILITY_PERCENTILE
from ..errors import InfeasiblePlacementError, PlacementError
from ..gis.gridding import RoofGrid
from ..pv.array import PVArray, SeriesParallelTopology
from ..pv.datasheet import ModuleDatasheet, PV_MF165EB3
from ..pv.module import EmpiricalModuleModel
from ..solar.irradiance_map import RoofSolarField
from .placement import ModuleFootprint, footprint_from_module


@dataclass(frozen=True)
class FloorplanProblem:
    """An instance of the PV floorplanning problem.

    Attributes
    ----------
    grid:
        Roof virtual grid restricted to the suitable area (Ng valid cells).
    solar:
        Per-cell irradiance and ambient temperature time series.
    n_modules:
        Number of identical modules to place (N).
    topology:
        Series/parallel interconnection (m x n with m*n = N).
    datasheet:
        Module mechanical/electrical datasheet; the electrical model
        (:attr:`module_model`) is the paper's, built on it.
    allow_rotation:
        Whether modules may be rotated by 90 degrees during placement.
    suitability_percentile:
        Percentile of the irradiance distribution used by the suitability
        metric (the paper uses the 75th).
    distance_threshold_factor:
        Multiplier of the average placed-module distance used by the
        greedy algorithm's dispersion filter (the paper uses 2).
    """

    grid: RoofGrid
    solar: RoofSolarField
    n_modules: int
    topology: SeriesParallelTopology
    datasheet: ModuleDatasheet = PV_MF165EB3
    allow_rotation: bool = False
    suitability_percentile: float = DEFAULT_SUITABILITY_PERCENTILE
    distance_threshold_factor: float = DEFAULT_DISTANCE_THRESHOLD_FACTOR
    label: str = "problem"

    def __post_init__(self) -> None:
        if self.n_modules < 1:
            raise PlacementError("at least one module must be placed")
        if self.topology.n_modules != self.n_modules:
            raise PlacementError(
                f"topology provides {self.topology.n_modules} slots but "
                f"{self.n_modules} modules are requested"
            )
        if self.solar.grid is not self.grid and self.solar.grid.shape != self.grid.shape:
            raise PlacementError("solar field and grid describe different roofs")
        if not 0.0 < self.suitability_percentile < 100.0:
            raise PlacementError("suitability percentile must be in (0, 100)")
        if self.distance_threshold_factor <= 0:
            raise PlacementError("distance threshold factor must be positive")
        footprint = footprint_from_module(
            self.datasheet.width_m, self.datasheet.height_m, self.grid.pitch
        )
        object.__setattr__(self, "_footprint", footprint)
        required = footprint.n_cells * self.n_modules
        if required > self.grid.n_valid:
            raise InfeasiblePlacementError(
                f"{self.n_modules} modules need {required} valid cells but the "
                f"suitable area only has {self.grid.n_valid}"
            )

    # -- derived quantities -----------------------------------------------------------

    @property
    def footprint(self) -> ModuleFootprint:
        """Module footprint in grid cells (landscape orientation)."""
        return self._footprint  # type: ignore[attr-defined]

    @property
    def module_model(self) -> EmpiricalModuleModel:
        """The paper's electrical module model (Section III-B1) of ``datasheet``."""
        return EmpiricalModuleModel(datasheet=self.datasheet)

    @property
    def array(self) -> PVArray:
        """The series/parallel interconnection of the modules."""
        return PVArray(topology=self.topology)

    @property
    def nameplate_power_w(self) -> float:
        """Installed STC power of the N modules [W]."""
        return self.n_modules * self.datasheet.p_max_ref


def default_topology(n_modules: int, n_series: int = 8) -> SeriesParallelTopology:
    """The paper's default topology: strings of 8 modules in series.

    Falls back to a single string when fewer than ``n_series`` modules are
    requested.
    """
    if n_modules < 1:
        raise PlacementError("n_modules must be positive")
    if n_modules < n_series:
        return SeriesParallelTopology(n_series=n_modules, n_parallel=1)
    return SeriesParallelTopology.for_modules(n_modules, n_series)


def build_problem(
    solar: RoofSolarField,
    n_modules: int,
    n_series: int = 8,
    datasheet: ModuleDatasheet = PV_MF165EB3,
    allow_rotation: bool = False,
    label: str = "problem",
) -> FloorplanProblem:
    """The floorplanning problem of placing ``n_modules`` on a roof's solar field.

    The modules form strings of ``n_series`` (:func:`default_topology`); the
    grid is the one the field was computed on.
    """
    return FloorplanProblem(
        grid=solar.grid,
        solar=solar,
        n_modules=n_modules,
        topology=default_topology(n_modules, n_series),
        datasheet=datasheet,
        allow_rotation=allow_rotation,
        label=label,
    )
