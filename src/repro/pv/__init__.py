"""PV electrical substrate: cells, modules, arrays, thermal, wiring."""

from .array import PanelOperatingPoint, PVArray, SeriesParallelTopology
from .cell import SingleDiodeCell, reference_cell_for_module
from .datasheet import (
    COMPACT_200W,
    DATASHEETS,
    GENERIC_300W,
    PV_MF165EB3,
    ModuleDatasheet,
    get_datasheet,
)
from .module import EmpiricalModuleModel, paper_module_model
from .thermal import CellTemperatureModel
from .wiring import (
    WiringOverheadReport,
    WiringSpec,
    annual_energy_loss_wh,
    resistive_power_loss,
    string_extra_length,
    wiring_overhead_report,
)

__all__ = [
    "PanelOperatingPoint",
    "PVArray",
    "SeriesParallelTopology",
    "SingleDiodeCell",
    "reference_cell_for_module",
    "COMPACT_200W",
    "DATASHEETS",
    "GENERIC_300W",
    "PV_MF165EB3",
    "ModuleDatasheet",
    "get_datasheet",
    "EmpiricalModuleModel",
    "paper_module_model",
    "CellTemperatureModel",
    "WiringOverheadReport",
    "WiringSpec",
    "annual_energy_loss_wh",
    "resistive_power_loss",
    "string_extra_length",
    "wiring_overhead_report",
]
