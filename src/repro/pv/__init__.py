"""PV electrical substrate: cells, modules, arrays, thermal, wiring.

The names below load on first use (PEP 562), so the datasheet registry
(:mod:`repro.pv.datasheet`) imports without the numpy-backed models.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".array": ("PanelOperatingPoint", "PVArray", "SeriesParallelTopology"),
        ".cell": ("SingleDiodeCell", "reference_cell_for_module"),
        ".datasheet": (
            "COMPACT_200W",
            "DATASHEETS",
            "GENERIC_300W",
            "PV_MF165EB3",
            "ModuleDatasheet",
            "get_datasheet",
        ),
        ".module": ("EmpiricalModuleModel", "paper_module_model"),
        ".thermal": ("CellTemperatureModel",),
        ".wiring": (
            "WiringOverheadReport",
            "WiringSpec",
            "annual_energy_loss_wh",
            "resistive_power_loss",
            "string_extra_length",
            "wiring_overhead_report",
        ),
    },
)
