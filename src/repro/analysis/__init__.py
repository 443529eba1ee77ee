"""Analysis and reporting layer: energy break-downs, maps, tables, comparisons."""

from .compare import (
    PlacementShapeMetrics,
    StringUniformityMetrics,
    overlap_fraction,
    placement_shape_metrics,
    string_uniformity,
)
from .energy import (
    MONTH_NAMES,
    MonthlyEnergy,
    capacity_factor,
    monthly_energy,
    month_of_day,
)
from .maps import (
    ascii_heatmap,
    downsample_map,
    map_statistics,
    placement_ascii,
    spatial_variation_coefficient,
)
from .report import Table1Report, Table1Row, format_comparison_table

__all__ = [
    "PlacementShapeMetrics",
    "StringUniformityMetrics",
    "overlap_fraction",
    "placement_shape_metrics",
    "string_uniformity",
    "MONTH_NAMES",
    "MonthlyEnergy",
    "capacity_factor",
    "monthly_energy",
    "month_of_day",
    "ascii_heatmap",
    "downsample_map",
    "map_statistics",
    "placement_ascii",
    "spatial_variation_coefficient",
    "Table1Report",
    "Table1Row",
    "format_comparison_table",
]
