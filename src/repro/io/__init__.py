"""I/O layer: DSM (.asc) and weather CSV writers, placement JSON."""

from .asc_grid import write_asc
from .placement_json import (
    placement_from_dict,
    placement_to_dict,
    save_placement,
)
from .weather_csv import write_weather_csv

__all__ = [
    "write_asc",
    "placement_from_dict",
    "placement_to_dict",
    "save_placement",
    "write_weather_csv",
]
