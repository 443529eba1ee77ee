"""Weather-series CSV writer.

A minimal, dependency-free exchange format for weather traces: one row per
time sample with day-of-year, hour, GHI and ambient temperature (plus DNI
and DHI when available).  This is the shape of data a Weather Underground
export or a campus weather station provides after basic cleaning.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from ..weather.records import WeatherSeries

PathLike = Union[str, Path]

_BASE_FIELDS = ("day_of_year", "hour", "ghi_w_m2", "temperature_c")
_OPTIONAL_FIELDS = ("dni_w_m2", "dhi_w_m2")


def write_weather_csv(series: WeatherSeries, path: PathLike) -> None:
    """Write a weather series to CSV (one row per time sample)."""
    has_decomposition = series.has_decomposition
    fields = list(_BASE_FIELDS) + (list(_OPTIONAL_FIELDS) if has_decomposition else [])
    with Path(path).open("w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["# station", series.station.name, series.station.latitude_deg,
             series.station.longitude_deg, series.station.altitude_m]
        )
        writer.writerow(
            ["# grid", series.time_grid.step_minutes, series.time_grid.day_stride]
        )
        writer.writerow(fields)
        for index in range(series.n_samples):
            row = [
                f"{series.time_grid.days_of_year[index]:.0f}",
                f"{series.time_grid.hours[index]:.4f}",
                f"{series.ghi[index]:.3f}",
                f"{series.temperature[index]:.3f}",
            ]
            if has_decomposition:
                row.append(f"{series.dni[index]:.3f}")
                row.append(f"{series.dhi[index]:.3f}")
            writer.writerow(row)
