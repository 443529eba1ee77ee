"""Series/parallel module interconnection and panel-level power extraction.

The total power of a panel made of an ``m x n`` series-parallel
interconnection (n parallel strings of m series modules) is *not* the sum of
the module powers.  Following the paper (Section III-B1):

    Vpanel = min_j ( sum_i V_module,ij )          (strings share the bus voltage)
    Ipanel = sum_j ( min_i I_module,ij )          (a string's current is capped by
                                                   its weakest module)
    Ppanel = Vpanel * Ipanel

The "min over modules of the string current" term is the bottleneck effect
that makes the floorplanner's series-first, irradiance-uniform strings pay
off; the evaluator therefore always aggregates through this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TopologyError


@dataclass(frozen=True)
class SeriesParallelTopology:
    """An ``m x n`` series/parallel interconnection.

    Attributes
    ----------
    n_series:
        Number of modules connected in series within each string (``m``).
    n_parallel:
        Number of parallel strings (``n``).

    Module ordering convention (series-first, as in the paper's algorithm):
    module ``k`` belongs to string ``k // m`` at series position ``k % m``.
    """

    n_series: int
    n_parallel: int

    def __post_init__(self) -> None:
        if self.n_series < 1 or self.n_parallel < 1:
            raise TopologyError("both m (series) and n (parallel) must be >= 1")

    @property
    def n_modules(self) -> int:
        """Total number of modules N = m * n."""
        return self.n_series * self.n_parallel

    def string_of(self, module_index: int) -> int:
        """String index of a module (series-first ordering)."""
        self._check_module_index(module_index)
        return module_index // self.n_series

    def modules_of_string(self, string_index: int) -> list[int]:
        """Module indices belonging to a string, in series order."""
        if not 0 <= string_index < self.n_parallel:
            raise TopologyError(
                f"string index {string_index} out of range [0, {self.n_parallel})"
            )
        start = string_index * self.n_series
        return list(range(start, start + self.n_series))

    def _check_module_index(self, module_index: int) -> None:
        if not 0 <= module_index < self.n_modules:
            raise TopologyError(
                f"module index {module_index} out of range [0, {self.n_modules})"
            )

    @classmethod
    def for_modules(cls, n_modules: int, n_series: int) -> "SeriesParallelTopology":
        """Build the topology for ``n_modules`` with strings of ``n_series``.

        Raises
        ------
        TopologyError
            If ``n_modules`` is not a multiple of ``n_series``.
        """
        if n_series < 1 or n_modules < 1:
            raise TopologyError("module counts must be positive")
        if n_modules % n_series != 0:
            raise TopologyError(
                f"{n_modules} modules cannot be arranged in strings of {n_series}"
            )
        return cls(n_series=n_series, n_parallel=n_modules // n_series)


@dataclass(frozen=True)
class PanelOperatingPoint:
    """Aggregate panel electrical state (arrays over time or scalars)."""

    voltage_v: np.ndarray
    current_a: np.ndarray
    power_w: np.ndarray
    string_currents_a: np.ndarray
    string_voltages_v: np.ndarray


@dataclass(frozen=True)
class PVArray:
    """A panel: a set of identical modules in a series/parallel topology."""

    topology: SeriesParallelTopology

    # -- aggregation from per-module electrical values --------------------------------

    def aggregate(
        self, module_voltages: np.ndarray, module_currents: np.ndarray
    ) -> PanelOperatingPoint:
        """Aggregate per-module (V, I) into the panel operating point.

        Parameters
        ----------
        module_voltages, module_currents:
            Arrays whose last axis has length ``N = m*n`` (series-first
            ordering); any leading axes (e.g. time) are preserved.
        """
        voltages = np.asarray(module_voltages, dtype=float)
        currents = np.asarray(module_currents, dtype=float)
        n = self.topology.n_modules
        if voltages.shape != currents.shape:
            raise TopologyError("module voltage and current arrays must have the same shape")
        if voltages.shape[-1] != n:
            raise TopologyError(
                f"last axis must have length N={n}, got {voltages.shape[-1]}"
            )
        new_shape = voltages.shape[:-1] + (self.topology.n_parallel, self.topology.n_series)
        v = voltages.reshape(new_shape)
        i = currents.reshape(new_shape)

        string_voltages = np.sum(v, axis=-1)
        string_currents = np.min(i, axis=-1)
        panel_voltage = np.min(string_voltages, axis=-1)
        panel_current = np.sum(string_currents, axis=-1)
        panel_power = panel_voltage * panel_current
        return PanelOperatingPoint(
            voltage_v=panel_voltage,
            current_a=panel_current,
            power_w=panel_power,
            string_currents_a=string_currents,
            string_voltages_v=string_voltages,
        )
