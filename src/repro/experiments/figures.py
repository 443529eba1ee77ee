"""Experiment drivers for the paper's figures (E1, E2, E3, E5, E6).

Each function regenerates the *data* behind one figure -- curves, maps, or
placement layouts -- and returns it in plain numpy/dict form so benchmarks
can print the series and tests can assert their qualitative shape.  (The
paper shows raster images; in a plotting-free environment the arrays plus
the ASCII renderings of :mod:`repro.analysis.maps` are the equivalents.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analysis.maps import ascii_heatmap, placement_ascii, spatial_variation_coefficient
from ..core import build_problem, compare_placements
from ..errors import ConfigurationError
from ..pv.cell import SingleDiodeCell, reference_cell_for_module
from ..pv.module import EmpiricalModuleModel, paper_module_model
from ..pv.wiring import WiringSpec, annual_energy_loss_wh, resistive_power_loss
from ..runner.solvers import solve
from .roofs import CaseStudy
from .table1 import Table1Config


# ---------------------------------------------------------------------------
# E1 -- Figure 2(a): cell I-V curves vs irradiance and temperature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IVCurveFamily:
    """A family of I-V curves at several irradiance / temperature points."""

    irradiances: tuple
    temperatures: tuple
    curves: Dict[tuple, tuple]

    def curve(self, irradiance: float, temperature: float) -> tuple:
        """The (voltages, currents) arrays of one condition."""
        return self.curves[(irradiance, temperature)]


def figure2_iv_curves(
    cell: SingleDiodeCell | None = None,
    irradiances: tuple = (200.0, 400.0, 600.0, 800.0, 1000.0),
    temperatures: tuple = (25.0, 50.0, 75.0),
) -> IVCurveFamily:
    """Cell I-V curves across irradiance (fixed T) and temperature (fixed G)."""
    device = cell if cell is not None else reference_cell_for_module()
    curves: Dict[tuple, tuple] = {}
    for irradiance in irradiances:
        curves[(irradiance, temperatures[0])] = device.iv_curve(irradiance, temperatures[0])
    for temperature in temperatures:
        curves[(irradiances[-1], temperature)] = device.iv_curve(irradiances[-1], temperature)
    return IVCurveFamily(
        irradiances=tuple(irradiances), temperatures=tuple(temperatures), curves=curves
    )


# ---------------------------------------------------------------------------
# E2 -- Figure 3: module power characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleCharacteristics:
    """Normalised Voc/Isc/Pmax vs irradiance and vs temperature."""

    irradiances: np.ndarray
    voc_vs_g: np.ndarray
    isc_vs_g: np.ndarray
    pmax_vs_g: np.ndarray
    temperatures: np.ndarray
    voc_vs_t: np.ndarray
    isc_vs_t: np.ndarray
    pmax_vs_t: np.ndarray


def figure3_module_characteristics(
    model: EmpiricalModuleModel | None = None,
    irradiances: np.ndarray | None = None,
    temperatures: np.ndarray | None = None,
) -> ModuleCharacteristics:
    """Reproduce the normalised characteristic curves of the paper's Figure 3."""
    module = model if model is not None else paper_module_model()
    g = irradiances if irradiances is not None else np.linspace(100.0, 1000.0, 19)
    t = temperatures if temperatures is not None else np.linspace(0.0, 75.0, 16)

    voc_g, isc_g, pmax_g = module.normalized_characteristics(g, cell_temperature_c=25.0)

    g_stc = np.full_like(t, 1000.0)
    voc_t = module.open_circuit_voltage(g_stc, t) / module.datasheet.v_oc_ref
    isc_t = module.short_circuit_current(g_stc, t) / module.datasheet.i_sc_ref
    pmax_t = module.power_at_cell_temperature(g_stc, t) / module.datasheet.p_max_ref

    return ModuleCharacteristics(
        irradiances=np.asarray(g, dtype=float),
        voc_vs_g=voc_g,
        isc_vs_g=isc_g,
        pmax_vs_g=pmax_g,
        temperatures=np.asarray(t, dtype=float),
        voc_vs_t=voc_t,
        isc_vs_t=isc_t,
        pmax_vs_t=pmax_t,
    )


# ---------------------------------------------------------------------------
# E3 -- Figure 4 / Section V-C: wiring overhead characterisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadCharacterisation:
    """Wiring overhead figures of merit as a function of extra cable length."""

    lengths_m: np.ndarray
    power_loss_w: np.ndarray
    annual_loss_wh: np.ndarray
    cost: np.ndarray
    loss_per_metre_w: float


def overhead_characterisation(
    lengths_m: np.ndarray | None = None,
    current_a: float = 4.0,
    spec: WiringSpec | None = None,
) -> OverheadCharacterisation:
    """Power/energy/cost overhead vs extra cable length (paper Section V-C)."""
    wiring = spec if spec is not None else WiringSpec()
    lengths = lengths_m if lengths_m is not None else np.linspace(0.0, 40.0, 21)
    power = np.array(
        [resistive_power_loss(float(length), current_a, wiring) for length in lengths]
    )
    energy = np.array(
        [annual_energy_loss_wh(float(length), current_a, spec=wiring) for length in lengths]
    )
    cost = lengths * wiring.cost_per_m
    return OverheadCharacterisation(
        lengths_m=np.asarray(lengths, dtype=float),
        power_loss_w=power,
        annual_loss_wh=energy,
        cost=cost,
        loss_per_metre_w=resistive_power_loss(1.0, current_a, wiring),
    )


# ---------------------------------------------------------------------------
# E5 -- Figure 6(b): irradiance-percentile maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrradianceMapFigure:
    """75th-percentile irradiance map of one roof plus summary metrics."""

    roof: str
    percentile_map: np.ndarray
    ascii_rendering: str
    variation_coefficient: float
    n_valid: int


def figure6_irradiance_map(study: CaseStudy, percentile: float = 75.0) -> IrradianceMapFigure:
    """Compute the Figure 6(b) map of one prepared case study."""
    values = study.solar.percentile_map(percentile)
    return IrradianceMapFigure(
        roof=study.name,
        percentile_map=values,
        ascii_rendering=ascii_heatmap(values),
        variation_coefficient=spatial_variation_coefficient(values),
        n_valid=study.grid.n_valid,
    )


# ---------------------------------------------------------------------------
# E6 -- Figure 7: traditional vs proposed placements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementFigure:
    """The two placements of one roof at a given N, with their renderings."""

    roof: str
    n_modules: int
    traditional_map: np.ndarray
    proposed_map: np.ndarray
    traditional_ascii: str
    proposed_ascii: str
    improvement_percent: float


def figure7_placements(
    study: CaseStudy, n_modules: int = 32, config: Table1Config | None = None
) -> PlacementFigure:
    """Generate the traditional and proposed placements of one roof (Fig. 7).

    The proposed placement comes from ``config.solver``, as in Table I.
    """
    cfg = config if config is not None else Table1Config()
    if n_modules < 1:
        raise ConfigurationError("n_modules must be positive")
    problem = build_problem(
        study.solar,
        n_modules,
        cfg.series_length,
        cfg.datasheet,
        label=f"{study.name}-N{n_modules}",
    )
    traditional = solve(problem, "traditional")
    proposed = solve(problem, cfg.solver, suitability=traditional.suitability)
    comparison = compare_placements(problem, traditional.placement, proposed.placement)
    shape = problem.grid.shape
    return PlacementFigure(
        roof=study.name,
        n_modules=n_modules,
        traditional_map=traditional.placement.string_map(shape),
        proposed_map=proposed.placement.string_map(shape),
        traditional_ascii=placement_ascii(traditional.placement, shape),
        proposed_ascii=placement_ascii(proposed.placement, shape),
        improvement_percent=comparison.improvement_percent,
    )


def figure7_all(studies: Dict[str, CaseStudy], n_modules: int = 32) -> List[PlacementFigure]:
    """Figure 7 for every prepared roof."""
    return [figure7_placements(study, n_modules) for study in studies.values()]
