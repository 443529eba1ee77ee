"""Core contribution: the GIS-driven PV floorplanning algorithms."""

from .constraints import (
    DistanceThreshold,
    all_feasible_anchors,
    anchor_center,
    anchors_overlapping_placement,
    feasible_anchor_mask,
    footprint_fits,
    mark_occupied,
    sliding_window_sum,
)
from .evaluation import (
    PlacementComparison,
    PlacementEvaluation,
    PlacementEvaluator,
    compare_placements,
    evaluate_placement,
    module_irradiance_series,
)
from .exhaustive import ExhaustiveConfig, ExhaustiveResult, exhaustive_floorplan
from .greedy import GreedyConfig, GreedyResult, greedy_floorplan
from .ilp import ILPConfig, ILPResult, ilp_floorplan
from .placement import (
    ModuleFootprint,
    ModulePlacement,
    Placement,
    footprint_from_module,
)
from .problem import FloorplanProblem, build_problem, default_topology
from .suitability import (
    SuitabilityConfig,
    SuitabilityMap,
    compute_suitability,
    footprint_suitability,
)
from .traditional import TraditionalConfig, TraditionalResult, traditional_floorplan

__all__ = [
    "DistanceThreshold",
    "all_feasible_anchors",
    "anchor_center",
    "anchors_overlapping_placement",
    "feasible_anchor_mask",
    "footprint_fits",
    "mark_occupied",
    "sliding_window_sum",
    "PlacementComparison",
    "PlacementEvaluation",
    "PlacementEvaluator",
    "compare_placements",
    "evaluate_placement",
    "module_irradiance_series",
    "ExhaustiveConfig",
    "ExhaustiveResult",
    "exhaustive_floorplan",
    "GreedyConfig",
    "GreedyResult",
    "greedy_floorplan",
    "ILPConfig",
    "ILPResult",
    "ilp_floorplan",
    "ModuleFootprint",
    "ModulePlacement",
    "Placement",
    "footprint_from_module",
    "FloorplanProblem",
    "build_problem",
    "default_topology",
    "SuitabilityConfig",
    "SuitabilityMap",
    "compute_suitability",
    "footprint_suitability",
    "TraditionalConfig",
    "TraditionalResult",
    "traditional_floorplan",
]
