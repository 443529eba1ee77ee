"""Core contribution: the GIS-driven PV floorplanning algorithms."""

from .constraints import (
    DistanceThreshold,
    anchor_center,
    feasible_anchor_mask,
    mark_occupied,
    sliding_window_sum,
)
from .evaluation import (
    PlacementComparison,
    PlacementEvaluation,
    PlacementEvaluator,
    compare_placements,
    evaluate_placement,
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
)
from .traditional import TraditionalResult, traditional_floorplan

__all__ = [
    "DistanceThreshold",
    "anchor_center",
    "feasible_anchor_mask",
    "mark_occupied",
    "sliding_window_sum",
    "PlacementComparison",
    "PlacementEvaluation",
    "PlacementEvaluator",
    "compare_placements",
    "evaluate_placement",
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
    "TraditionalResult",
    "traditional_floorplan",
]
