"""Experiment drivers: case-study roofs and per-table/figure reproductions."""

from .figures import (
    IVCurveFamily,
    IrradianceMapFigure,
    ModuleCharacteristics,
    OverheadCharacterisation,
    PlacementFigure,
    figure2_iv_curves,
    figure3_module_characteristics,
    figure6_irradiance_map,
    figure7_all,
    figure7_placements,
    overhead_characterisation,
)
from .roofs import (
    CaseStudy,
    CaseStudyConfig,
    case_study_specs,
    prepare_all_case_studies,
    prepare_case_study,
    roof1_spec,
    roof2_spec,
    roof3_spec,
)
from .runtime import RuntimeSample, runtime_sweep, summarize_runtime
from .table1 import (
    PAPER_TABLE1,
    Table1Config,
    Table1SweepResults,
    run_table1_sweep,
    table1_sweep_plan,
)

__all__ = [
    "IVCurveFamily",
    "IrradianceMapFigure",
    "ModuleCharacteristics",
    "OverheadCharacterisation",
    "PlacementFigure",
    "figure2_iv_curves",
    "figure3_module_characteristics",
    "figure6_irradiance_map",
    "figure7_all",
    "figure7_placements",
    "overhead_characterisation",
    "CaseStudy",
    "CaseStudyConfig",
    "case_study_specs",
    "prepare_all_case_studies",
    "prepare_case_study",
    "roof1_spec",
    "roof2_spec",
    "roof3_spec",
    "RuntimeSample",
    "runtime_sweep",
    "summarize_runtime",
    "PAPER_TABLE1",
    "Table1Config",
    "Table1SweepResults",
    "run_table1_sweep",
    "table1_sweep_plan",
]
