"""repro: GIS-based optimal PV panel floorplanning (DATE 2018 reproduction).

The package reproduces the system described in

    S. Vinco, L. Bottaccioli, E. Patti, A. Acquaviva, E. Macii, M. Poncino,
    "GIS-Based Optimal Photovoltaic Panel Floorplanning for Residential
    Installations", DATE 2018.

High-level usage (see also ``examples/quickstart.py``)::

    from repro import plan_roof
    from repro.gis import simple_residential_roof

    result = plan_roof(simple_residential_roof(), n_modules=8)
    print(result.report())

Scenario fleets run through the batch runner (or ``python -m repro campaign run``)::

    from repro.runner import run_batch
    from repro.scenario import builtin_scenarios

    batch = run_batch(list(builtin_scenarios().values()), jobs=4)

Sub-packages
------------
``repro.geometry``    points, polygons, rasters, roof-plane frames
``repro.gis``         DSM handling, synthetic scenes, suitable-area extraction
``repro.solar``       sun position, clear-sky / decomposition / transposition
                      models, DSM shading, roof irradiance fields
``repro.weather``     synthetic weather (clearness, temperature) generation
``repro.pv``          cell/module/array electrical models, thermal model,
                      wiring
``repro.core``        the floorplanning algorithms (greedy, traditional, ILP,
                      exhaustive) and the energy evaluator
``repro.analysis``    reports, maps, structural placement metrics
``repro.io``          DSM (.asc) and weather CSV writers, placement JSON
``repro.scenario``    declarative, JSON-round-trippable scenario specs and
                      the built-in scenario catalog
``repro.runner``      content-hash stage cache, solver registry, cached
                      staged pipeline, parallel batch runner, campaign store
``repro.sweep``       declarative sweep engine (axis grids over scenarios),
                      aggregation and deterministic report presets
``repro.experiments`` the paper's case studies and per-table/figure drivers
``repro.cli``         the ``repro`` / ``python -m repro`` command line
"""

from __future__ import annotations

from ._lazy import lazy_exports

__version__ = "1.0.0"

# The names below load on first use (PEP 562): ``import repro.cli`` or
# ``import repro.scenario`` does not import the pipeline, nor numpy.
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {".plan": ("RoofPlanResult", "plan_roof"), ".solar.time_series": ("TimeGrid",)},
)
__all__.insert(0, "__version__")
