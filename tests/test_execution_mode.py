"""Property: the way a batch executes never changes its answer.

Small, coarse roofs are drawn the way the benchmark's generator draws its
fleets -- a fixed outline with a seeded chimney, a seeded neighbouring
building, site and weather -- and each drawn fleet runs serial
(``jobs=1``) and pooled (``jobs=2``), cold, warm and uncached
(``use_cache=False``).  Every run must give the same fingerprints.  An
uncached run must also leave no trace on disk: nothing under the handle's
root and nothing under ``$REPRO_CACHE_DIR``.  Consecutive pooled batches
run on one reused worker pool and must give the answer a freshly forked
pool gives.

The entry point does not change the answer either: ``plan_roof`` of a drawn
roof is ``run_scenario`` of the equivalent spec, and whichever of the two
runs second on a shared cache reads the other's solar field and
suitability map.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plan_roof
from repro.geometry import Polygon
from repro.gis.synthetic import AdjacentStructure, RoofSpec, chimney
from repro.io.placement_json import placement_to_dict
from repro.runner import StageCache, run_batch, run_scenario
from repro.runner import batch as batch_module
from repro.scenario import ScenarioSpec, SolarSpec, SolverSpec, TimeSpec, WeatherSpec

CACHED_STAGES = {"scene", "grid", "solar", "suitability"}


@st.composite
def coarse_specs(draw, index: int) -> ScenarioSpec:
    width = draw(st.sampled_from((6.0, 7.0, 8.0)))
    depth = draw(st.sampled_from((4.0, 4.5)))
    name = f"mode-{index}"
    neighbour_start = draw(st.floats(0.1, 0.4)) * width
    roof = RoofSpec(
        name=name,
        width_m=width,
        depth_m=depth,
        tilt_deg=draw(st.sampled_from((20.0, 30.0))),
        azimuth_deg=draw(st.sampled_from((-15.0, 0.0, 15.0))),
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(
            chimney(
                draw(st.floats(0.15, 0.3)) * width,
                draw(st.floats(0.65, 0.8)) * depth,
                side_m=0.8,
                height_m=draw(st.floats(1.2, 1.8)),
            ),
        ),
        adjacent_structures=(
            AdjacentStructure(
                name="south-neighbour",
                polygon=Polygon.rectangle(
                    neighbour_start, -7.0, neighbour_start + 0.4 * width, -4.0
                ),
                height_m=draw(st.floats(2.0, 5.0)),
            ),
        ),
        surface_roughness_m=0.05,
        roughness_correlation_m=1.0,
        roughness_seed=draw(st.integers(0, 1 << 20)),
    )
    return ScenarioSpec(
        name=name,
        roof=roof,
        n_modules=2,
        n_series=2,
        grid_pitch=0.4,
        dsm_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=60),
        weather=WeatherSpec(
            seed=draw(st.integers(0, 1 << 20)),
            station_name="property-site",
            latitude_deg=draw(st.floats(38.0, 52.0)),
            longitude_deg=draw(st.floats(5.0, 15.0)),
        ),
        solar=SolarSpec(n_horizon_sectors=8, horizon_max_distance_m=20.0),
        solver=SolverSpec(name=draw(st.sampled_from(("greedy", "traditional")))),
    )


def _fingerprints(batch):
    return [result.fingerprint() for result in batch.results]


@settings(max_examples=5, deadline=None)
@given(specs=st.tuples(coarse_specs(0), coarse_specs(1)))
def test_execution_mode_never_changes_the_answer(specs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        default_dir = root / "default"
        with mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": str(default_dir)}):
            serial = run_batch(specs, cache=root / "serial", jobs=1)
            pooled = run_batch(specs, cache=root / "pooled", jobs=2)
            warm = run_batch(specs, cache=root / "serial", jobs=2)
            handle = StageCache(root=root / "unused")
            uncached_serial = run_batch(specs, cache=handle, jobs=1, use_cache=False)
            uncached_pooled = run_batch(specs, cache=handle, jobs=2, use_cache=False)

        expected = _fingerprints(serial)
        assert _fingerprints(pooled) == expected
        assert _fingerprints(warm) == expected
        assert _fingerprints(uncached_serial) == expected
        assert _fingerprints(uncached_pooled) == expected

        # The warm run read every cached stage the serial run wrote.
        assert all(all(r.stage_cached.values()) for r in warm.results)
        for batch in (uncached_serial, uncached_pooled):
            assert batch.cache_dir is None
            for result in batch.results:
                assert result.stage_cached == dict.fromkeys(CACHED_STAGES, False)
        assert not handle.root.exists()
        assert not default_dir.exists()


@settings(max_examples=3, deadline=None)
@given(specs=st.tuples(coarse_specs(0), coarse_specs(1)))
def test_a_reused_pool_gives_the_fresh_pool_answer(specs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        serial = run_batch(specs, cache=root / "serial", jobs=1)
        batch_module.discard_idle_pool()
        fresh = run_batch(specs, cache=root / "fresh", jobs=2)
        pool = batch_module._IDLE[1]
        # Cold caches, so the reused workers compute every stage again.
        reused = [run_batch(specs, cache=root / f"reused-{i}", jobs=2) for i in range(2)]
        assert batch_module._IDLE[1] is pool

    expected = _fingerprints(serial)
    for batch in (fresh, *reused):
        assert _fingerprints(batch) == expected


@settings(max_examples=5, deadline=None)
@given(drawn=coarse_specs(0), plan_first=st.booleans())
def test_plan_roof_is_run_scenario_of_its_spec(drawn, plan_first):
    # plan_roof names the weather by its seed alone (the default station).
    spec = dataclasses.replace(drawn, weather=WeatherSpec(seed=drawn.weather.seed))
    with tempfile.TemporaryDirectory() as tmp:
        cache = StageCache(root=Path(tmp))

        def plan():
            return plan_roof(
                spec.roof,
                n_modules=spec.n_modules,
                n_series=spec.n_series,
                grid_pitch=spec.grid_pitch,
                time_grid=spec.time.build(),
                weather_seed=spec.weather.seed,
                solar=spec.solar,
                solver=spec.solver.name,
                cache=cache,
            )

        if plan_first:
            planned = plan()
            result = run_scenario(spec, cache=cache)
            second = result.stage_cached
        else:
            result = run_scenario(spec, cache=cache)
            planned = plan()
            second = planned.stage_cached

    assert second["solar"] and second["suitability"]
    expected = result.fingerprint()
    placement = placement_to_dict(planned.proposed.placement)
    placement.pop("metadata", None)
    assert placement == expected["placement"]
    assert planned.problem.grid.n_valid == expected["n_valid_cells"]
    assert planned.comparison.candidate.annual_energy_mwh == expected["annual_energy_mwh"]
    assert planned.comparison.baseline.annual_energy_mwh == expected["baseline_energy_mwh"]
