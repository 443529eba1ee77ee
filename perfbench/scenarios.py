"""Seeded input generator owned by the benchmark.

Every workload's inputs are built here from the seed alone, out of the
program's public roof helpers.  The seed moves what a real fleet varies --
obstacle positions and heights, neighbouring buildings, site latitude and
longitude, the weather seed, the roof's surface roughness -- but never a
roof's outline, tilt or azimuth, nor the obstacle count.  Those fix the DSM
raster, the virtual grid and the kernels' work, so runs with different seeds
cost the same and their spread measures the machine, not the inputs.  The
ILP slice goes further and keeps one obstacle layout for every seed, since
the ILP's solve time follows the layout.

Sizing rules the program imposes:

* ``n_modules`` is a multiple of ``n_series`` (otherwise ``TopologyError``);
* the modules cover at most :data:`MAX_COVER` of a roof's area -- greedy
  placement runs out of room well before the roof is full (it raises
  ``InfeasiblePlacementError`` at 32 modules on a 12 x 6 m roof).

``python3 -m perfbench.scenarios --seeds 0-9`` plans every generated point
once and reports any that fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Polygon
from repro.gis.synthetic import (
    AdjacentStructure,
    RoofSpec,
    chimney,
    dormer,
    hvac_unit,
    pipe_rack,
    scattered_vents,
    skylight_row,
)
from repro.runner.stages import scenario_content_digest
from repro.scenario import ScenarioSpec, SolarSpec, SolverSpec, TimeSpec, WeatherSpec
from repro.sweep import SweepAxis, SweepPlan

#: The paper's resolution: 20 cm virtual grid on a 40 cm DSM, hourly samples
#: of every 7th day, 36 horizon sectors.
TIME = TimeSpec(step_minutes=60.0, day_stride=7)
SOLAR = SolarSpec(n_horizon_sectors=36)
GRID_PITCH = 0.2
DSM_PITCH = 0.4

MODULE_AREA_M2 = 1.6 * 0.8  # pv-mf165eb3
MAX_COVER = 0.3

#: Offset between a seed and its held-out twin in the generator self-check.
HELD_OUT_OFFSET = 7919


@dataclass(frozen=True)
class Slot:
    """A roof archetype: fixed outline and obstacle counts, seeded details."""

    name: str
    kind: str  # "residential" or "industrial"
    width_m: float
    depth_m: float
    tilt_deg: float
    azimuth_deg: float
    n_series: int


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def _residential_obstacles(rng: random.Random, w: float, d: float) -> tuple:
    return (
        chimney(rng.uniform(0.15, 0.3) * w, rng.uniform(0.65, 0.8) * d,
                side_m=0.8, height_m=rng.uniform(1.2, 1.8)),
        dormer(rng.uniform(0.55, 0.75) * w, rng.uniform(0.35, 0.5) * d,
               width_m=1.8, depth_m=1.4, height_m=rng.uniform(1.2, 1.8)),
    )


def _industrial_obstacles(rng: random.Random, w: float, d: float) -> tuple:
    n_units = max(1, int(w // 20))
    obstacles = []
    for index in range(n_units):
        band = w / n_units
        obstacles.append(
            hvac_unit((index + rng.uniform(0.3, 0.7)) * band, rng.uniform(0.55, 0.75) * d,
                      side_m=2.0, height_m=rng.uniform(1.2, 1.8))
        )
        obstacles.append(
            skylight_row((index + rng.uniform(0.05, 0.25)) * band, rng.uniform(0.15, 0.3) * d,
                         length_m=0.25 * band, width_m=1.2, height_m=0.5)
        )
    if w >= 24:
        obstacles.append(
            pipe_rack(rng.uniform(0.1, 0.2) * w, rng.uniform(0.4, 0.45) * d,
                      length_m=0.35 * w, width_m=1.0, height_m=rng.uniform(0.8, 1.2))
        )
    vents = scattered_vents(w, d, n_vents=int(w * d // 40), seed=rng.randrange(1 << 30))
    return tuple(obstacles) + vents


def _neighbour(rng: random.Random, w: float) -> AdjacentStructure:
    """A building south of the eave whose shadow reaches the roof in winter."""
    start = rng.uniform(0.1, 0.4) * w
    return AdjacentStructure(
        name="south-neighbour",
        polygon=Polygon.rectangle(start, -7.0, start + 0.4 * w, -4.0),
        height_m=rng.uniform(2.0, 5.0),
    )


def make_roof(slot: Slot, rng: random.Random, name: str) -> RoofSpec:
    w, d = slot.width_m, slot.depth_m
    if slot.kind == "residential":
        obstacles = _residential_obstacles(rng, w, d)
    else:
        obstacles = _industrial_obstacles(rng, w, d)
    return RoofSpec(
        name=name,
        width_m=w,
        depth_m=d,
        tilt_deg=slot.tilt_deg,
        azimuth_deg=slot.azimuth_deg,
        eave_height_m=5.0 if slot.kind == "residential" else 8.0,
        edge_setback_m=0.3 if slot.kind == "residential" else 0.4,
        obstacles=obstacles,
        adjacent_structures=(_neighbour(rng, w),),
        surface_roughness_m=0.05,
        roughness_correlation_m=1.0,
        roughness_seed=rng.randrange(1 << 30),
    )


def make_weather(rng: random.Random) -> WeatherSpec:
    return WeatherSpec(
        seed=rng.randrange(1 << 30),
        station_name="bench-site",
        latitude_deg=round(rng.uniform(38.0, 52.0), 3),
        longitude_deg=round(rng.uniform(5.0, 15.0), 3),
    )


def max_modules(slot: Slot) -> int:
    """Largest multiple of ``n_series`` within :data:`MAX_COVER` of the roof."""
    fits = int(MAX_COVER * slot.width_m * slot.depth_m / MODULE_AREA_M2)
    return (fits // slot.n_series) * slot.n_series


def make_spec(
    slot: Slot, seed: int, tag: str, n_modules: int, solver: SolverSpec,
    layout_seed: Optional[int] = None,
) -> ScenarioSpec:
    """A seeded scenario; ``layout_seed`` fixes the roof's obstacles apart from ``seed``."""
    if n_modules % slot.n_series or not 0 < n_modules <= max_modules(slot):
        raise ValueError(f"{slot.name}: {n_modules} modules do not fit the sizing rules")
    rng = _rng(tag, slot.name, seed)
    roof_rng = rng if layout_seed is None else _rng(tag, slot.name, "layout", layout_seed)
    name = f"{tag}-{slot.name}-s{seed}"
    return ScenarioSpec(
        name=name,
        roof=make_roof(slot, roof_rng, name),
        n_modules=n_modules,
        n_series=slot.n_series,
        grid_pitch=GRID_PITCH,
        dsm_pitch=DSM_PITCH,
        time=TIME,
        weather=make_weather(rng),
        solar=SOLAR,
        solver=solver,
    )


GREEDY = SolverSpec(name="greedy")
TRADITIONAL = SolverSpec(name="traditional")
ILP = SolverSpec(name="ilp", options={"time_limit_s": 60.0})

# -- cold-roofs: residential (~10 x 5 m) to paper-industrial (~60 x 10 m) ------

COLD_SLOTS = (
    Slot("res-small", "residential", 10.0, 5.0, 30.0, 0.0, 4),
    Slot("res-large", "residential", 14.0, 7.0, 30.0, 15.0, 4),
    Slot("commercial", "industrial", 24.0, 8.0, 15.0, -10.0, 8),
    Slot("industrial", "industrial", 40.0, 10.0, 10.0, 5.0, 8),
    Slot("paper-industrial", "industrial", 57.0, 10.0, 10.0, 0.0, 8),
)


def cold_roofs(seed: int) -> List[ScenarioSpec]:
    """One greedy scenario per cold slot, smallest first."""
    return [
        make_spec(slot, seed, "cold", max_modules(slot) * 2 // 3 // slot.n_series * slot.n_series,
                  GREEDY)
        for slot in COLD_SLOTS
    ]


# -- warm-sweep: an n_modules ladder x {greedy, traditional}, plus an ILP slice --

SWEEP_SLOTS = (
    Slot("res-a", "residential", 10.0, 5.0, 30.0, 0.0, 2),
    Slot("res-b", "residential", 12.0, 6.0, 25.0, 10.0, 2),
    Slot("res-c", "residential", 14.0, 6.0, 35.0, -10.0, 2),
)
ILP_SLOT = Slot("ilp-mini", "residential", 8.0, 4.5, 30.0, 0.0, 2)
#: Below the cover rule on purpose: the ILP finds no placement for 8
#: modules on some seeded layouts of this roof.
ILP_LADDER = (2, 4, 6)
#: The ILP's solve time follows the obstacle layout (0.10-0.19 s per slice
#: over five seeded layouts, 0.09-0.11 s over six weathers on one layout),
#: so the slice keeps one layout and takes only latitude and weather from
#: the seed.
ILP_LAYOUT_SEED = 0
LADDER_STEPS = 4


def _ladder(slot: Slot, steps: int) -> Tuple[int, ...]:
    top = max_modules(slot)
    stride = max(slot.n_series, (top // steps) // slot.n_series * slot.n_series)
    return tuple(top - stride * (steps - 1 - i) for i in range(steps))


def sweep_plans(seed: int) -> List[SweepPlan]:
    """One ladder x solver plan per sweep slot, then the ILP slice."""
    plans = []
    for slot in SWEEP_SLOTS:
        ladder = _ladder(slot, LADDER_STEPS)
        plans.append(
            SweepPlan(
                name=f"sweep-{slot.name}-s{seed}",
                base=make_spec(slot, seed, "sweep", ladder[0], GREEDY),
                axes=(
                    SweepAxis("n_modules", ladder),
                    SweepAxis("solver.name", ("greedy", "traditional")),
                ),
            )
        )
    plans.append(
        SweepPlan(
            name=f"sweep-{ILP_SLOT.name}-s{seed}",
            base=make_spec(ILP_SLOT, seed, "sweep", ILP_LADDER[0], ILP,
                           layout_seed=ILP_LAYOUT_SEED),
            axes=(SweepAxis("n_modules", ILP_LADDER),),
        )
    )
    return plans


# -- service: a completed hit set and novel misses ------------------------------

HIT_SLOTS = (
    Slot("hit-a", "residential", 10.0, 5.0, 30.0, 0.0, 2),
    Slot("hit-b", "residential", 11.0, 5.5, 25.0, 20.0, 2),
    Slot("hit-c", "residential", 12.0, 6.0, 35.0, -15.0, 2),
    Slot("hit-d", "residential", 9.0, 5.0, 30.0, 5.0, 2),
)
MISS_SLOT = Slot("miss", "residential", 10.0, 5.0, 30.0, 0.0, 2)


def hit_set(seed: int) -> List[ScenarioSpec]:
    """Scenarios completed during set-up and then requested as hits."""
    specs = []
    for index, slot in enumerate(HIT_SLOTS):
        solver = GREEDY if index % 2 == 0 else TRADITIONAL
        specs.append(make_spec(slot, seed, "hit", max_modules(slot) // 2 // 2 * 2, solver))
    return specs


def novel_scenario(seed: int, index: int) -> ScenarioSpec:
    """The ``index``-th miss of a run: a roof no earlier request has seen."""
    return make_spec(MISS_SLOT, seed * 100_003 + index, "miss", 6, GREEDY)


# -- representations and the self-check -----------------------------------------


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


def request_bodies(spec: ScenarioSpec) -> List[bytes]:
    """Equivalent ``POST /v1/plan`` bodies: canonical, reordered, shorthand."""
    canonical = spec.to_dict()
    reordered = _reversed_keys(canonical)
    shorthand = dict(reordered)
    shorthand["solver"] = spec.solver.name
    if spec.solver.options:
        shorthand = reordered  # the shorthand form cannot carry options
    return [json.dumps({"scenario": form}).encode("utf-8")
            for form in (canonical, reordered, shorthand)]


def workload_specs(workload: str, seed: int) -> List[ScenarioSpec]:
    """Every scenario a workload's run plans for ``seed`` (misses: the first 4)."""
    if workload == "cold-roofs":
        return cold_roofs(seed)
    if workload == "warm-sweep":
        return [spec for plan in sweep_plans(seed) for spec in plan.specs()]
    if workload == "service":
        return hit_set(seed) + [novel_scenario(seed, i) for i in range(4)]
    raise ValueError(f"unknown workload {workload!r}")


def document_bytes(specs: Sequence[ScenarioSpec]) -> bytes:
    return json.dumps([spec.to_dict() for spec in specs], sort_keys=True).encode("utf-8")


def self_check(workload: str, seed: int) -> List[str]:
    """Problems with the generator for this seed (an empty list means none).

    The same seed must give byte-identical scenario documents, and a
    held-out seed must give a disjoint set of content digests.
    """
    problems = []
    first = workload_specs(workload, seed)
    if document_bytes(first) != document_bytes(workload_specs(workload, seed)):
        problems.append(f"{workload}: seed {seed} does not reproduce byte-identical documents")
    digests = {scenario_content_digest(spec) for spec in first}
    if len(digests) != len(first):
        problems.append(f"{workload}: seed {seed} generates duplicate scenarios")
    held_out = {
        scenario_content_digest(spec)
        for spec in workload_specs(workload, seed + HELD_OUT_OFFSET)
    }
    if digests & held_out:
        problems.append(f"{workload}: seeds {seed} and {seed + HELD_OUT_OFFSET} share scenarios")
    return problems


def documents_digest(workload: str, seed: int) -> str:
    return hashlib.sha256(document_bytes(workload_specs(workload, seed))).hexdigest()[:16]


def _feasibility(seeds: Sequence[int]) -> Dict[str, str]:
    """Plan every generated scenario once (no cache); name -> error."""
    from repro.runner.stages import run_scenario

    failures = {}
    for seed in seeds:
        for workload in ("cold-roofs", "warm-sweep", "service"):
            for problem in self_check(workload, seed):
                failures[f"{workload}:{seed}"] = problem
            for spec in workload_specs(workload, seed):
                try:
                    result = run_scenario(spec, use_cache=False)
                    if not result.annual_energy_mwh > 0:
                        failures[spec.name] = "no energy"
                except Exception as exc:  # noqa: BLE001 -- report every failure
                    failures[spec.name] = f"{type(exc).__name__}: {exc}"
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-4", help="inclusive range, e.g. 0-9")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    failures = _feasibility(seeds)
    for name, error in sorted(failures.items()):
        print(f"FAIL {name}: {error}")
    print(f"{len(failures)} failure(s) over seeds {args.seeds}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    from perfbench.sandbox import Sandbox

    with Sandbox("feasibility"):
        sys.exit(main())
