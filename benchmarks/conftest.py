"""Shared fixtures for the benchmark harness.

Every table and figure of the paper has a bench module here.  The case-study
roofs are prepared once per session at a reduced resolution (hourly samples
of every 14th day, DSM at 0.5 m) so the full harness runs in a couple of
minutes; the placement grids keep the paper's 20 cm pitch and full roof
size, so Ng and the placement behaviour match the full-scale experiment.
Passing ``--paper-scale`` through the environment variable
``REPRO_PAPER_SCALE=1`` switches to the paper's 15-minute/every-day time
base (slow; needs a few GB of RAM).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.experiments import CaseStudyConfig, Table1Config, prepare_all_case_studies
from repro.solar import SolarSimulationConfig

# The oracles the kernel benches compare against live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def _benchmark_case_config() -> CaseStudyConfig:
    if os.environ.get("REPRO_PAPER_SCALE") == "1":
        return CaseStudyConfig(scale=1.0, time_step_minutes=15.0, day_stride=1)
    return CaseStudyConfig(
        scale=1.0,
        grid_pitch=0.2,
        dsm_pitch=0.4,
        time_step_minutes=60.0,
        day_stride=7,
        solar=SolarSimulationConfig(),
    )


@pytest.fixture(scope="session")
def case_config() -> CaseStudyConfig:
    """Resolution configuration used by every case-study bench."""
    return _benchmark_case_config()


@pytest.fixture(scope="session")
def table1_config(case_config) -> Table1Config:
    """The Table I experiment configuration."""
    return Table1Config(module_counts=(16, 32), series_length=8, case_study=case_config)


@pytest.fixture(scope="session")
def case_studies(case_config):
    """The three paper roofs, prepared once and shared by all benches."""
    return prepare_all_case_studies(case_config)
