"""Unit tests of the fault-injection switchboard (:mod:`repro.faults`).

The chaos campaigns in ``test_chaos.py`` prove the *recovery* machinery;
these tests pin the injector semantics themselves: the ``REPRO_FAULTS``
spec grammar, per-clause counters (``times``/``after``/``match``/``p``),
atomic cross-process firing claims, environment (re)configuration, and the
action of each fault site.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.faults import InjectedFault, configure, configure_from_env, fire, parse_plan
from repro.runner.batch import retry_backoff_delay


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


class TestParsePlan:
    def test_empty_spec_disables(self):
        assert parse_plan("") is None
        assert parse_plan("   ;  ; ") is None

    def test_bare_site_defaults(self):
        plan = parse_plan("solver.error")
        (spec,) = plan.specs
        assert spec.site == "solver.error"
        assert (spec.times, spec.match, spec.after) == (1, "*", 0)
        assert spec.p is None
        assert spec.sleep_s == 3600.0

    def test_full_parameterisation(self):
        plan = parse_plan(
            "worker.hang:match=fleet-*,times=3,after=2,sleep=0.5;"
            "solver.error:p=0.25,seed=7"
        )
        hang, err = plan.specs
        assert (hang.site, hang.times, hang.match, hang.after) == (
            "worker.hang", 3, "fleet-*", 2,
        )
        assert hang.sleep_s == 0.5
        assert (err.p, err.seed) == (0.25, 7)
        # Clause position disambiguates same-site clauses in state files.
        assert hang.injector_id == "worker.hang.0"
        assert err.injector_id == "solver.error.1"

    def test_unknown_site_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            parse_plan("solver.exploder")

    def test_unknown_parameter_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="unknown fault parameter"):
            parse_plan("worker.hang:sleep_s=60")

    def test_malformed_parameter_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="malformed fault parameter"):
            parse_plan("worker.crash:times")

    def test_non_numeric_value_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="invalid fault parameter"):
            parse_plan("worker.crash:times=lots")

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="times must be >= 1"):
            parse_plan("worker.crash:times=0")

    def test_probability_range_checked(self):
        with pytest.raises(ConfigurationError, match="p must be in"):
            parse_plan("solver.error:p=1.5")


# ---------------------------------------------------------------------------
# Injector counters
# ---------------------------------------------------------------------------


class TestFiringSemantics:
    def test_times_bounds_firings(self):
        plan = parse_plan("solver.error:times=2")
        fired = [plan.should_fire("solver.error", "k") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_match_filters_by_key(self):
        plan = parse_plan("solver.error:match=fleet-*,times=10")
        assert plan.should_fire("solver.error", "other") is None
        assert plan.should_fire("solver.error", "fleet-3") is not None
        # Other sites never consult this clause.
        assert plan.should_fire("worker.crash", "fleet-3") is None

    def test_after_skips_leading_calls(self):
        plan = parse_plan("solver.error:after=2,times=1")
        fired = [plan.should_fire("solver.error", "k") is not None for _ in range(4)]
        assert fired == [False, False, True, False]

    def test_probability_stream_is_deterministic(self):
        def draws(seed: int) -> list:
            plan = parse_plan(f"solver.error:p=0.5,seed={seed},times=1000")
            return [
                plan.should_fire("solver.error", "k") is not None for _ in range(40)
            ]

        first, second = draws(3), draws(3)
        assert first == second  # same seed, same stream
        assert any(first) and not all(first)  # p=0.5 actually gates
        assert draws(4) != first  # seed participates

    def test_state_dir_claims_are_exclusive(self, tmp_path):
        # Two plans (modelling two processes) race for times=3 slots: the
        # fleet-wide total must be exactly 3, no matter who fires.
        a = parse_plan("solver.error:times=3", state_dir=tmp_path)
        b = parse_plan("solver.error:times=3", state_dir=tmp_path)
        fired = 0
        for _ in range(5):
            fired += a.should_fire("solver.error", "k") is not None
            fired += b.should_fire("solver.error", "k") is not None
        assert fired == 3
        assert len(list(tmp_path.iterdir())) == 3  # one claim file per slot


# ---------------------------------------------------------------------------
# Process-wide switchboard
# ---------------------------------------------------------------------------


class TestConfigure:
    def test_fire_is_inert_without_a_plan(self):
        assert not faults.faults_enabled()
        assert fire("solver.error", key="k") is False

    def test_configure_arms_and_disarms(self):
        configure("cache.corrupt:times=1")
        assert faults.faults_enabled()
        assert fire("cache.corrupt", key="k") is True
        configure(None)
        assert not faults.faults_enabled()

    def test_env_reconfigure_is_idempotent(self, monkeypatch):
        # Same environment: keep the armed plan's spent counters, do not
        # re-arm (a worker re-entering configure_from_env must not get a
        # fresh ``times`` budget).
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=1")
        plan = configure_from_env()
        with pytest.raises(InjectedFault):
            fire("solver.error", key="k")  # spends the only slot
        assert configure_from_env() is plan
        assert fire("solver.error", key="k") is False  # still spent

    def test_env_change_rearms(self, monkeypatch):
        # A *changed* spec must re-arm: the armed plan reflects the current
        # environment, not whichever test/worker configured first.
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=1")
        configure_from_env()
        with pytest.raises(InjectedFault):
            fire("solver.error", key="k")
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=1,match=k")
        configure_from_env()
        with pytest.raises(InjectedFault):
            fire("solver.error", key="k")

    def test_env_cleared_disarms(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=5")
        configure_from_env()
        assert faults.faults_enabled()
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert configure_from_env() is None
        assert not faults.faults_enabled()
        assert fire("solver.error", key="k") is False

    def test_state_dir_change_rearms(self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=1")
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "a"))
        plan = configure_from_env()
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "b"))
        replacement = configure_from_env()
        assert replacement is not plan
        assert replacement.state_dir == tmp_path / "b"


class TestFireActions:
    def test_solver_error_raises_injected_fault(self):
        configure("solver.error:times=1")
        with pytest.raises(InjectedFault, match="injected transient solver error"):
            fire("solver.error", key="k")
        assert fire("solver.error", key="k") is False  # budget spent

    def test_store_io_raises_operational_error(self):
        configure("store.io:times=1")
        with pytest.raises(sqlite3.OperationalError, match="injected store I/O"):
            fire("store.io", key="k")

    def test_cache_corrupt_returns_true_for_the_call_site(self):
        configure("cache.corrupt:times=1")
        assert fire("cache.corrupt", key="solar_field") is True
        assert fire("cache.corrupt", key="solar_field") is False

    def test_worker_hang_sleeps_for_the_configured_duration(self):
        import time

        configure("worker.hang:times=1,sleep=0.05")
        start = time.perf_counter()
        assert fire("worker.hang", key="k") is True
        assert time.perf_counter() - start >= 0.05


# ---------------------------------------------------------------------------
# Retry backoff (the other half of transient-fault absorption)
# ---------------------------------------------------------------------------


class TestRetryBackoffDelay:
    def test_zero_base_means_immediate_retry(self):
        assert retry_backoff_delay(0.0, 5, "digest") == 0.0

    def test_deterministic_per_key_and_attempt(self):
        first = retry_backoff_delay(1.0, 2, "abc")
        assert retry_backoff_delay(1.0, 2, "abc") == first
        assert retry_backoff_delay(1.0, 3, "abc") != first
        assert retry_backoff_delay(1.0, 2, "abd") != first

    def test_exponential_envelope_with_bounded_jitter(self):
        for attempt in range(5):
            nominal = 0.5 * 2**attempt
            delay = retry_backoff_delay(0.5, attempt, "digest")
            assert 0.5 * nominal <= delay < 1.5 * nominal
