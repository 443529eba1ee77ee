"""Deterministic, seedable fault injection for chaos testing.

Proving that the campaign substrate *recovers* from worker deaths, hangs,
corrupt cache entries and flaky stores requires injecting those faults on
demand -- waiting for a real OOM kill is not a test plan.  This module is
the single switchboard: production code calls :func:`fire` at a handful of
*fault sites* and the call is a no-op (one attribute load and a falsy
check) unless the ``REPRO_FAULTS`` environment variable arms a plan.  The
disabled path is benchmark-asserted to be free, exactly like telemetry's
null span (``benchmarks/test_bench_faults.py``).

Spec grammar
------------
``REPRO_FAULTS`` holds ``;``-separated injector clauses::

    REPRO_FAULTS="worker.crash:match=fleet-*,times=1;solver.error:times=2"

Each clause is ``site[:param=value[,param=value...]]`` with parameters:

``times=N``
    Fire on the first ``N`` matching calls (default 1).  With a state
    directory (below) the count is shared across processes, so a fault
    that kills its worker does not re-arm in the replacement worker.
``match=GLOB``
    Only fire when the call-site key (scenario name, stage name, campaign
    name -- whatever identifies the unit of work at that site) matches the
    :mod:`fnmatch` pattern.  Default: match everything.
``after=N``
    Skip the first ``N`` matching calls before starting to fire.
``p=F`` / ``seed=N``
    Fire each matching call with probability ``F`` from a dedicated
    ``random.Random(seed)`` stream (deterministic per process).
``sleep=S``
    ``worker.hang`` only: how long the injected hang sleeps (default 3600
    seconds -- the parent watchdog is expected to kill it long before).

Fault sites
-----------
``worker.crash``
    Hard-kills the worker process (``os._exit``), modelling an OOM kill or
    segfault.  Only armed inside batch worker processes.
``worker.hang``
    Sleeps inside the worker, modelling a hung solve; the parent-side
    watchdog must terminate it within the point's ``timeout_s``.
``solver.error``
    Raises :class:`InjectedFault` from the solver adapter, modelling a
    transient solver crash (retries / fallback chains must absorb it).
``cache.corrupt``
    Truncates a just-written stage-cache entry, modelling on-disk
    corruption (the checksum layer must quarantine it into a miss).
``store.io``
    Raises ``sqlite3.OperationalError`` from a result-store write,
    modelling a locked/flaky database (the store's retry loop absorbs it).

Cross-process state
-------------------
``times``/``after`` counters default to per-process memory.  Pointing
``REPRO_FAULTS_STATE`` at a directory makes claims atomic *across*
processes: firing slot ``k`` creates ``<dir>/<injector>.<k>`` with
``O_CREAT|O_EXCL``, so exactly ``times`` firings happen fleet-wide no
matter how many workers (or respawned workers) race for them.
"""

from __future__ import annotations

import fnmatch
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ConfigurationError

#: Environment variable holding the fault plan (empty/unset: disabled).
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the shared cross-process counter directory.
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"

#: The known fault sites (site -> short description), the authoritative list
#: for spec validation and the docs.
FAULT_SITES = {
    "worker.crash": "hard-kill the batch worker process",
    "worker.hang": "sleep inside the worker until the watchdog intervenes",
    "solver.error": "raise a transient error from the solver adapter",
    "cache.corrupt": "truncate a just-written stage-cache entry",
    "store.io": "raise sqlite3.OperationalError from a store write",
}

#: Exit status of an injected worker crash (visible in waitpid diagnostics).
CRASH_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """A deliberately injected transient failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected faults
    must travel the same unhandled-exception paths a real solver crash
    would, so recovery is tested against the production machinery.
    """


@dataclass
class FaultSpec:
    """One parsed injector clause of the ``REPRO_FAULTS`` plan."""

    site: str
    times: int = 1
    match: str = "*"
    after: int = 0
    p: Optional[float] = None
    seed: int = 0
    sleep_s: float = 3600.0
    #: Position within the plan; disambiguates two clauses on the same site.
    index: int = 0
    _calls: int = 0
    _fired: int = 0
    _rng: Optional[random.Random] = field(default=None, repr=False)

    @property
    def injector_id(self) -> str:
        """Stable identifier used for cross-process state files."""
        return f"{self.site}.{self.index}"

    def matches(self, key: str) -> bool:
        return fnmatch.fnmatchcase(key, self.match)

    def should_fire(self, key: str, state_dir: Optional[Path]) -> bool:
        """Decide (and record) whether this call fires the fault."""
        if not self.matches(key):
            return False
        self._calls += 1
        if self._calls <= self.after:
            return False
        if self.p is not None:
            if self._rng is None:
                self._rng = random.Random(self.seed)
            if self._rng.random() >= self.p:
                return False
        if state_dir is not None:
            return self._claim_shared(state_dir)
        if self._fired >= self.times:
            return False
        self._fired += 1
        return True

    def _claim_shared(self, state_dir: Path) -> bool:
        """Atomically claim one of the ``times`` firing slots fleet-wide."""
        state_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(self.times):
            path = state_dir / f"{self.injector_id}.{slot}"
            try:
                fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"pid={os.getpid()} key-slot claimed\n")
            return True
        return False


@dataclass
class FaultPlan:
    """The parsed ``REPRO_FAULTS`` plan: a list of armed injectors."""

    specs: List[FaultSpec]
    state_dir: Optional[Path] = None

    def should_fire(self, site: str, key: str) -> Optional[FaultSpec]:
        """The first armed injector of ``site`` that fires for ``key``."""
        for spec in self.specs:
            if spec.site == site and spec.should_fire(key, self.state_dir):
                return spec
        return None


def parse_plan(
    text: str, state_dir: "str | Path | None" = None
) -> Optional[FaultPlan]:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Returns ``None`` for an empty/blank spec.  Raises
    :class:`~repro.errors.ConfigurationError` on unknown sites or
    malformed parameters -- a typo in a chaos run must fail loudly, not
    silently disarm the fault.
    """
    clauses = [clause.strip() for clause in text.split(";") if clause.strip()]
    if not clauses:
        return None
    specs: List[FaultSpec] = []
    for index, clause in enumerate(clauses):
        site, _, params_text = clause.partition(":")
        site = site.strip()
        if site not in FAULT_SITES:
            known = ", ".join(sorted(FAULT_SITES))
            raise ConfigurationError(
                f"unknown fault site {site!r} in {FAULTS_ENV}; known: {known}"
            )
        spec = FaultSpec(site=site, index=index)
        for param in params_text.split(","):
            param = param.strip()
            if not param:
                continue
            name, sep, value = param.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"malformed fault parameter {param!r} in clause {clause!r}"
                )
            try:
                if name == "times":
                    spec.times = int(value)
                elif name == "match":
                    spec.match = value
                elif name == "after":
                    spec.after = int(value)
                elif name == "p":
                    spec.p = float(value)
                elif name == "seed":
                    spec.seed = int(value)
                elif name == "sleep":
                    spec.sleep_s = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown fault parameter {name!r} in clause {clause!r}"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid fault parameter {param!r} in clause {clause!r}: {exc}"
                ) from exc
        if spec.times < 1:
            raise ConfigurationError(f"fault clause {clause!r}: times must be >= 1")
        if spec.p is not None and not 0.0 <= spec.p <= 1.0:
            raise ConfigurationError(f"fault clause {clause!r}: p must be in [0, 1]")
        specs.append(spec)
    return FaultPlan(
        specs=specs, state_dir=None if state_dir is None else Path(state_dir)
    )


# ---------------------------------------------------------------------------
# Process-wide switchboard
# ---------------------------------------------------------------------------

#: The armed plan of this process (None: everything below is a no-op).
_PLAN: Optional[FaultPlan] = None

#: The ``(spec, state_dir)`` pair the current plan was armed from, so
#: :func:`configure_from_env` re-arms only when the environment changes.
_CONFIGURED_FROM: Optional[Tuple[str, Optional[str]]] = None


def configure(
    spec: Optional[str], state_dir: "str | Path | None" = None
) -> Optional[FaultPlan]:
    """Arm (or with ``None``/empty, disarm) fault injection in this process."""
    global _PLAN, _CONFIGURED_FROM
    _PLAN = None if not spec else parse_plan(spec, state_dir=state_dir)
    _CONFIGURED_FROM = (
        None if not spec else (spec, None if state_dir is None else str(state_dir))
    )
    return _PLAN


def configure_from_env() -> Optional[FaultPlan]:
    """Arm fault injection from ``$REPRO_FAULTS`` (worker entry point).

    Idempotent per process -- reconfiguring from an *unchanged* environment
    keeps the existing counters instead of re-arming spent injectors, but a
    changed (or cleared) ``$REPRO_FAULTS`` / ``$REPRO_FAULTS_STATE`` always
    re-arms (or disarms).
    """
    spec = os.environ.get(FAULTS_ENV, "")
    state_dir = os.environ.get(FAULTS_STATE_ENV) or None
    if not spec:
        if _PLAN is not None:
            configure(None)
        return None
    if _PLAN is not None and _CONFIGURED_FROM == (spec, state_dir):
        return _PLAN
    return configure(spec, state_dir=state_dir)


def faults_enabled() -> bool:
    """Whether a fault plan is armed in this process."""
    return _PLAN is not None


def fire(site: str, key: str = "") -> bool:
    """Fault site hook: perform the armed fault's action, if any fires.

    The disabled path is a single falsy check; call sites pass ``key``
    positionally, which CPython calls about a fifth faster than a keyword
    argument.  Actions: ``worker.crash``
    never returns (``os._exit``), ``worker.hang`` sleeps, ``solver.error``
    and ``store.io`` raise; ``cache.corrupt`` returns True so the call
    site -- which owns the file handles -- performs the corruption itself.
    """
    if _PLAN is None:
        return False
    spec = _PLAN.should_fire(site, key)
    if spec is None:
        return False
    if site == "worker.crash":
        # Flush nothing, skip atexit/finally blocks: a real OOM kill does.
        os._exit(CRASH_EXIT_CODE)
    if site == "worker.hang":
        time.sleep(spec.sleep_s)
        return True
    if site == "solver.error":
        raise InjectedFault(f"injected transient solver error (key {key!r})")
    if site == "store.io":
        import sqlite3  # fired from store writes, which have loaded it already

        raise sqlite3.OperationalError(f"injected store I/O error (key {key!r})")
    # cache.corrupt: the cache layer truncates its own just-written entry.
    return True
