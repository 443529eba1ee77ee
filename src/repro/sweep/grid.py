"""Declarative sweep plans: a base scenario plus axes of overrides.

A :class:`SweepPlan` is the sweep-engine counterpart of a
:class:`~repro.scenario.ScenarioSpec`: a plain, JSON-round-trippable
document describing *one* base scenario and a set of :class:`SweepAxis`
entries -- dotted override paths ("n_modules", "weather.latitude_deg",
"solver.name", "module.gamma_p_per_k", "roof", ...) with the values to
visit.  ``mode="grid"`` expands the Cartesian product of the axes,
``mode="zip"`` pairs them element-wise (all axes must then share one
length).

Expansion is pure specification surgery: each point applies its overrides
through :meth:`ScenarioSpec.with_overrides`, so a sweep point is exactly
the scenario a hand-written JSON file with the same values would parse to.
In particular every point derives its stage-cache content keys the normal
way, which is what makes sweeps cheap: consecutive points that share a
roof/weather/time base (e.g. an ``n_modules`` or ``solver.name`` axis) hash
to the same solar-field key and reuse one cached computation across the
whole grid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..runner.solvers import get_solver_entry
from ..scenario.spec import ScenarioSpec

PathLike = Union[str, Path]

#: Version stamp embedded in serialised sweep plans.
SWEEP_FORMAT_VERSION = 1

_LABEL_SAFE = re.compile(r"[^A-Za-z0-9_.+-]+")


def _default_label(value: Any) -> str:
    """Compact, filename-safe label of one axis value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)  # already safe; keep the sign of negative values
    if isinstance(value, Mapping) and "name" in value:
        raw = str(value["name"])
    elif isinstance(value, str) or value is None:
        raw = str(value)
    else:
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
        raw = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    label = _LABEL_SAFE.sub("-", raw).strip("-")
    if len(label) > 48:
        digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
        label = f"{label[:39]}-{digest}"
    return label or "value"


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted override path and the values to visit.

    ``labels`` (optional, same length as ``values``) names the values in
    point names, tables and reports; labels default to a compact rendering
    of each value (for roof dictionaries: the roof's ``name``).
    """

    name: str
    values: Tuple[Any, ...]
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep axis needs a non-empty override path")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(f"sweep axis {self.name!r} has no values")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(label) for label in self.labels))
            if len(self.labels) != len(self.values):
                raise ConfigurationError(
                    f"sweep axis {self.name!r}: {len(self.labels)} labels for "
                    f"{len(self.values)} values"
                )

    @property
    def key(self) -> str:
        """Short column name of the axis (last path segment)."""
        return self.name.rsplit(".", 1)[-1]

    def label_for(self, index: int) -> str:
        """Display label of the value at ``index``."""
        if self.labels is not None:
            return self.labels[index]
        return _default_label(self.values[index])

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "values": list(self.values)}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        try:
            labels = data.get("labels")
            return cls(
                name=str(data["name"]),
                values=tuple(data["values"]),
                labels=None if labels is None else tuple(labels),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed sweep axis: {exc}") from exc


@dataclass(frozen=True)
class SweepPoint:
    """One concrete point of an expanded sweep."""

    name: str
    overrides: Mapping[str, Any]
    labels: Mapping[str, str]
    spec: ScenarioSpec


def _takes_warm_start(spec: ScenarioSpec) -> bool:
    """Whether ``spec``'s solver uses a warm-start hint (an unknown one does not)."""
    try:
        return get_solver_entry(spec.solver.name).supports_warm_start
    except ConfigurationError:
        return False


@dataclass(frozen=True)
class SweepPlan:
    """A base scenario plus override axes, expandable into concrete specs.

    Example
    -------
    >>> from repro.scenario import builtin_scenarios
    >>> from repro.sweep import SweepAxis, SweepPlan
    >>> plan = SweepPlan(
    ...     name="lat-x-n",
    ...     base=builtin_scenarios()["residential-south"],
    ...     axes=(
    ...         SweepAxis("weather.latitude_deg", (40.0, 55.0)),
    ...         SweepAxis("n_modules", (4, 6)),
    ...     ),
    ... )
    >>> plan.n_points
    4
    >>> [p.name for p in plan.points()][:2]
    ['lat-x-n@latitude_deg=40.0+n_modules=4', 'lat-x-n@latitude_deg=40.0+n_modules=6']
    >>> restored = SweepPlan.from_json(plan.to_json())
    >>> restored.to_dict() == plan.to_dict()
    True
    """

    name: str
    base: ScenarioSpec
    axes: Tuple[SweepAxis, ...]
    mode: str = "grid"
    description: str = ""
    #: Per-point wall-clock budget (seconds) applied when the plan runs;
    #: ``None`` leaves points unbounded.  A ``--timeout`` on the CLI (or the
    #: ``timeout_s`` argument of :func:`repro.sweep.run_sweep`) overrides it.
    timeout_s: Optional[float] = None
    #: When True the sweep runs warm-started: points execute in
    #: axis-ascending order and each point's solver is offered the placement
    #: of the point one ``n_modules`` step below it (see
    #: :meth:`warm_execution`).  Results are bit-identical to a cold run --
    #: only runtimes change.
    warm_start: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep plan needs a non-empty name")
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ConfigurationError("a sweep plan needs at least one axis")
        if self.mode not in ("grid", "zip"):
            raise ConfigurationError(f"unknown sweep mode {self.mode!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("sweep plan timeout_s must be > 0 when set")
        keys = [axis.key for axis in self.axes]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"sweep axis keys must be unique, got {keys}")
        if self.mode == "zip":
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) != 1:
                raise ConfigurationError(
                    "zip mode requires equal-length axes, got lengths "
                    f"{sorted(len(a.values) for a in self.axes)}"
                )

    # -- expansion ---------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of concrete scenarios the plan expands to."""
        if self.mode == "zip":
            return len(self.axes[0].values)
        product = 1
        for axis in self.axes:
            product *= len(axis.values)
        return product

    def _index_tuples(self) -> List[Tuple[int, ...]]:
        if self.mode == "zip":
            return [(i,) * len(self.axes) for i in range(len(self.axes[0].values))]
        return list(itertools.product(*(range(len(a.values)) for a in self.axes)))

    def points(self) -> List[SweepPoint]:
        """Expand the plan into named, override-annotated scenario specs.

        Point order is deterministic: ``grid`` mode iterates the Cartesian
        product with the *last* axis fastest (like nested loops in axis
        order), ``zip`` mode follows the value order of the axes.
        """
        points: List[SweepPoint] = []
        for indices in self._index_tuples():
            overrides = {
                axis.name: axis.values[i] for axis, i in zip(self.axes, indices)
            }
            labels = {
                axis.key: axis.label_for(i) for axis, i in zip(self.axes, indices)
            }
            suffix = "+".join(f"{axis.key}={labels[axis.key]}" for axis in self.axes)
            name = f"{self.name}@{suffix}"
            spec = self.base.with_overrides(overrides, name=name)
            points.append(
                SweepPoint(name=name, overrides=overrides, labels=labels, spec=spec)
            )
        names = [point.name for point in points]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "sweep point names collide; give the ambiguous axis values "
                "explicit labels (SweepAxis(labels=...))"
            )
        return points

    def specs(self) -> List[ScenarioSpec]:
        """The concrete scenarios of the sweep, in point order."""
        return [point.spec for point in self.points()]

    # -- warm-start wiring ---------------------------------------------------------

    def _axis_ranks(self) -> List[List[int]]:
        """Per axis: rank of each value index in ascending value order.

        Numeric axes rank by value so warm execution walks e.g. an
        ``n_modules`` ladder small-to-large regardless of declaration
        order; non-numeric axes (roof names, solver names, ...) keep
        declaration order, which is as good an ordering as any.
        """
        ranks: List[List[int]] = []
        for axis in self.axes:
            numeric = all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in axis.values
            )
            indices = list(range(len(axis.values)))
            if numeric:
                indices.sort(key=lambda i: axis.values[i])
            rank = [0] * len(axis.values)
            for position, index in enumerate(indices):
                rank[index] = position
            ranks.append(rank)
        return ranks

    @staticmethod
    def _exact_prefix_pair(neighbour: SweepPoint, point: SweepPoint) -> bool:
        """True when ``point`` differs from ``neighbour`` only by a larger
        (or equal) ``n_modules`` -- the case where a greedy prefix replay is
        exact."""
        keys = set(neighbour.overrides) | set(point.overrides)
        differing = [
            key
            for key in keys
            if neighbour.overrides.get(key) != point.overrides.get(key)
        ]
        if len(differing) != 1 or differing[0].rsplit(".", 1)[-1] != "n_modules":
            return False
        before = neighbour.overrides.get(differing[0])
        after = point.overrides.get(differing[0])
        return (
            isinstance(before, (int, float))
            and isinstance(after, (int, float))
            and before <= after
        )

    def warm_execution(self) -> Tuple[List[SweepPoint], Dict[str, str]]:
        """Warm execution order plus per-point neighbour wiring.

        Returns ``(ordered_points, warm_hints)`` where ``ordered_points``
        is :meth:`points` sorted by ascending axis rank, so every point's
        neighbour precedes it, and ``warm_hints`` maps a point name to its
        neighbour's name as consumed by :func:`repro.runner.run_batch`.

        A point's neighbour is the point one step below it on the
        ``n_modules`` axis with every other override equal -- the one pair
        whose greedy solution is an exact prefix of the point's.  In
        ``grid`` mode that is the point one rank lower on that axis; in
        ``zip`` mode it is the previous point in rank order, when only
        ``n_modules`` differs between the two.  Only points whose solver
        registers ``supports_warm_start`` are wired.  Every other point, the
        ladder's first rung included, runs cold.  Hints are best-effort
        routing, not dependencies: a missing or failed neighbour just means
        that point solves cold.
        """
        points = self.points()
        ranks = self._axis_ranks()
        ranked = [
            tuple(ranks[a][i] for a, i in enumerate(indices))
            for indices in self._index_tuples()
        ]
        order = sorted(range(len(points)), key=lambda p: ranked[p])
        if self.mode == "zip":
            pairs = list(zip(order, order[1:]))
        else:
            by_ranked = {r: p for p, r in enumerate(ranked)}
            n_axis = next(
                (a for a, axis in enumerate(self.axes) if axis.key == "n_modules"),
                None,
            )
            pairs = [
                (by_ranked[r[:n_axis] + (r[n_axis] - 1,) + r[n_axis + 1 :]], p)
                for p, r in enumerate(ranked)
                if n_axis is not None and r[n_axis] > 0
            ]
        warm_hints = {
            points[p].name: points[n].name
            for n, p in pairs
            if self._exact_prefix_pair(points[n], points[p])
            and _takes_warm_start(points[p].spec)
        }
        return [points[p] for p in order], warm_hints

    @property
    def campaign_name(self) -> str:
        """Default result-store campaign name of this sweep.

        Namespaced under ``sweep:`` so ad-hoc batch campaigns and sweep
        campaigns sharing one store file cannot collide; the points
        themselves are further keyed by their scenario content digests, so
        re-running a changed plan under the same campaign name simply
        enrolls the new points next to the old ones.
        """
        return f"sweep:{self.name}"

    # -- (de)serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "format_version": SWEEP_FORMAT_VERSION,
            "name": self.name,
            "mode": self.mode,
            "description": self.description,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
        # Emitted only when set: plans without a budget keep serialising
        # byte-for-byte as before.
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        if self.warm_start:
            data["warm_start"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPlan":
        version = data.get("format_version", SWEEP_FORMAT_VERSION)
        if version != SWEEP_FORMAT_VERSION:
            raise ConfigurationError(f"unsupported sweep format version {version}")
        try:
            timeout_s = data.get("timeout_s")
            return cls(
                name=str(data["name"]),
                base=ScenarioSpec.from_dict(data["base"]),
                axes=tuple(SweepAxis.from_dict(axis) for axis in data["axes"]),
                mode=str(data.get("mode", "grid")),
                description=str(data.get("description", "")),
                timeout_s=None if timeout_s is None else float(timeout_s),
                warm_start=bool(data.get("warm_start", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep plan: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise the plan to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        """Parse a plan from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid sweep plan JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: PathLike) -> None:
        """Write the plan to a JSON file."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "SweepPlan":
        """Read a plan from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
