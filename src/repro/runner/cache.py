"""Content-hash disk cache for expensive pipeline stages.

The irradiance simulation dominates the pipeline's runtime, and many
workloads (fleet variants sharing a roof, solver sweeps, repeated CLI runs)
recompute identical intermediate state.  The :class:`StageCache` memoises
stage outputs on disk, keyed by a SHA-256 digest of a *content payload*: the
canonical JSON form of every input that influences the stage's result.  Two
runs -- in the same process, in parallel worker processes, or days apart --
that hash to the same payload share the cached artefact; any change to the
roof, weather, time base or model options changes the digest and invalidates
the entry automatically (there is no explicit invalidation protocol).

Entries are pickled because stage outputs are numpy-laden simulation objects.
Writes go through a temporary file followed by an atomic ``os.replace`` so
concurrent batch workers never observe half-written entries; a corrupt or
unreadable entry is treated as a miss and recomputed.

Zero-copy array sidecars
------------------------
Objects that declare a ``__cache_array_fields__`` class attribute (a tuple
of attribute names -- e.g. the irradiance block of a
:class:`~repro.solar.irradiance_map.RoofSolarField`) have those arrays
stored as raw ``.npy`` sidecar files next to the pickle instead of inside
it.  On a hit
the sidecars are reattached with ``numpy.load(..., mmap_mode="r")``, so a
fleet of batch worker processes reading the same cached solar field share
one page-cache copy of the bulk data instead of each unpickling a private
one.

Integrity manifests and quarantine
----------------------------------
Every entry carries a ``<digest>.sum.json`` manifest recording the SHA-256
and byte size of the pickle and each sidecar.  The write order is sidecars
-> manifest -> pickle, so the pickle's appearance is the commit point: a
reader that finds the pickle also finds the manifest describing it, and a
crash mid-write leaves only invisible leftovers that read as plain misses.
On a hit, :meth:`StageCache.get` verifies the entry per ``verify`` mode:

``fast`` (default)
    Full hash of the pickle plus a byte-size check of each sidecar.
    Sidecar hashing is skipped so memory-mapped reads stay zero-copy.
``full``
    Additionally streams every sidecar through SHA-256 (``REPRO_CACHE_VERIFY=full``;
    detects same-size bit rot at the cost of reading the bulk data).

Any verification failure -- checksum mismatch, size mismatch, missing
manifest, unreadable pickle or sidecar -- *quarantines* the entry: all of
its files are moved to ``<root>/_quarantine/<stage>/`` with a
``.quarantined`` suffix (preserved for post-mortem, invisible to
lookups), a ``cache.quarantine`` trace event and a stderr
diagnostic are emitted, and the lookup degrades to a miss.  Corruption is
therefore never an exception, only a recompute.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from .. import faults
from ..errors import ConfigurationError
from ..telemetry import emit_diagnostic, span, trace_event

PathLike = Union[str, Path]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable selecting the entry verification mode.
CACHE_VERIFY_ENV = "REPRO_CACHE_VERIFY"

#: The recognised ``REPRO_CACHE_VERIFY`` modes.
CACHE_VERIFY_MODES = ("fast", "full")

#: Subdirectory of the cache root holding quarantined corrupt entries.
QUARANTINE_DIR = "_quarantine"

#: Bump to orphan every existing entry when the on-disk format changes.
#: Version 2: daylight-compressed solar fields + ``.npy`` array sidecars.
#: Version 3: per-entry ``.sum.json`` integrity manifests.
#: Version 4: solar fields with one irradiance column per DSM cell plus a
#: per-cell column index.
CACHE_FORMAT_VERSION = 4


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding used for content hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_coerce)


def _coerce(value: Any) -> Any:
    """Fallback encoder for payload values json cannot natively encode."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    raise TypeError(f"payload value {value!r} is not content-hashable")


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of a content payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _verify_default() -> str:
    """Default entry verification mode (``REPRO_CACHE_VERIFY``)."""
    return os.environ.get(CACHE_VERIFY_ENV) or "fast"


def _file_sha256(path: Path) -> str:
    """Stream a file through SHA-256 (used by ``full`` verification)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _HashingHandle:
    """File-object proxy that hashes and counts everything written.

    Intercepts only ``write``; everything else (``tell``, ``flush``, ...)
    is delegated, so ``numpy.save`` and ``pickle.dump`` work unchanged.
    """

    def __init__(self, handle: Any) -> None:
        self._handle = handle
        self._digest = hashlib.sha256()
        self.size = 0

    def write(self, data: Any) -> int:
        view = memoryview(data)
        self._digest.update(view)
        self.size += view.nbytes
        return self._handle.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)

    @property
    def sha256(self) -> str:
        return self._digest.hexdigest()


@dataclass
class _SidecarStub:
    """Pickled form of an entry whose bulk arrays live in ``.npy`` sidecars.

    ``value`` is a shallow copy of the original object with the listed
    attributes set to ``None``; :meth:`StageCache.get` reattaches the
    sidecar arrays before returning it.
    """

    value: Any
    fields: Tuple[str, ...]


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`StageCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }


@dataclass
class StageCache:
    """A directory-backed, content-addressed store of pickled stage outputs.

    Parameters
    ----------
    root:
        Cache directory (created lazily).  Defaults to
        :func:`default_cache_dir`.
    verify:
        Entry verification mode: ``"fast"`` (default, overridable via
        ``REPRO_CACHE_VERIFY``) or ``"full"``.

    Example
    -------
    The cache is content-addressed: the payload *is* the key.

    >>> import tempfile
    >>> from repro.runner import StageCache
    >>> tmp = tempfile.TemporaryDirectory()
    >>> cache = StageCache(root=tmp.name)
    >>> cache.get("stage", {"pitch": 0.4})
    (None, False)
    >>> cache.put("stage", {"pitch": 0.4}, "computed")
    >>> cache.get("stage", {"pitch": 0.4})
    ('computed', True)
    >>> cache.get("stage", {"pitch": 0.5})
    (None, False)
    >>> cache.stats.as_dict()
    {'hits': 1, 'misses': 2, 'writes': 1, 'quarantined': 0}
    >>> tmp.cleanup()
    """

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    verify: str = field(default_factory=_verify_default)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.verify not in CACHE_VERIFY_MODES:
            known = ", ".join(CACHE_VERIFY_MODES)
            raise ConfigurationError(
                f"invalid cache verify mode {self.verify!r} "
                f"(set {CACHE_VERIFY_ENV} to one of: {known})"
            )

    # -- key handling -------------------------------------------------------------

    def path_for(self, stage: str, payload: Any) -> Path:
        """On-disk location of the entry for ``payload`` under ``stage``."""
        if not stage or any(sep in stage for sep in "/\\"):
            raise ConfigurationError(f"invalid cache stage name {stage!r}")
        digest = content_digest({"format": CACHE_FORMAT_VERSION, "payload": payload})
        return self.root / stage / f"{digest}.pkl"

    @staticmethod
    def _sidecar_path(path: Path, name: str) -> Path:
        """On-disk location of one array sidecar of the entry at ``path``."""
        return path.with_name(f"{path.stem}.{name}.npy")

    @staticmethod
    def _manifest_path(path: Path) -> Path:
        """On-disk location of the integrity manifest of the entry at ``path``."""
        return path.with_name(f"{path.stem}.sum.json")

    @classmethod
    def _entry_bytes(cls, path: Path, sidecar_fields: Tuple[str, ...]) -> int:
        """On-disk size of an entry (pickle + sidecars), for trace attrs.

        Only called while a tracer is recording -- the ``stat`` calls are
        not part of the untraced hot path.
        """
        total = 0
        for candidate in (path, *(cls._sidecar_path(path, name) for name in sidecar_fields)):
            try:
                total += candidate.stat().st_size
            except OSError:
                pass
        return total

    # -- integrity ----------------------------------------------------------------

    def _load_manifest(self, path: Path) -> Optional[Dict[str, Dict[str, Any]]]:
        """The ``{filename: {sha256, size}}`` map of an entry, or None."""
        try:
            data = json.loads(self._manifest_path(path).read_text(encoding="utf-8"))
            files = data["files"]
            if not isinstance(files, dict):
                return None
            return files
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _quarantine(self, stage: str, path: Path, reason: str) -> None:
        """Move every file of a corrupt entry out of the lookup path.

        The files keep their names plus a ``.quarantined`` suffix under
        ``<root>/_quarantine/<stage>/`` so they stay available for
        post-mortem inspection but can never satisfy (or re-poison) a
        future lookup.
        """
        target_dir = self.root / QUARANTINE_DIR / stage
        moved = []
        candidates = [path, self._manifest_path(path)]
        candidates.extend(sorted(path.parent.glob(f"{path.stem}.*.npy")))
        for candidate in candidates:
            if not candidate.exists():
                continue
            try:
                target_dir.mkdir(parents=True, exist_ok=True)
                os.replace(candidate, target_dir / f"{candidate.name}.quarantined")
                moved.append(candidate.name)
            except OSError:
                # Last resort: an entry we cannot move must not survive as
                # a lookup target either.
                try:
                    candidate.unlink()
                except OSError:
                    pass
        self.stats.quarantined += 1
        trace_event("cache.quarantine", stage=stage, entry=path.stem, reason=reason)
        emit_diagnostic(
            f"cache: quarantined corrupt entry {stage}/{path.stem} "
            f"({reason}; files: {', '.join(moved) or 'none'})"
        )

    def _verify_pickle(self, raw: bytes, path: Path) -> Optional[str]:
        """Check the pickle bytes against the manifest; a reason on failure."""
        files = self._load_manifest(path)
        if files is None:
            return "missing or unreadable checksum manifest"
        record = files.get(path.name)
        if record is None:
            return "manifest lacks pickle record"
        if len(raw) != record.get("size"):
            return f"pickle size mismatch ({len(raw)} != {record.get('size')})"
        if hashlib.sha256(raw).hexdigest() != record.get("sha256"):
            return "pickle checksum mismatch"
        return None

    def _verify_sidecar(self, sidecar: Path, path: Path) -> Optional[str]:
        """Check one sidecar file against the manifest; a reason on failure."""
        files = self._load_manifest(path)
        if files is None:
            return "missing or unreadable checksum manifest"
        record = files.get(sidecar.name)
        if record is None:
            return f"manifest lacks sidecar record for {sidecar.name}"
        try:
            size = sidecar.stat().st_size
        except OSError:
            return f"missing sidecar {sidecar.name}"
        if size != record.get("size"):
            return f"sidecar {sidecar.name} size mismatch ({size} != {record.get('size')})"
        if self.verify == "full" and _file_sha256(sidecar) != record.get("sha256"):
            return f"sidecar {sidecar.name} checksum mismatch"
        return None

    # -- lookup / store -----------------------------------------------------------

    def get(self, stage: str, payload: Any) -> Tuple[Any, bool]:
        """Look up a stage result.  Returns ``(value, hit)``.

        A present-but-corrupt entry (failed checksum, truncated pickle or
        sidecar, missing manifest) is quarantined and returned as a miss;
        corruption never raises.
        """
        path = self.path_for(stage, payload)
        with span("cache.get", stage=stage) as cache_span:
            sidecar_fields: Tuple[str, ...] = ()
            sidecar_s = 0.0
            started = time.perf_counter()
            try:
                raw = path.read_bytes()
            except OSError:
                # Absent entry (or a partial write that never published its
                # pickle): an ordinary miss, nothing to quarantine.
                self.stats.misses += 1
                cache_span.set(hit=False)
                return None, False
            reason = self._verify_pickle(raw, path)
            if reason is not None:
                self._quarantine(stage, path, reason)
                self.stats.misses += 1
                cache_span.set(hit=False)
                return None, False
            try:
                value = pickle.loads(raw)
            except (
                pickle.PickleError,
                EOFError,
                AttributeError,
                ImportError,
                IndexError,
                ValueError,
            ):
                self._quarantine(stage, path, "unreadable pickle")
                self.stats.misses += 1
                cache_span.set(hit=False)
                return None, False
            if isinstance(value, _SidecarStub):
                stub = value.value
                sidecar_fields = value.fields
                sidecar_started = time.perf_counter()
                for name in value.fields:
                    sidecar = self._sidecar_path(path, name)
                    reason = self._verify_sidecar(sidecar, path)
                    if reason is not None:
                        self._quarantine(stage, path, reason)
                        self.stats.misses += 1
                        cache_span.set(hit=False)
                        return None, False
                    try:
                        array = np.load(sidecar, mmap_mode="r")
                    except (OSError, ValueError, EOFError, pickle.PickleError):
                        self._quarantine(stage, path, f"unreadable sidecar {sidecar.name}")
                        self.stats.misses += 1
                        cache_span.set(hit=False)
                        return None, False
                    object.__setattr__(stub, name, array)
                sidecar_s = time.perf_counter() - sidecar_started
                value = stub
            self.stats.hits += 1
            if cache_span.active:
                total_s = time.perf_counter() - started
                cache_span.set(
                    hit=True,
                    bytes=self._entry_bytes(path, sidecar_fields),
                    pickle_s=round(total_s - sidecar_s, 9),
                    sidecar_s=round(sidecar_s, 9),
                )
            return value, True

    def put(self, stage: str, payload: Any, value: Any) -> None:
        """Store a stage result atomically.

        The declared ``__cache_array_fields__`` of ``value`` (if any) are
        written as raw ``.npy`` sidecars first, then the ``.sum.json``
        integrity manifest, then the pickle -- the pickle's atomic rename
        is the commit point, so a concurrent reader either sees the
        complete, manifest-covered entry or a miss.
        """
        path = self.path_for(stage, payload)
        path.parent.mkdir(parents=True, exist_ok=True)

        with span("cache.put", stage=stage) as cache_span:
            stored = value
            sidecar_fields = tuple(getattr(type(value), "__cache_array_fields__", ()) or ())
            sidecar_s = 0.0
            started = time.perf_counter()
            manifest_files: Dict[str, Dict[str, Any]] = {}
            if sidecar_fields:
                stored = copy.copy(value)
                sidecar_started = time.perf_counter()
                for name in sidecar_fields:
                    array = np.asarray(getattr(value, name))
                    sidecar = self._sidecar_path(path, name)
                    checksum = self._write_atomic(
                        sidecar, lambda h, a=array: np.save(h, a)
                    )
                    manifest_files[sidecar.name] = checksum
                    object.__setattr__(stored, name, None)
                sidecar_s = time.perf_counter() - sidecar_started
                stored = _SidecarStub(value=stored, fields=sidecar_fields)

            raw = pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)
            manifest_files[path.name] = {
                "sha256": hashlib.sha256(raw).hexdigest(),
                "size": len(raw),
            }
            manifest = json.dumps(
                {"format": CACHE_FORMAT_VERSION, "files": manifest_files},
                sort_keys=True,
            ).encode("utf-8")
            self._write_atomic(self._manifest_path(path), lambda h: h.write(manifest))
            self._write_atomic(path, lambda h: h.write(raw))
            self.stats.writes += 1
            if faults.fire("cache.corrupt", key=stage):
                # Chaos hook: bit-rot the entry we just published.  The
                # truncated pickle no longer matches its manifest, so the
                # next reader must quarantine it and recompute.
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, len(raw) // 2))
            if cache_span.active:
                total_s = time.perf_counter() - started
                cache_span.set(
                    bytes=self._entry_bytes(path, sidecar_fields),
                    pickle_s=round(total_s - sidecar_s, 9),
                    sidecar_s=round(sidecar_s, 9),
                )

    @staticmethod
    def _write_atomic(path: Path, write: Callable[[Any], None]) -> Dict[str, Any]:
        """Write a file through a temporary + atomic ``os.replace``.

        Returns the ``{"sha256", "size"}`` record of the written bytes
        (hashed in-flight through a proxy handle) for the entry manifest.
        """
        descriptor, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                hashing = _HashingHandle(handle)
                write(hashing)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return {"sha256": hashing.sha256, "size": hashing.size}

    # -- maintenance --------------------------------------------------------------

    def clear(self, stage: Optional[str] = None) -> int:
        """Delete cached entries (one stage or everything).

        Array sidecars, integrity manifests and quarantined files are
        removed along with their entries; the returned count is the number
        of *entries* (pickles) deleted.
        """
        base = self.root / stage if stage else self.root
        removed = 0
        if base.exists():
            for path in sorted(base.rglob("*.pkl")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for pattern in ("*.npy", "*.sum.json", "*.tmp"):
                for path in sorted(base.rglob(pattern)):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        quarantine = self.root / QUARANTINE_DIR
        if stage:
            quarantine = quarantine / stage
        shutil.rmtree(quarantine, ignore_errors=True)
        return removed


def resolve_cache(
    cache: Union[StageCache, PathLike, None], use_cache: bool = True
) -> Optional[StageCache]:
    """Normalise the cache argument accepted by runner entry points.

    Returns ``None`` when ``use_cache`` is False: the pipeline then runs
    uncached.  Otherwise ``None`` means the default location, a path means
    a cache rooted there, and an existing :class:`StageCache` is passed
    through.
    """
    if not use_cache:
        return None
    if isinstance(cache, StageCache):
        return cache
    if cache is None:
        return StageCache()
    return StageCache(root=Path(cache))
