"""Content-hash disk cache for expensive pipeline stages.

The irradiance simulation dominates the pipeline's runtime, and many
workloads (fleet variants sharing a roof, solver sweeps, repeated CLI runs)
recompute identical intermediate state.  The :class:`StageCache` memoises
stage outputs on disk, keyed by a SHA-256 digest of a *content payload*.  The
pipeline's payload is a node's key (:func:`repro.runner.stages.node_keys`),
itself a digest of every input that influences the stage's result.  Two
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

In-process reuse
----------------
A long-lived process (a pooled batch worker, a sweep driver, the service)
reads the same few entries over and over.  Every value that
:meth:`StageCache.get` has *fully verified from disk* is kept in one
process-wide LRU keyed by the entry's path, and a later ``get`` of that
path serves it without reading, hashing or unpickling anything -- but only
while the entry's files are unchanged since that verified read: the
pickle's and every sidecar's ``(st_ino, st_size, st_mtime_ns)`` and the
manifest's bytes must all match.  A changed, missing or replaced file drops
the memoised value and the lookup falls through to the disk read, with its
checksums, quarantine and miss accounting.  ``verify="full"`` never serves
from the memo.  :meth:`StageCache.put` does not fill it -- only a read that
passed verification does -- so a freshly written entry (possibly bit-rotted
right after its write) is always read and checked once before it is reused.
The memo is bounded by :data:`MEMO_MAX_ENTRIES` entries and
:data:`MEMO_MAX_BYTES` on-disk bytes (pickle plus sidecars), least recently
used first out, so it never pins the memory-mapped sidecars of deleted
cache directories without limit.  A forked child inherits the memo (every
entry is re-validated before use) and gets a fresh lock.  Because one value
is handed to many callers, every value ``get`` returns has its ndarrays
marked read-only: a consumer that writes in place raises instead of
corrupting the points that follow.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import shutil
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

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
#: Version 5: entries keyed by the node table's chained keys
#: (:func:`repro.runner.stages.node_keys`).
CACHE_FORMAT_VERSION = 5

#: Most entries the process-wide memo of verified reads keeps.
MEMO_MAX_ENTRIES = 64

#: Most on-disk bytes (pickles plus sidecars) of the entries the memo keeps.
MEMO_MAX_BYTES = 256 << 20


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


def _stat_key(path: Path) -> Tuple[int, int, int]:
    """The identity of a file's current contents: inode, size, mtime."""
    stat = path.stat()
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _freeze_arrays(value: Any) -> None:
    """Mark every ndarray reachable through ``value``'s attributes read-only.

    This module imports numpy only to read or write ``.npy`` sidecars, so a
    process that has not imported it holds no array to freeze.
    """
    np = sys.modules.get("numpy")
    pending, seen = [value], set()
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if np is not None and isinstance(item, np.ndarray):
            item.flags.writeable = False
        elif isinstance(item, (list, tuple)):
            pending.extend(item)
        elif isinstance(item, dict):
            pending.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, (type, ModuleType)):
            pending.extend(vars(item).values())


class _MemoEntry(NamedTuple):
    """A value verified from disk and the file identities it was read from.

    (A named tuple, not a dataclass: it costs the import a tenth as much.)
    """

    value: Any
    #: The sidecar fields of the entry, in manifest order.
    fields: Tuple[str, ...]
    #: ``(pickle stat key, manifest bytes, sidecar stat keys)``.
    signature: Tuple[Any, ...]
    #: On-disk bytes of the pickle and its sidecars.
    nbytes: int

    def is_current(self, path: Path) -> bool:
        """Whether the entry's files at ``path`` are still the ones read."""
        try:
            signature = (
                _stat_key(path),
                StageCache._manifest_path(path).read_bytes(),
                tuple(_stat_key(StageCache._sidecar_path(path, name)) for name in self.fields),
            )
        except OSError:
            return False
        return signature == self.signature


class _VerifiedMemo:
    """Process-wide LRU of stage-cache values verified from disk, by path."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Path, _MemoEntry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def lookup(self, path: Path) -> Optional[_MemoEntry]:
        """The memoised entry of ``path`` if its files are unchanged."""
        with self._lock:
            entry = self._entries.get(path)
        if entry is None:
            return None
        current = entry.is_current(path)
        with self._lock:
            if self._entries.get(path) is entry:
                if current:
                    self._entries.move_to_end(path)
                else:
                    del self._entries[path]
                    self._bytes -= entry.nbytes
        return entry if current else None

    def store(self, path: Path, entry: _MemoEntry) -> None:
        """Keep ``entry`` for ``path``, evicting the least recently used."""
        with self._lock:
            previous = self._entries.pop(path, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            if entry.nbytes > MEMO_MAX_BYTES:
                return
            self._entries[path] = entry
            self._bytes += entry.nbytes
            while len(self._entries) > MEMO_MAX_ENTRIES or self._bytes > MEMO_MAX_BYTES:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def discard_under(self, base: Path) -> None:
        """Forget every entry whose path lies under ``base``."""
        with self._lock:
            for path in [p for p in self._entries if base in p.parents]:
                self._bytes -= self._entries.pop(path).nbytes


_MEMO = _VerifiedMemo()


def _reset_memo_lock_after_fork() -> None:
    # Another thread of the parent may have held the lock at the fork, in
    # the middle of an update.  The inherited entries stay (each is
    # re-validated against the disk anyway); their byte total is recounted.
    _MEMO._lock = threading.Lock()
    _MEMO._bytes = sum(entry.nbytes for entry in _MEMO._entries.values())


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX always has it
    os.register_at_fork(after_in_child=_reset_memo_lock_after_fork)


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

    @staticmethod
    def _parse_manifest(raw: Optional[bytes]) -> Optional[Dict[str, Dict[str, Any]]]:
        """The ``{filename: {sha256, size}}`` map of a manifest's bytes, or None."""
        if raw is None:
            return None
        try:
            files = json.loads(raw)["files"]
        except (ValueError, KeyError, TypeError):
            return None
        return files if isinstance(files, dict) else None

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

    @staticmethod
    def _verify_pickle(raw: bytes, name: str, files: Optional[dict]) -> Optional[str]:
        """Check the pickle bytes against the manifest; a reason on failure."""
        if files is None:
            return "missing or unreadable checksum manifest"
        record = files.get(name)
        if record is None:
            return "manifest lacks pickle record"
        if len(raw) != record.get("size"):
            return f"pickle size mismatch ({len(raw)} != {record.get('size')})"
        if hashlib.sha256(raw).hexdigest() != record.get("sha256"):
            return "pickle checksum mismatch"
        return None

    def _verify_sidecar(self, sidecar: Path, size: int, files: dict) -> Optional[str]:
        """Check one sidecar file of ``size`` bytes against the manifest."""
        record = files.get(sidecar.name)
        if record is None:
            return f"manifest lacks sidecar record for {sidecar.name}"
        if size != record.get("size"):
            return f"sidecar {sidecar.name} size mismatch ({size} != {record.get('size')})"
        if self.verify == "full" and _file_sha256(sidecar) != record.get("sha256"):
            return f"sidecar {sidecar.name} checksum mismatch"
        return None

    # -- lookup / store -----------------------------------------------------------

    def get(self, stage: str, payload: Any) -> Tuple[Any, bool]:
        """Look up a stage result.  Returns ``(value, hit)``.

        A value this process already verified is served from the in-process
        memo while its files are unchanged (not under ``verify="full"``);
        otherwise the entry is read and verified from disk.  A
        present-but-corrupt entry (failed checksum, truncated pickle or
        sidecar, missing manifest) is quarantined and returned as a miss;
        corruption never raises.  The arrays of a returned value are
        read-only.
        """
        path = self.path_for(stage, payload)
        with span("cache.get", stage=stage) as cache_span:
            if self.verify == "fast":
                memoised = _MEMO.lookup(path)
                if memoised is not None:
                    self.stats.hits += 1
                    cache_span.set(hit=True, memo=True, bytes=memoised.nbytes)
                    return memoised.value, True
            started = time.perf_counter()
            read = self._read_verified(stage, path)
            if read is None:
                self.stats.misses += 1
                cache_span.set(hit=False)
                return None, False
            entry, sidecar_s = read
            _MEMO.store(path, entry)
            self.stats.hits += 1
            if cache_span.active:
                total_s = time.perf_counter() - started
                cache_span.set(
                    hit=True,
                    memo=False,
                    bytes=entry.nbytes,
                    pickle_s=round(total_s - sidecar_s, 9),
                    sidecar_s=round(sidecar_s, 9),
                )
            return entry.value, True

    def _read_verified(self, stage: str, path: Path) -> Optional[Tuple[_MemoEntry, float]]:
        """Read, verify and decode the entry at ``path``.

        Returns the memo record of the value (arrays made read-only) and
        the seconds spent on sidecars, or None on a miss -- a corrupt entry
        is quarantined first.  Each file's identity is taken *before* it is
        read, so a file replaced mid-read leaves a record that no longer
        matches the disk and is dropped at its next lookup.
        """
        try:
            pickle_key = _stat_key(path)
            raw = path.read_bytes()
        except OSError:
            # Absent entry (or a partial write that never published its
            # pickle): an ordinary miss, nothing to quarantine.
            return None
        try:
            manifest: Optional[bytes] = self._manifest_path(path).read_bytes()
        except OSError:
            manifest = None
        files = self._parse_manifest(manifest)
        reason = self._verify_pickle(raw, path.name, files)
        if reason is not None:
            self._quarantine(stage, path, reason)
            return None
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
            return None
        fields: Tuple[str, ...] = ()
        sidecar_keys = []
        nbytes = len(raw)
        sidecar_s = 0.0
        if isinstance(value, _SidecarStub):
            import numpy as np

            stub = value.value
            fields = value.fields
            sidecar_started = time.perf_counter()
            for name in fields:
                sidecar = self._sidecar_path(path, name)
                try:
                    key = _stat_key(sidecar)
                except OSError:
                    self._quarantine(stage, path, f"missing sidecar {sidecar.name}")
                    return None
                reason = self._verify_sidecar(sidecar, key[1], files)
                if reason is not None:
                    self._quarantine(stage, path, reason)
                    return None
                try:
                    array = np.load(sidecar, mmap_mode="r")
                except (OSError, ValueError, EOFError, pickle.PickleError):
                    self._quarantine(stage, path, f"unreadable sidecar {sidecar.name}")
                    return None
                object.__setattr__(stub, name, array)
                sidecar_keys.append(key)
                nbytes += key[1]
            sidecar_s = time.perf_counter() - sidecar_started
            value = stub
        _freeze_arrays(value)
        signature = (pickle_key, manifest, tuple(sidecar_keys))
        return _MemoEntry(value, fields, signature, nbytes), sidecar_s

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
                import numpy as np

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
            if faults.fire("cache.corrupt", stage):
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
        _MEMO.discard_under(base)
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
