"""Pluggable campaign store backends behind a URL scheme registry.

The SQLite :class:`~repro.runner.store.ResultStore` is the first (and so
far only) implementation of the :class:`StoreBackend` protocol — the
narrow interface a campaign driver or :mod:`~repro.runner.worker` fleet
actually needs from shared campaign state: enroll points, atomically
claim (adopting stale leases)/heartbeat/mark/release them, and query rows.
A future Postgres or HTTP backend plugs in by implementing the protocol
and registering a URL scheme:

    >>> from repro.runner.backend import available_schemes, store_from_url
    >>> available_schemes()
    ['sqlite']
    >>> store = store_from_url("sqlite:///:memory:")  # doctest: +SKIP

``resolve_store`` in :mod:`repro.runner.store` dispatches any
``scheme://...`` string through this registry, so every CLI ``--store``
flag and every ``store=`` keyword accepts backend URLs transparently;
plain filesystem paths keep opening SQLite stores directly.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)
from urllib.parse import unquote, urlsplit

from ..constants import DEFAULT_STALE_AFTER_S
from ..errors import ConfigurationError
from .store import (
    ClaimedPoint,
    PointRecord,
    ResultStore,
    default_store_path,
)


@runtime_checkable
class StoreBackend(Protocol):
    """The store surface a campaign driver or worker fleet relies on.

    Structural (duck-typed) and :func:`runtime_checkable`:
    ``isinstance(store, StoreBackend)`` verifies method presence only, as
    usual for runtime protocols.  Implementations must provide the same
    atomicity guarantees :class:`~repro.runner.store.ResultStore`
    documents — in particular ``claim_next_pending`` must never hand the
    same point to two owners, and the ``require_owner`` fencing on the
    ``mark_*`` methods must be enforced in the same transaction that
    applies the write.
    """

    def enroll(self, campaign: str, specs: Sequence[Any]) -> List[PointRecord]: ...

    def claim_next_pending(
        self,
        campaign: str,
        owner: Optional[str] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
        digests: Optional[Sequence[str]] = None,
    ) -> Optional[ClaimedPoint]: ...

    def requeue(self, campaign: str, digests: Sequence[str]) -> int: ...

    def mark_running(
        self, campaign: str, digest: str, lease_owner: Optional[str] = None
    ) -> None: ...

    def heartbeat(self, campaign: str, digests: Sequence[str]) -> int: ...

    def mark_done(
        self,
        campaign: str,
        digest: str,
        result: Mapping[str, Any],
        wall_time_s: Optional[float] = None,
        require_owner: Optional[str] = None,
    ) -> bool: ...

    def mark_failed(
        self,
        campaign: str,
        digest: str,
        error: str,
        require_owner: Optional[str] = None,
    ) -> bool: ...

    def mark_timed_out(
        self,
        campaign: str,
        digest: str,
        error: str,
        require_owner: Optional[str] = None,
    ) -> bool: ...

    def release(self, campaign: str, digest: str, owner: str) -> bool: ...

    def point(self, campaign: str, digest: str) -> PointRecord: ...

    def points(
        self, campaign: str, status: Optional[str] = None
    ) -> List[PointRecord]: ...

    def status_counts(self, campaign: str) -> Dict[str, int]: ...

    def queue_depth(self, campaign: str, digests: Optional[Sequence[str]] = None) -> int: ...

    def warm_hint(self, record: PointRecord) -> Optional[Dict[str, Any]]: ...

    def fleet(
        self, campaign: str, now: Optional[float] = None
    ) -> List[Dict[str, Any]]: ...

    def results(self, campaign: str) -> List[Any]: ...

    def close(self) -> None: ...


BackendFactory = Callable[[str], StoreBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(
    scheme: str, factory: BackendFactory, overwrite: bool = False
) -> None:
    """Register ``factory`` to build stores for ``scheme://`` URLs.

    The factory receives the full URL and returns a :class:`StoreBackend`.
    Re-registering an existing scheme raises unless ``overwrite=True`` so
    two plugins cannot silently shadow each other.
    """
    scheme = scheme.lower().strip()
    if not scheme:
        raise ConfigurationError("backend scheme must be a non-empty string")
    if scheme in _BACKENDS and not overwrite:
        raise ConfigurationError(
            f"store backend scheme {scheme!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _BACKENDS[scheme] = factory


def available_schemes() -> List[str]:
    """The registered backend URL schemes, sorted."""
    return sorted(_BACKENDS)


def store_from_url(url: str) -> StoreBackend:
    """Build a store backend from a ``scheme://...`` URL.

    Unknown schemes raise a :class:`~repro.errors.ConfigurationError`
    listing what is registered, so a typo'd ``sqlte://`` fails with an
    actionable message instead of being treated as a filesystem path.
    """
    scheme, sep, _ = url.partition("://")
    if not sep:
        raise ConfigurationError(
            f"not a store backend URL (expected scheme://...): {url!r}"
        )
    factory = _BACKENDS.get(scheme.lower())
    if factory is None:
        known = ", ".join(available_schemes()) or "(none)"
        raise ConfigurationError(
            f"unknown store backend scheme {scheme!r} in {url!r}; "
            f"registered schemes: {known}"
        )
    return factory(url)


def _sqlite_backend(url: str) -> StoreBackend:
    """``sqlite:///path/to/store.sqlite`` → :class:`ResultStore`.

    The triple-slash form (empty authority) is the canonical spelling;
    ``sqlite://`` with no path opens the default store location.  A
    non-empty authority (``sqlite://host/db``) is rejected because SQLite
    has no notion of a remote host.
    """
    parts = urlsplit(url)
    if parts.netloc:
        raise ConfigurationError(
            f"sqlite store URLs take no host; write sqlite:///{parts.netloc}"
            f"{parts.path} (got {url!r})"
        )
    path = unquote(parts.path)
    if not path or path == "/":
        return ResultStore(default_store_path())
    return ResultStore(path)


register_backend("sqlite", _sqlite_backend)


__all__ = [
    "StoreBackend",
    "BackendFactory",
    "register_backend",
    "available_schemes",
    "store_from_url",
]
