"""Concurrent opens of a fresh result store.

Several drivers of a fleet may open the same not-yet-existing store at the
same moment: the first ``PRAGMA journal_mode=WAL`` of a new database and
its schema/version row are both races between the openers.  Every open
must succeed, and the store must come out with exactly one version row.
"""

from __future__ import annotations

import threading

from repro.runner.store import STORE_SCHEMA_VERSION, ResultStore

N_STORES = 50
N_THREADS = 4


def test_concurrent_opens_of_fresh_stores_never_raise(tmp_path):
    errors = []
    for index in range(N_STORES):
        path = tmp_path / f"store-{index}.sqlite"
        barrier = threading.Barrier(N_THREADS)

        def open_store() -> None:
            barrier.wait()
            try:
                ResultStore(path).close()
            except Exception as exc:  # every failure is the finding
                errors.append(f"{path.name}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=open_store) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        with ResultStore(path) as store:
            rows = store._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchall()
            assert [row["value"] for row in rows] == [str(STORE_SCHEMA_VERSION)]
            journal = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert journal == "wal"
    assert errors == []
