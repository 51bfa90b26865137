"""Content-addressed result store with atomic writes and GC.

Entries live under ``<cache dir>/v<CACHE_VERSION>/<key>.json`` as JSON
float lists.  All disk writes go through a tempfile + :func:`os.replace`
rename, so a concurrent reader never observes a half-written entry and
concurrent writers of the same key settle on one complete file.  A
truncated or corrupt entry is treated as a cache miss (and removed), never
a crash.

The store layers:

* an in-memory dict (process-local, always on);
* the optional on-disk layer (``REPRO_CACHE_DIR`` override,
  ``REPRO_NO_CACHE`` kill switch);
* in-flight deduplication for :meth:`ResultStore.compute` — concurrent
  callers of the same key block on one computation instead of duplicating
  it;
* a ``manifest.json`` with the cache version, cumulative hit/miss/write
  statistics and per-job telemetry records (how each entry was produced:
  execution mode, wall seconds, attempts — see
  :meth:`ResultStore.record_job_telemetry`), refreshed via
  :meth:`ResultStore.flush_manifest` and rendered by
  ``stretch-repro inspect``;
* :meth:`ResultStore.gc` — evicts entry directories from stale cache
  versions (and pre-engine flat-layout entries).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "CACHE_VERSION",
    "ResultStore",
    "StoreStats",
    "default_store",
    "reset_default_stores",
]

#: Bump to invalidate on-disk cache entries after model changes.
CACHE_VERSION = 11

#: Most recent per-job telemetry records kept in the manifest.
MANIFEST_JOB_LIMIT = 1000

_VERSION_DIR_RE = re.compile(r"^v(\d+)$")


@dataclass
class StoreStats:
    """Session-local counters for one :class:`ResultStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_entries: int = 0
    inflight_waits: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["hits"] = self.hits
        payload["hit_rate"] = round(self.hit_rate, 4)
        return payload


def resolve_cache_dir() -> Path | None:
    """Resolve the on-disk cache root from the environment (None = memory only)."""
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path(__file__).resolve().parents[3] / ".repro_cache"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


class ResultStore:
    """Content-addressed store for job results (tuples of floats)."""

    def __init__(self, directory: Path | None, version: int = CACHE_VERSION):
        self.directory = Path(directory) if directory is not None else None
        self.version = version
        self.stats = StoreStats()
        self._memory: dict[str, tuple[float, ...]] = {}
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}
        #: Session-local {job key: telemetry record}, merged into the
        #: manifest's ``jobs`` section on :meth:`flush_manifest`.
        self.job_telemetry: dict[str, dict] = {}

    # -- path helpers ---------------------------------------------------

    @property
    def entry_dir(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"v{self.version}"

    def _entry_path(self, key: str) -> Path | None:
        entry_dir = self.entry_dir
        return None if entry_dir is None else entry_dir / f"{key}.json"

    # -- read / write ---------------------------------------------------

    def get(self, key: str) -> tuple[float, ...] | None:
        """Look up a key (memory, then disk); corrupt entries are misses."""
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            return hit
        path = self._entry_path(key)
        if path is None or not path.exists():
            self.stats.misses += 1
            return None
        try:
            values = tuple(map(float, json.loads(path.read_text())))
        except (ValueError, TypeError, OSError):
            # Truncated / interleaved / unreadable entry: drop it and recompute.
            self.stats.corrupt_entries += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.disk_hits += 1
        self._memory[key] = values
        return values

    def put(self, key: str, values: tuple[float, ...]) -> bool:
        """Store a result; the disk write is atomic (tempfile + rename).

        Returns True when the entry reached disk, False for a memory-only
        store or a failed (swallowed) disk write.  The entry is encoded
        with :func:`json.dumps`, not ``json.dump``: writing to a handle
        runs CPython's pure-Python encoder, several times slower than the
        C one that produces the same bytes.
        """
        values = tuple(map(float, values))
        self._memory[key] = values
        self.stats.writes += 1
        path = self._entry_path(key)
        if path is None:
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(list(values)))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False  # disk layer is best-effort; memory layer holds it
        return True

    def compute(self, job) -> tuple[float, ...]:
        """Return ``job``'s result, running it at most once per key.

        Concurrent in-process callers of the same key wait for the first
        computation instead of duplicating it (in-flight deduplication);
        cross-process duplication is prevented by the executor's key-level
        scheduling, and the atomic writes make racing writers harmless.
        """
        key = job.key
        while True:
            with self._lock:
                hit = self.get(key)
                if hit is not None:
                    return hit
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
                self.stats.inflight_waits += 1
            event.wait()
        try:
            values = tuple(job.run())
            self.put(key, values)
            return values
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    def clear_memory(self, *keys: str) -> None:
        """Drop ``keys`` (all entries when none are named) from the memory layer.

        The disk layer keeps them: a later :meth:`get` reads them back.
        """
        if not keys:
            self._memory.clear()
        for key in keys:
            self._memory.pop(key, None)

    def record_job_telemetry(self, key: str, record: dict) -> None:
        """Attach a telemetry record to a job key (how it was produced).

        Records accumulate in memory and persist into the manifest's
        ``jobs`` section on :meth:`flush_manifest`; the executor writes one
        per unique job (``mode``: pool/serial/in_process/cache_hit,
        ``seconds``, ``tries``, ``ts``).  ``stretch-repro inspect`` renders
        them next to the stored result values.
        """
        self.job_telemetry[key] = dict(record)

    # -- manifest / GC --------------------------------------------------

    @property
    def manifest_path(self) -> Path | None:
        return None if self.directory is None else self.directory / "manifest.json"

    def read_manifest(self) -> dict:
        path = self.manifest_path
        if path is None or not path.exists():
            return {}
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, OSError):
            return {}
        return manifest if isinstance(manifest, dict) else {}

    def flush_manifest(self) -> dict:
        """Merge this session's statistics into ``manifest.json`` atomically."""
        path = self.manifest_path
        if path is None:
            return {}
        manifest = self.read_manifest()
        manifest["cache_version"] = self.version
        # Cumulative counters across sessions.
        manifest["hits"] = manifest.get("hits", 0) + self.stats.hits
        manifest["misses"] = manifest.get("misses", 0) + self.stats.misses
        manifest["writes"] = manifest.get("writes", 0) + self.stats.writes
        manifest["corrupt_entries"] = (
            manifest.get("corrupt_entries", 0) + self.stats.corrupt_entries
        )
        entry_dir = self.entry_dir
        manifest["entries"] = (
            sum(1 for __ in entry_dir.glob("*.json")) if entry_dir and entry_dir.is_dir()
            else 0
        )
        # Per-job telemetry: merge this session's records, newest-first cap.
        jobs = manifest.get("jobs")
        if not isinstance(jobs, dict):
            jobs = {}
        jobs.update(self.job_telemetry)
        if len(jobs) > MANIFEST_JOB_LIMIT:
            newest = sorted(
                jobs.items(), key=lambda kv: kv[1].get("ts", 0), reverse=True
            )[:MANIFEST_JOB_LIMIT]
            jobs = dict(newest)
        manifest["jobs"] = jobs
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".manifest.", suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle, indent=2)
            os.replace(tmp, path)
        except OSError:
            pass
        # Reset session counters so repeated flushes do not double-count.
        self.stats = StoreStats()
        self.job_telemetry = {}
        return manifest

    def gc(self) -> int:
        """Evict entries from stale cache versions; return the eviction count.

        Removes ``v<N>`` directories with ``N != self.version`` and flat
        ``<key>.json`` files from the pre-engine cache layout.
        """
        if self.directory is None or not self.directory.is_dir():
            return 0
        evicted = 0
        for child in self.directory.iterdir():
            match = _VERSION_DIR_RE.match(child.name)
            if match and child.is_dir():
                if int(match.group(1)) != self.version:
                    evicted += sum(1 for __ in child.glob("*.json"))
                    shutil.rmtree(child, ignore_errors=True)
            elif child.is_file() and child.suffix == ".json" and child.name != "manifest.json":
                # Legacy flat-layout entry (pre content-addressed store).
                try:
                    child.unlink()
                    evicted += 1
                except OSError:
                    pass
        self.flush_manifest()
        return evicted


# ----------------------------------------------------------------------
# Default store (one per resolved cache directory)
# ----------------------------------------------------------------------

_default_stores: dict[Path | None, ResultStore] = {}
_default_lock = threading.Lock()


def default_store() -> ResultStore:
    """The process-wide store for the currently configured cache directory.

    Re-resolves ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` on every call, so
    tests (and long-lived processes) that repoint the cache get an isolated
    store per directory while repeated calls stay cheap.
    """
    directory = resolve_cache_dir()
    with _default_lock:
        store = _default_stores.get(directory)
        if store is None:
            store = ResultStore(directory)
            _default_stores[directory] = store
        return store


def reset_default_stores() -> None:
    """Forget all default stores (test isolation helper)."""
    with _default_lock:
        _default_stores.clear()
