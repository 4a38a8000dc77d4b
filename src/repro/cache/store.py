"""The content-addressed artifact store.

Layout (one directory per entry, one file per artifact)::

    <root>/
      objects/<key>/          # key = sha256 hex from repro.cache.keys
        meta.json             # {"kind": ..., "files": {name: size}, ...}
        <blob files>
      tmp/                    # staging area for atomic publication

Writes are atomic: an entry is staged under ``tmp/`` and published with a
single ``os.rename`` into ``objects/``, so readers (including readers in
other processes) only ever see complete entries.  When two processes race
to publish the same key, one rename wins and the loser quietly discards
its staging copy — both then read the same entry.

Reads are corruption-tolerant: a missing/unparsable ``meta.json``, a blob
listed in the manifest that is absent or has the wrong size — any of it —
counts the entry as corrupt, deletes it, bumps the ``errors`` counter, and
reports a miss.  Callers recompile; the cache never crashes a compile.

Eviction is size-bounded LRU: entry directories carry their last-use time
as the directory mtime (touched on every hit), and ``put`` evicts
oldest-first until the store fits ``max_bytes`` again.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import string
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

#: Default size budget for LRU eviction (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_HEX = set(string.hexdigits)


class CacheKeyError(ValueError):
    """A key that is not a plain hex digest (path-traversal guard)."""


@dataclass
class CacheStats:
    """Monotonic counters, exported via ``/metrics``."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
        }


@dataclass
class CacheEntry:
    """One published entry: its key, directory, and manifest."""

    key: str
    path: Path
    meta: dict = field(default_factory=dict)

    def file_path(self, name: str) -> Path:
        return self.path / name

    def read_bytes(self, name: str) -> bytes:
        return self.file_path(name).read_bytes()

    def read_text(self, name: str) -> str:
        return self.file_path(name).read_text()

    @property
    def files(self) -> dict[str, int]:
        """Manifest: blob name → expected size in bytes."""
        return dict(self.meta.get("files", {}))


class ArtifactCache:
    """Content-addressed on-disk cache of compilation artifacts.

    Thread-safe within a process (one lock around mutation and counters);
    safe across processes by construction (atomic rename publication).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.root = Path(root).expanduser()
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()

    # -- paths ------------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def tmp_dir(self) -> Path:
        return self.root / "tmp"

    def path_for(self, key: str) -> Path:
        """Directory a (published) entry for ``key`` lives in."""
        if not key or any(c not in _HEX for c in key):
            raise CacheKeyError(f"cache key must be a hex digest, got {key!r}")
        return self.objects_dir / key

    # -- reads ------------------------------------------------------------
    def get(self, key: str) -> CacheEntry | None:
        """Look up ``key``; verified hit or None.

        Verifies the manifest (every listed blob present with its recorded
        size) before reporting a hit, and touches the entry for LRU.  Any
        defect deletes the entry and reports a miss.
        """
        path = self.path_for(key)
        with self._lock:
            if not path.is_dir():
                self.stats.misses += 1
                return None
            try:
                meta = json.loads((path / "meta.json").read_text())
                files = meta["files"]
                for name, size in files.items():
                    blob = path / name
                    if not blob.is_file() or blob.stat().st_size != size:
                        raise OSError(
                            f"blob {name!r} missing or truncated"
                        )
            except Exception:
                # Corrupt/truncated/raced entry: drop it, report a miss —
                # the caller recompiles and republishes.
                self.stats.errors += 1
                self.stats.misses += 1
                shutil.rmtree(path, ignore_errors=True)
                return None
            try:
                os.utime(path)  # LRU touch
            except OSError:  # pragma: no cover - entry raced away
                pass
            self.stats.hits += 1
            return CacheEntry(key, path, meta)

    def get_bytes(self, key: str, name: str) -> bytes | None:
        """One blob of a verified entry, or None on any miss."""
        entry = self.get(key)
        if entry is None:
            return None
        try:
            return entry.read_bytes(name)
        except OSError:  # pragma: no cover - deleted between get and read
            with self._lock:
                self.stats.errors += 1
            return None

    # -- writes -----------------------------------------------------------
    def put(
        self,
        key: str,
        files: Mapping[str, bytes | str],
        meta: Mapping | None = None,
    ) -> CacheEntry:
        """Publish an entry atomically; idempotent under races.

        ``files`` maps blob name → content (text is stored UTF-8).  Extra
        ``meta`` keys are recorded alongside the manifest.  If another
        writer published ``key`` first, its entry wins and is returned.
        """
        dest = self.path_for(key)
        blobs = {
            name: (data.encode("utf-8") if isinstance(data, str) else data)
            for name, data in files.items()
        }
        if any(name == "meta.json" or "/" in name or name.startswith(".")
               for name in blobs):
            raise ValueError("blob names must be plain file names")
        manifest = {name: len(data) for name, data in blobs.items()}
        record = dict(meta or {})
        record["files"] = manifest
        staging = self.tmp_dir / f"{key[:16]}-{secrets.token_hex(8)}"
        staging.mkdir(parents=True)
        try:
            for name, data in blobs.items():
                (staging / name).write_bytes(data)
            (staging / "meta.json").write_text(
                json.dumps(record, sort_keys=True)
            )
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, dest)
            except OSError:
                # A concurrent writer published first — their (complete,
                # identical-keyed) entry stands.
                shutil.rmtree(staging, ignore_errors=True)
                return CacheEntry(key, dest, record)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        with self._lock:
            self.stats.stores += 1
        self._evict_if_needed()
        return CacheEntry(key, dest, record)

    def invalidate(self, key: str) -> None:
        """Best-effort removal of one entry."""
        shutil.rmtree(self.path_for(key), ignore_errors=True)

    def clear(self) -> None:
        """Remove every entry (counters are kept — they are monotonic)."""
        shutil.rmtree(self.objects_dir, ignore_errors=True)
        shutil.rmtree(self.tmp_dir, ignore_errors=True)

    # -- accounting / eviction -------------------------------------------
    def _scan(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) per published entry — oldest first."""
        rows = []
        try:
            it = os.scandir(self.objects_dir)
        except FileNotFoundError:
            return []
        with it:
            for d in it:
                if not d.is_dir():
                    continue
                size = 0
                try:
                    with os.scandir(d.path) as files:
                        size = sum(
                            f.stat().st_size for f in files if f.is_file()
                        )
                    rows.append((d.stat().st_mtime, size, Path(d.path)))
                except OSError:  # pragma: no cover - raced away
                    continue
        rows.sort(key=lambda r: r[0])
        return rows

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._scan())

    def entry_count(self) -> int:
        return len(self._scan())

    def _evict_if_needed(self) -> int:
        """LRU-evict until the store fits ``max_bytes``; bytes freed.

        Cross-process audit: several replicas may run eviction against the
        same directory concurrently, and another process may *use* (touch)
        an entry between our scan and our rmtree.  Each candidate is
        therefore re-stat'ed immediately before removal — an entry whose
        mtime moved since the scan was just used by someone else and is
        spared this round; an entry that vanished was evicted by a peer
        and is not double-counted.  A reader that loses the race anyway
        sees a missing/truncated entry, which the corruption-tolerant
        ``get`` path already converts into a clean miss + recompile.
        """
        if self.max_bytes is None:
            return 0
        rows = self._scan()
        total = sum(size for _, size, _ in rows)
        freed = 0
        with self._lock:
            for mtime, size, path in rows:
                if total <= self.max_bytes:
                    break
                try:
                    if path.stat().st_mtime > mtime:
                        continue  # touched since the scan: recently used
                except OSError:
                    total -= size  # a peer evicted it first
                    continue
                shutil.rmtree(path, ignore_errors=True)
                total -= size
                freed += size
                self.stats.evictions += 1
        return freed

    def stats_dict(self) -> dict:
        """Counters + occupancy in the ``/metrics`` ``cache`` schema."""
        rows = self._scan()
        return {
            **self.stats.as_dict(),
            "entries": len(rows),
            "bytes": sum(size for _, size, _ in rows),
            "max_bytes": self.max_bytes,
            "dir": str(self.root),
        }


# ---------------------------------------------------------------------------
# The process-default cache (what "cache='default'" resolves to)
# ---------------------------------------------------------------------------

_UNSET = object()
_default: ArtifactCache | None | object = _UNSET
_default_lock = threading.Lock()


def _env_default() -> ArtifactCache | None:
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get(
        "REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro")
    )
    try:
        max_bytes = int(os.environ["REPRO_CACHE_MAX_BYTES"])
    except (KeyError, ValueError):
        max_bytes = DEFAULT_MAX_BYTES
    return ArtifactCache(root, max_bytes=max_bytes)


def default_cache() -> ArtifactCache | None:
    """The process-wide default cache (None when disabled).

    Built lazily from ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_BYTES`` /
    ``REPRO_NO_CACHE`` on first use; overridable with :func:`configure`.
    """
    global _default
    with _default_lock:
        if _default is _UNSET:
            _default = _env_default()
        return _default  # type: ignore[return-value]


def configure(
    dir: str | os.PathLike | None = None,
    enabled: bool = True,
    max_bytes: int | None = None,
) -> ArtifactCache | None:
    """Set the process-default cache (the CLI's ``--cache-dir/--no-cache``).

    ``enabled=False`` disables default caching entirely; ``dir=None`` with
    ``enabled=True`` re-resolves from the environment.
    """
    global _default
    with _default_lock:
        if not enabled:
            _default = None
        elif dir is None and max_bytes is None:
            _default = _env_default()
        else:
            base = _env_default()
            root = dir if dir is not None else (
                base.root if base is not None else
                os.path.join("~", ".cache", "repro")
            )
            _default = ArtifactCache(
                root,
                max_bytes=(
                    max_bytes
                    if max_bytes is not None
                    else (base.max_bytes if base else DEFAULT_MAX_BYTES)
                ),
            )
        return _default


def resolve_cache(
    cache: "ArtifactCache | str | os.PathLike | None" = "default",
) -> ArtifactCache | None:
    """Normalize a user-facing ``cache=`` argument to a store or None.

    ``"default"`` → the process default (which may itself be disabled);
    ``None``/``False`` → no caching; an :class:`ArtifactCache` → itself;
    a path → a store rooted there.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, ArtifactCache):
        return cache
    if isinstance(cache, str) and cache == "default":
        return default_cache()
    return ArtifactCache(cache)
