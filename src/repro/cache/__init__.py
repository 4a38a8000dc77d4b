"""repro.cache — content-addressed, on-disk compilation artifacts.

The paper's whole argument is that coalescing moves scheduling work out of
the hot loop and into a one-time compile step.  This package makes that
step *actually* one-time across processes and runs: every expensive
artifact the pipeline produces — the lowered+transformed IR, compiled
C shared libraries — is stored on disk
under a canonical content hash of everything that determines it (source
text, transform options, backend flags, repro version).

* :func:`repro.cache.keys.artifact_key` — the canonical hash.
* :class:`repro.cache.store.ArtifactCache` — the store: atomic writes,
  corruption-tolerant reads (a bad entry is a miss, never a crash),
  size-bounded LRU eviction, and hit/miss/eviction counters that feed the
  ``/metrics`` endpoint of :mod:`repro.service`.

Environment knobs (all optional):

* ``REPRO_CACHE_DIR`` — where the default cache lives
  (default ``~/.cache/repro``).
* ``REPRO_CACHE_MAX_BYTES`` — size budget for LRU eviction
  (default 256 MiB).
* ``REPRO_NO_CACHE=1`` — disable the default cache entirely.
"""

from repro.cache.keys import CACHE_VERSION, artifact_key, canonical_payload
from repro.cache.store import (
    ArtifactCache,
    CacheEntry,
    CacheStats,
    configure,
    default_cache,
    resolve_cache,
)

__all__ = [
    "ArtifactCache",
    "CACHE_VERSION",
    "CacheEntry",
    "CacheStats",
    "artifact_key",
    "canonical_payload",
    "configure",
    "default_cache",
    "resolve_cache",
]
