"""repro.service — the long-lived compile-and-run server.

The paper moves scheduling work into a one-time compile step; this package
moves the one-time compile step out of the request path entirely.  A
resident process (``python -m repro serve``) holds:

* the content-addressed artifact cache (:mod:`repro.cache`) — lowered IR,
  transform results, and compiled libraries survive across requests *and*
  across server restarts;
* a registry of compiled programs keyed by content hash, so ``POST /run``
  never recompiles;
* warm :class:`repro.parallel.pool.WorkerPool` fleets keyed by
  (workers, array shapes), so an mp run is a shared-memory load plus job
  messages to already-running workers — no forking on the request path.

Endpoints (JSON over HTTP, stdlib ``http.server`` only):

* ``POST /compile`` — source (restricted Python or the mini-language) +
  options → program key (+ whether the artifact cache served it);
* ``POST /run`` — program key + arrays/scalars → result arrays + measured
  dispatch statistics (accepts a ``safety`` mode; an enforce run whose
  every dispatch is refused degrades to the serial build with the reason).
  Arrays travel over one of two transports: JSON lists (default,
  dtype-tagged) or the :mod:`repro.wire` binary frame;
* ``POST /lint`` — source → chunk-safety verdicts and findings
  (:mod:`repro.lint`, schema ``repro.lint/v1``);
* ``GET /healthz`` — liveness + resident-state summary;
* ``GET /metrics`` — the unified :func:`repro.parallel.observe.metrics_snapshot`
  document (cache + dispatch + server counters).

:class:`repro.service.client.ServiceClient` is the in-process client used
by the tests, the CI smoke step, and scripts.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproServer, serve_background, serve_main

__all__ = [
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "serve_background",
    "serve_main",
]
