"""``repro.cluster`` — the N-replica deployment of the compile-and-run
service.

One :class:`~repro.cluster.replica.ReplicaSupervisor` keeps a fleet of
:class:`~repro.service.server.ReproServer` processes alive (spawned, health
-monitored, restarted on crash), all sharing one content-addressed
:class:`~repro.cache.ArtifactCache` directory so a shape compiled on any
replica is a warm cache hit on all of them.  A
:class:`~repro.cluster.router.ClusterRouter` front door load-balances the
synchronous ``/compile``/``/run``/``/lint`` endpoints and the async job
protocol (``/submit`` → job ID → ``/poll``/``/result``/``/cancel``) over
the fleet through a durable in-memory :class:`~repro.cluster.jobs.JobQueue`
with bounded depth, per-tenant quotas (:mod:`repro.cluster.quotas`), TTLs,
and a per-job retry budget that survives replica crashes.

Start one with ``python -m repro cluster --replicas 4``; hammer it with
``python -m repro loadtest`` (:mod:`repro.cluster.loadtest`).
"""

from repro.cluster.jobs import AdmissionError, Job, JobQueue
from repro.cluster.quotas import QuotaExceeded, TenantQuotas
from repro.cluster.replica import ReplicaSupervisor
from repro.cluster.router import ClusterRouter, start_cluster

__all__ = [
    "AdmissionError",
    "Job",
    "JobQueue",
    "QuotaExceeded",
    "TenantQuotas",
    "ReplicaSupervisor",
    "ClusterRouter",
    "start_cluster",
]
