import os

from repro.parallel import run_parallel_procedure
from repro.parallel.shm import leaked_segments


def run_one(proc, arrays, scalars=None, **options):
    """The one dispatch of a single-DOALL procedure's run."""
    (result,) = run_parallel_procedure(proc, arrays, scalars, **options).dispatches
    return result


def own_segments() -> list[str]:
    """:func:`leaked_segments` that this process created.

    The parent of a run creates every segment and names it with its pid,
    so a leak check through this helper ignores segments of other
    processes on the same host (a second test suite, a server).
    """
    tag = f"-{os.getpid()}-"
    return [name for name in leaked_segments() if tag in name]
