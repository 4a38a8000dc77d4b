import os

from repro.parallel import run_parallel_procedure
from repro.parallel.shm import leaked_segments


def run_one(proc, arrays, scalars=None, **options):
    """The one dispatch of a single-DOALL procedure's run."""
    (result,) = run_parallel_procedure(proc, arrays, scalars, **options).dispatches
    return result


def safety_for(name: str) -> str | None:
    """The safety mode a registry workload dispatches under: the default,
    except ``floyd``, whose relaxation is parallel by a value argument the
    verifier cannot make (row and column ``k`` do not change in step
    ``k``), so it runs under the opt-out, dispatched as tagged."""
    return "off" if name == "floyd" else None


def own_segments() -> list[str]:
    """:func:`leaked_segments` that this process created.

    The parent of a run creates every segment and names it with its pid,
    so a leak check through this helper ignores segments of other
    processes on the same host (a second test suite, a server).
    """
    tag = f"-{os.getpid()}-"
    return [name for name in leaked_segments() if tag in name]


def pin_chunk_lang(monkeypatch, lang: str) -> None:
    """Make every plan made from here on start from chunk language
    ``lang`` on float64 arrays: ``"c"`` as the host stands, ``"numpy"``
    with the compiler hidden (the ``compilerless`` fixture), ``"py"`` as
    the plan derives for any other dtype."""
    if lang == "numpy":
        monkeypatch.setattr(
            "repro.parallel.runtime.have_compiler", lambda cc="gcc": False
        )
    elif lang == "py":
        monkeypatch.setattr("repro.parallel.plan.chunk_lang", lambda arrays: "py")
