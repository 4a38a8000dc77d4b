from repro.parallel import run_parallel_procedure


def run_one(proc, arrays, scalars=None, **options):
    """The one dispatch of a single-DOALL procedure's run."""
    (result,) = run_parallel_procedure(proc, arrays, scalars, **options).dispatches
    return result
