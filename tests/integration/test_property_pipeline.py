"""Property tests over randomly generated loop nests.

A hypothesis strategy builds arbitrary rectangular DOALL nests — varying
depth, extents, lower bounds, steps, body statements, and affine subscript
offsets — and every transformation in the library must preserve program
results on them.  This is the widest net the suite casts.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.ir.builder import assign, block, ref
from repro.ir.expr import BinOp, Const, Expr, Var
from repro.ir.stmt import Block, Loop, LoopKind, Procedure
from repro.ir.validate import validate
from repro.transforms import block_recovered_loop, coalesce, coalesce_procedure, fission_procedure
from repro.transforms.normalize import normalize_procedure

from tests.equivalence import assert_equivalent

MAX_DEPTH = 3
MAX_EXTENT = 4
PAD = 8  # array slack so offset subscripts stay in bounds


@st.composite
def random_nests(draw) -> tuple[Procedure, dict[str, tuple[int, ...]]]:
    """A procedure holding one rectangular DOALL nest with affine bodies."""
    depth = draw(st.integers(1, MAX_DEPTH))
    extents = [draw(st.integers(1, MAX_EXTENT)) for _ in range(depth)]
    lowers = [draw(st.integers(0, 2)) for _ in range(depth)]
    steps = [draw(st.integers(1, 2)) for _ in range(depth)]
    index_names = [f"i{k}" for k in range(depth)]

    def subscript(k: int) -> Expr:
        off = draw(st.integers(0, 2))
        e: Expr = Var(index_names[k])
        if off:
            e = BinOp("+", e, Const(off))
        return e

    def value_expr() -> Expr:
        # linear marker over the indices, optionally plus a load of U
        e: Expr = Const(draw(st.integers(1, 5)))
        for k in range(depth):
            e = BinOp(
                "+",
                e,
                BinOp("*", Const(draw(st.integers(1, 7))), Var(index_names[k])),
            )
        if draw(st.booleans()):
            e = BinOp(
                "+", e, ref("U", *[subscript(k) for k in range(depth)])
            )
        return e

    n_stmts = draw(st.integers(1, 3))
    stmts = [
        assign(ref("T", *[subscript(k) for k in range(depth)]), value_expr())
        for _ in range(n_stmts)
    ]

    body: Block = Block(tuple(stmts))
    for k in range(depth - 1, -1, -1):
        lo = lowers[k]
        hi = lo + (extents[k] - 1) * steps[k]
        body = Block(
            (
                Loop(
                    index_names[k],
                    Const(lo),
                    Const(hi),
                    body,
                    Const(steps[k]),
                    LoopKind.DOALL,
                ),
            )
        )

    p = Procedure("rand", body, {"T": depth, "U": depth}, ())
    # Max index per axis: lo + (extent-1)*step + offset(≤2); PAD covers it.
    sizes = {
        "T": tuple(lo + (n - 1) * s + PAD for lo, n, s in zip(lowers, extents, steps)),
        "U": tuple(lo + (n - 1) * s + PAD for lo, n, s in zip(lowers, extents, steps)),
    }
    validate(p)
    return p, sizes


@given(data=random_nests(), style=st.sampled_from(["ceiling", "divmod"]),
       seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_property_coalesce_any_nest(data, style, seed):
    p, sizes = data
    loop = p.body.stmts[0]
    result = coalesce(loop, style=style, auto_normalize=True)
    p2 = p.with_body(block(result.loop))
    validate(p2)
    assert_equivalent(p, p2, sizes, seed=seed)


@given(data=random_nests(), block_size=st.integers(1, 9),
       seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_block_recovery_any_nest(data, block_size, seed):
    p, sizes = data
    loop = p.body.stmts[0]
    result = coalesce(loop, auto_normalize=True)
    sr = block_recovered_loop(result, block_size)
    p2 = p.with_body(block(sr))
    validate(p2)
    assert_equivalent(p, p2, sizes, seed=seed)


@given(data=random_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_distribute_then_coalesce(data, seed):
    p, sizes = data
    p_norm = normalize_procedure(p)
    distributed = fission_procedure(p_norm, fission=False, distribute=True).procedure
    validate(distributed)
    # One walk reaches the fixed point: walking its output is the identity.
    again = fission_procedure(distributed, reduction=True, distribute=True)
    assert again.procedure == distributed
    assert_equivalent(p, distributed, sizes, seed=seed)
    coalesced, _ = coalesce_procedure(distributed)
    validate(coalesced)
    assert_equivalent(p, coalesced, sizes, seed=seed)


@given(data=random_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_property_codegen_matches_interpreter(data, seed):
    from repro.codegen import compile_procedure
    from repro.runtime.equivalence import copy_env, random_env
    from repro.runtime.interp import run

    p, sizes = data
    env = random_env(p, sizes, seed=seed)
    e1, e2 = copy_env(env), copy_env(env)
    run(p, e1)
    compile_procedure(p).run(e2)
    for name in p.arrays:
        assert np.array_equal(e1[name], e2[name])


# ---------------------------------------------------------------------------
# Hybrid nests: a serial loop over DOALLs, through every execution path
# ---------------------------------------------------------------------------

HYBRID_SPAN = 6  # largest loop value; arrays are padded past every offset


@st.composite
def hybrid_nests(draw) -> tuple[Procedure, dict[str, int]]:
    """A serial outer loop over one or two DOALLs, maybe one more after it.

    The outer bound is a constant or the parameter ``n``; an inner DOALL is
    rectangular or triangular in the serial variable (so instances shrink
    to nothing and below the fleet size), may sit under a ``t != c`` guard,
    and updates its own elements of one array from an array nobody writes
    — race-free by construction, so every path must agree bit for bit.
    """
    from repro.ir.builder import doall, if_, proc, serial, v

    trips = draw(st.integers(1, HYBRID_SPAN))
    symbolic = draw(st.booleans())
    top = v("n") if symbolic else Const(trips)

    def one_doall(index: str, target: str, inside: bool) -> Loop:
        shape = draw(st.sampled_from(["full", "from_t", "upto_t"])) if inside else "full"
        lo = v("t") if shape == "from_t" else Const(draw(st.integers(1, 2)))
        hi = v("t") if shape == "upto_t" else Const(draw(st.integers(2, HYBRID_SPAN)))
        off = draw(st.integers(0, 2))
        where = ref(target, BinOp("+", v(index), Const(off)) if off else v(index))
        value = BinOp("+", where, BinOp("*", Const(draw(st.integers(1, 5))), v(index)))
        if inside and draw(st.booleans()):
            value = BinOp("+", value, v("t"))
        if draw(st.booleans()):
            value = BinOp("+", value, ref("U", BinOp("+", v(index), Const(draw(st.integers(0, 2))))))
        return doall(index, lo, hi)(assign(where, value))

    inner: list = []
    for index, target in zip("ij", "AB"):
        if index == "j" and not draw(st.booleans()):
            break
        loop = one_doall(index, target, inside=True)
        if draw(st.booleans()):
            guard = BinOp("!=", v("t"), Const(draw(st.integers(1, HYBRID_SPAN))))
            inner.append(if_(guard, loop))
        else:
            inner.append(loop)
    stmts: list = [serial("t", 1, top)(*inner)]
    if draw(st.booleans()):
        stmts.append(one_doall("k", "A", inside=False))
    p = proc("hybrid", *stmts, arrays={"A": 1, "B": 1, "U": 1}, scalars=("n",))
    validate(p)
    return p, {"n": trips}


@given(data=hybrid_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=60_000, derandomize=True)
def test_property_hybrid_nest_every_path_agrees(data, seed):
    """interpreter ≡ serial C ≡ mp per dispatch ≡ mp SPMD region."""
    import pytest

    from repro.codegen.cload import compile_c_procedure, have_compiler
    from repro.parallel import run_parallel_procedure
    from repro.runtime.equivalence import copy_env, random_env
    from repro.runtime.interp import run
    from tests.parallel import pin_chunk_lang

    if not have_compiler():
        pytest.skip("no gcc on PATH")
    p, scalars = data
    size = (HYBRID_SPAN + 5,)
    env = random_env(p, {"A": size, "B": size, "U": size}, seed=seed, integer=True)
    want = copy_env(env)
    run(p, want, scalars)

    def agrees(arrays) -> bool:
        return all(np.array_equal(arrays[k], want[k]) for k in want)

    compiled = copy_env(env)
    compile_c_procedure(p, omp=False).run(compiled, scalars)
    assert agrees(compiled)
    for safety in ("off", None):
        for workers in (2, 3):
            counts = {}
            for lang in ("py", "c"):
                got = copy_env(env)
                with pytest.MonkeyPatch.context() as patch:
                    pin_chunk_lang(patch, lang)
                    result = run_parallel_procedure(
                        p, got, scalars, workers=workers, safety=safety,
                        timeout=60.0,
                    )
                assert agrees(got), (safety, workers, lang)
                counts[lang] = [
                    (d.loop_var, d.lo, d.hi, d.claims, d.lock_ops)
                    for d in result.dispatches
                ]
                assert result.region.startswith(
                    "native" if lang == "c" else "SPMD006"
                )
            assert counts["py"] == counts["c"]
