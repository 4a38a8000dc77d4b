"""Unit tests for strength-reduced block index recovery."""

import numpy as np
import pytest

from repro.ir.builder import assign, block, c, doall, proc, ref, v
from repro.ir.expr import BinOp, Const
from repro.ir.validate import validate
from repro.ir.visitor import walk_exprs
from repro.runtime.interp import run
from repro.transforms.base import TransformError
from repro.transforms.coalesce import coalesce
from repro.transforms.strength import block_recovered_loop, odometer_advance

from tests.equivalence import assert_equivalent


def _mark(shape):
    m = len(shape)
    idx = [v(f"i{k}") for k in range(m)]
    value = c(0)
    for k in range(m):
        value = value * 1000 + idx[k]
    body = assign(ref("T", *idx), value)
    loop = body
    for k in range(m - 1, -1, -1):
        loop = doall(f"i{k}", 1, shape[k])(loop)
    return proc("mark", loop, arrays={"T": m})


class TestOdometer:
    def test_single_level(self):
        stmts = odometer_advance(("i",), (Const(5),))
        assert len(stmts) == 1  # plain increment, no wrap check

    def test_two_levels_has_wrap(self):
        stmts = odometer_advance(("i", "j"), (Const(2), Const(3)))
        assert len(stmts) == 2  # increment + wrap-if


class TestBlockRecovery:
    @pytest.mark.parametrize("shape,block_size", [
        ((4, 5), 1),
        ((4, 5), 3),
        ((4, 5), 20),
        ((4, 5), 7),
        ((2, 3, 4), 5),
        ((6,), 4),
        ((1, 1, 3), 2),
    ])
    def test_equivalence(self, shape, block_size):
        p = _mark(shape)
        result = coalesce(p.body.stmts[0])
        sr = block_recovered_loop(result, block_size)
        p2 = p.with_body(block(sr))
        validate(p2)
        assert_equivalent(p, p2, {"T": tuple(n + 1 for n in shape)})

    def test_requires_assign_materialization(self):
        p = _mark((3, 3))
        result = coalesce(p.body.stmts[0], materialize="substitute")
        with pytest.raises(TransformError, match="materialize"):
            block_recovered_loop(result, 4)

    def test_bad_block_size(self):
        p = _mark((3, 3))
        result = coalesce(p.body.stmts[0])
        with pytest.raises(TransformError, match="positive"):
            block_recovered_loop(result, 0)

    def test_divmod_only_at_block_heads(self):
        """The point of the optimization: div/mod cost is per *block*, not
        per iteration — the inner loop body contains none."""
        p = _mark((6, 7))
        result = coalesce(p.body.stmts[0])
        sr = block_recovered_loop(result, 5)
        inner = sr.body.stmts[-1]  # the FOR over the block
        divmods = [
            e
            for e in walk_exprs(inner.body)
            if isinstance(e, BinOp) and e.op in ("floordiv", "ceildiv", "mod")
        ]
        assert divmods == []

    def test_measured_divmod_count_scales_with_blocks(self):
        """Counted at runtime: naive recovery pays per iteration, block
        recovery pays per block head."""
        shape = (8, 9)
        total = shape[0] * shape[1]
        block_size = 6
        p = _mark(shape)
        result = coalesce(p.body.stmts[0])

        naive = p.with_body(block(result.loop))
        sr = p.with_body(block(block_recovered_loop(result, block_size)))

        env1 = {"T": np.zeros((shape[0] + 1, shape[1] + 1))}
        env2 = {"T": np.zeros((shape[0] + 1, shape[1] + 1))}
        c1 = run(naive, env1, count_ops=True)
        c2 = run(sr, env2, count_ops=True)

        blocks = -(-total // block_size)
        # Naive: ≥ 1 div/mod per iteration (2-deep nest: 2 divmod ops/iter).
        assert c1.divmod_ops >= total
        # Block-recovered: only the per-block recovery + ceil for strip count.
        assert c2.divmod_ops <= 4 * blocks + 4
        assert c2.divmod_ops < c1.divmod_ops

    def test_symbolic_bounds(self):
        body = assign(ref("T", v("i"), v("j")), v("i") * 100 + v("j"))
        p = proc(
            "m",
            doall("i", 1, v("n"))(doall("j", 1, v("m"))(body)),
            arrays={"T": 2},
            scalars=("n", "m"),
        )
        result = coalesce(p.body.stmts[0])
        sr = block_recovered_loop(result, 4)
        p2 = p.with_body(block(sr))
        validate(p2)
        assert_equivalent(p, p2, {"T": (6, 9)}, {"n": 5, "m": 8})
