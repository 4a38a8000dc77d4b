"""Unit tests for scheduling policies."""

import numpy as np
import pytest

from repro.scheduling.policies import (
    ChunkSelfScheduled,
    GuidedSelfScheduled,
    SelfScheduled,
    StaticBlock,
    StaticCyclic,
    policy_by_name,
)


def drain(claimer):
    out = []
    while True:
        chunk = claimer.next_chunk()
        if chunk is None:
            return out
        out.append(chunk)


def covers_exactly(chunks, n):
    flat = [i for s, z in chunks for i in range(s, s + z)]
    return sorted(flat) == list(range(n))


class TestStaticBlock:
    def test_paper_assignment(self):
        # N=10, p=4: ⌈N/p⌉=3 → blocks (0,3),(3,3),(6,3),(9,1).
        chunks = StaticBlock().static_assignment(10, 4)
        assert chunks == [[(0, 3)], [(3, 3)], [(6, 3)], [(9, 1)]]

    def test_more_processors_than_iterations(self):
        chunks = StaticBlock().static_assignment(3, 8)
        active = [c for c in chunks if c]
        assert len(active) == 3
        assert covers_exactly([c for lst in chunks for c in lst], 3)

    def test_zero_iterations(self):
        assert StaticBlock().static_assignment(0, 4) == [[], [], [], []]

    def test_exact_coverage(self):
        for n in (1, 7, 16, 33):
            for p in (1, 3, 8):
                chunks = [c for lst in StaticBlock().static_assignment(n, p) for c in lst]
                assert covers_exactly(chunks, n)

    def test_is_static(self):
        assert StaticBlock().is_static

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            StaticBlock().static_assignment(-1, 4)
        with pytest.raises(ValueError):
            StaticBlock().static_assignment(4, 0)


class TestStaticBalanced:
    def test_floor_ceil_split(self):
        from repro.scheduling.policies import StaticBalanced

        chunks = StaticBalanced().static_assignment(10, 4)
        # 10 = 3+3+2+2
        assert chunks == [[(0, 3)], [(3, 3)], [(6, 3)], [(9, 1)]] or chunks == [
            [(0, 3)],
            [(3, 3)],
            [(6, 2)],
            [(8, 2)],
        ]
        sizes = [sum(z for _, z in lst) for lst in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_exact_coverage(self):
        from repro.scheduling.policies import StaticBalanced

        for n in (1, 7, 16, 33):
            for p in (1, 3, 8):
                chunks = [
                    c for lst in StaticBalanced().static_assignment(n, p) for c in lst
                ]
                assert covers_exactly(chunks, n)

    def test_spread_at_most_one(self):
        from repro.scheduling.policies import StaticBalanced

        for n in (5, 13, 130):
            sizes = [
                sum(z for _, z in lst)
                for lst in StaticBalanced().static_assignment(n, 8)
            ]
            assert max(sizes) - min(sizes) <= 1


class TestStaticCyclic:
    def test_round_robin(self):
        chunks = StaticCyclic().static_assignment(5, 2)
        assert chunks == [[(0, 1), (2, 1), (4, 1)], [(1, 1), (3, 1)]]

    def test_exact_coverage(self):
        chunks = [c for lst in StaticCyclic().static_assignment(11, 3) for c in lst]
        assert covers_exactly(chunks, 11)


class TestDynamicPolicies:
    def test_self_scheduled_unit_chunks(self):
        chunks = drain(SelfScheduled().claimer(5, 3))
        assert chunks == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]

    def test_chunked(self):
        chunks = drain(ChunkSelfScheduled(chunk=4).claimer(10, 3))
        assert chunks == [(0, 4), (4, 4), (8, 2)]

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            ChunkSelfScheduled(chunk=0)

    @pytest.mark.parametrize("chunk", [True, 2.5, 3.0, "3", None])
    def test_chunk_must_be_an_integer(self, chunk):
        with pytest.raises(ValueError, match="integer"):
            ChunkSelfScheduled(chunk=chunk)
        assert ChunkSelfScheduled(chunk=np.int64(3)).chunk == 3

    def test_gss_decreasing_chunks(self):
        chunks = drain(GuidedSelfScheduled().claimer(100, 4))
        sizes = [z for _, z in chunks]
        assert sizes[0] == 25
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert covers_exactly(chunks, 100)

    def test_gss_terminates_at_one(self):
        chunks = drain(GuidedSelfScheduled().claimer(10, 100))
        assert covers_exactly(chunks, 10)
        assert all(z == 1 for _, z in chunks)

    def test_not_static(self):
        assert not SelfScheduled().is_static


class TestFactory:
    def test_known_names(self):
        for name in ("static-block", "static-cyclic", "self-sched", "gss"):
            assert policy_by_name(name).name == name

    def test_kwargs_forwarded(self):
        p = policy_by_name("chunk-self-sched", chunk=9)
        assert p.chunk == 9

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            policy_by_name("magic")
