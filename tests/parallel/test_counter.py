"""Tests for the shared fetch&add counter and the policy bridge."""

import multiprocessing

import pytest

from repro.parallel.counter import SharedClaimCounter, chunk_size, policy_plan, resolve_policy
from repro.scheduling.policies import (
    ChunkSelfScheduled,
    GuidedSelfScheduled,
    SchedulingPolicy,
    SelfScheduled,
    StaticBlock,
)


def _ctx():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


class TestResolvePolicy:
    def test_aliases(self):
        assert isinstance(resolve_policy("unit"), SelfScheduled)
        assert isinstance(resolve_policy("gss"), GuidedSelfScheduled)
        assert isinstance(resolve_policy("static"), StaticBlock)

    def test_fixed_alias_takes_chunk(self):
        policy = resolve_policy("fixed", chunk=9)
        assert isinstance(policy, ChunkSelfScheduled)
        assert policy.chunk == 9

    def test_policy_objects_pass_through(self):
        p = GuidedSelfScheduled()
        assert resolve_policy(p) is p

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_policy("fair-share")


class TestPolicyPlan:
    def test_dynamic_rules(self):
        assert policy_plan("unit", 100, 4).rule == ("unit",)
        assert policy_plan("fixed", 100, 4, chunk=7).rule == ("fixed", 7)
        assert policy_plan("gss", 100, 4).rule == ("gss", 4)

    def test_static_plan_partitions_range(self):
        plan = policy_plan("static", 10, 3)
        assert plan.rule is None
        covered = sorted(
            i
            for chunks in plan.static
            for start, size in chunks
            for i in range(start, start + size)
        )
        assert covered == list(range(10))

    def test_unsupported_dynamic_policy(self):
        class Odd(SchedulingPolicy):
            name = "odd"

        with pytest.raises(ValueError, match="no process-parallel chunk rule"):
            policy_plan(Odd(), 10, 2)


class TestChunkSize:
    def test_rules(self):
        assert chunk_size(("unit",), 99) == 1
        assert chunk_size(("fixed", 5), 99) == 5
        assert chunk_size(("gss", 4), 99) == 25  # ceil(99/4)
        assert chunk_size(("gss", 4), 1) == 1

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown chunk rule"):
            chunk_size(("lottery",), 10)


class TestSharedClaimCounter:
    def test_claims_partition_range_exactly(self):
        counter = SharedClaimCounter(1, 10, _ctx())
        seen = []
        while claimed := counter.claim_batch(("fixed", 3), 1):
            ((lo, hi),) = claimed
            seen.extend(range(lo, hi + 1))
        assert seen == list(range(1, 11))
        assert counter.claim_batch(("fixed", 3)) == []  # drained

    def test_tail_chunk_is_short(self):
        counter = SharedClaimCounter(1, 10, _ctx())
        counter.claim_batch(("fixed", 8), 1)
        assert counter.claim_batch(("fixed", 8), 1) == [(9, 10)]

    def test_gss_shrinks_with_remaining(self):
        counter = SharedClaimCounter(1, 16, _ctx())
        sizes = []
        while claimed := counter.claim_batch(("gss", 2), 1):
            ((lo, hi),) = claimed
            sizes.append(hi - lo + 1)
        assert sizes == [8, 4, 2, 1, 1]
        assert sum(sizes) == 16

    def test_reset_rearms_a_drained_counter(self):
        counter = SharedClaimCounter(0, -1, _ctx())
        assert counter.claim_batch(("unit",)) == []  # drained
        counter.reset(1, 5)
        assert counter.start == 1 and counter.stop == 5
        assert counter.claim_batch(("fixed", 5), 1) == [(1, 5)]
        assert counter.claim_batch(("fixed", 5)) == []  # drained


class TestBatchedClaims:
    def test_batch_partitions_range_exactly(self):
        counter = SharedClaimCounter(1, 23, _ctx())
        seen = []
        rounds = 0
        while True:
            chunks = counter.claim_batch(("fixed", 3), batch=4)
            if not chunks:
                break
            rounds += 1
            for lo, hi in chunks:
                seen.extend(range(lo, hi + 1))
        assert seen == list(range(1, 24))
        # ceil(23/3) = 8 chunks in batches of 4 -> 2 lock acquisitions
        assert rounds == 2

    def test_batch_tail_is_short(self):
        counter = SharedClaimCounter(1, 5, _ctx())
        chunks = counter.claim_batch(("fixed", 2), batch=4)
        assert chunks == [(1, 2), (3, 4), (5, 5)]
        assert counter.claim_batch(("fixed", 2)) == []  # drained

    def test_gss_ignores_batch(self):
        # GSS keeps the paper's atomic read-of-remaining semantics: each
        # chunk size depends on what is left *after* the previous claim,
        # so handing out several per lock round would change the schedule.
        counter = SharedClaimCounter(1, 16, _ctx())
        sizes = []
        while (chunks := counter.claim_batch(("gss", 2), batch=8)):
            assert len(chunks) == 1
            sizes.append(chunks[0][1] - chunks[0][0] + 1)
        assert sizes == [8, 4, 2, 1, 1]

    def test_claim_is_batch_of_one(self):
        # A claim with no batch named is a batch of one.
        counter = SharedClaimCounter(1, 10, _ctx())
        assert counter.claim_batch(("unit",)) == [(1, 1)]
        assert counter.claim_batch(("unit",), batch=1) == [(2, 2)]


class TestCounterCost:
    def test_counter_cost_is_positive_and_measured_once(self):
        from repro.tuning import measure_counter_cost, reset_tuning_memo

        reset_tuning_memo()
        first = measure_counter_cost()
        assert first > 0.0
        assert measure_counter_cost() == first  # one probe per process
        reset_tuning_memo()
        assert measure_counter_cost.cache_info().currsize == 0
