"""Differential oracle for adaptive skew-aware execution (PR 7).

The adaptive layer may only change *how* skewed shuffles execute -- sampled
histograms, hot-key salting, map-side grouping, histogram-driven range
bounds -- never *what* they compute.  These tests pin that guarantee on
zipf-skewed data across every executor mode, with and without spilling
forced at a 1-byte threshold, by comparing adaptive runs bit-for-bit
against adaptive-off runs.
"""

from __future__ import annotations

import pytest

from repro.runtime.context import EXECUTOR_MODES, DistributedContext
from repro.workloads import skewed_pairs


def _records(count=6_000, num_keys=20, seed=11):
    return [
        (row["K"], row["A"]) for row in skewed_pairs(count, num_keys=num_keys, seed=seed)
    ]


def _run(executor_context, adaptive, executor="sequential", spill=None):
    """Group, reduce and sort the same skewed pairs; return plain values."""
    records = _records()
    with executor_context(
        executor, num_partitions=4, adaptive=adaptive, spill_threshold_bytes=spill
    ) as ctx:
        data = ctx.parallelize(records)
        grouped = {k: list(vs) for k, vs in data.group_by_key().collect()}
        reduced = dict(data.reduce_by_key(lambda a, b: a + b).collect())
        ordered = data.sort_by(lambda kv: kv[0]).collect()
        decisions = ctx.metrics.adaptive_decisions
    return grouped, reduced, ordered, decisions


class TestAdaptiveDifferential:
    @pytest.mark.parametrize("executor", EXECUTOR_MODES)
    def test_adaptive_matches_static_bit_for_bit(self, executor, executor_context):
        grouped_on, reduced_on, ordered_on, decisions = _run(executor_context, True, executor)
        grouped_off, reduced_off, ordered_off, off_decisions = _run(
            executor_context, False, executor
        )
        assert off_decisions == 0
        assert decisions >= 1, "skewed shuffles must trigger adaptive decisions"
        # Grouped values arrive in a salted / map-side-combined order; the
        # per-key multisets must still be identical.
        assert grouped_on.keys() == grouped_off.keys()
        for key in grouped_on:
            assert sorted(grouped_on[key]) == sorted(grouped_off[key]), key
        assert reduced_on == reduced_off
        assert ordered_on == ordered_off

    @pytest.mark.parametrize("executor", EXECUTOR_MODES)
    def test_adaptive_matches_static_under_spilling(self, executor, executor_context):
        grouped_on, reduced_on, ordered_on, _ = _run(executor_context, True, executor, spill=1)
        grouped_off, reduced_off, ordered_off, _ = _run(executor_context, False, executor, spill=1)
        assert grouped_on.keys() == grouped_off.keys()
        for key in grouped_on:
            assert sorted(grouped_on[key]) == sorted(grouped_off[key]), key
        assert reduced_on == reduced_off
        assert ordered_on == ordered_off

    def test_noncommutative_fold_order_is_preserved(self):
        # Salting splits a hot key across tasks; the final fold must stitch
        # the partials back in task order so non-commutative (but
        # associative) monoids -- string concatenation -- are unaffected.
        records = [("hot", f"<{i}>") for i in range(500)]
        records += [(f"cold{i}", f"[{i}]") for i in range(30)]
        results = {}
        for adaptive in (True, False):
            with DistributedContext(num_partitions=4, adaptive=adaptive) as ctx:
                reduced = ctx.parallelize(records).reduce_by_key(lambda a, b: a + b)
                results[adaptive] = dict(reduced.collect())
                if adaptive:
                    assert ctx.metrics.salted_keys >= 1
        assert results[True] == results[False]
