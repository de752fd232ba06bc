"""Tests for the local DISC runtime (datasets, context, partitioners, metrics)."""

import threading

import pytest

from repro.errors import ExecutionError
from repro.runtime.context import EXECUTOR_MODES, DistributedContext
from repro.runtime.partitioner import HashPartitioner, RangePartitioner


@pytest.fixture
def ctx():
    return DistributedContext(num_partitions=4)


class TestContext:
    def test_parallelize_preserves_records(self, ctx):
        data = list(range(10))
        dataset = ctx.parallelize(data)
        assert sorted(dataset.collect()) == data
        assert dataset.num_partitions == 4

    def test_partition_sizes_are_balanced(self, ctx):
        dataset = ctx.parallelize(range(10))
        sizes = [len(p) for p in dataset.partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_indexed_creates_positional_keys(self, ctx):
        dataset = ctx.indexed(["a", "b", "c"])
        assert dict(dataset.collect()) == {0: "a", 1: "b", 2: "c"}

    def test_range_dataset_is_inclusive(self, ctx):
        assert sorted(ctx.range_dataset(1, 5).collect()) == [1, 2, 3, 4, 5]

    def test_empty_range(self, ctx):
        assert ctx.range_dataset(5, 1).collect() == []

    def test_parallelize_pairs_from_dict(self, ctx):
        dataset = ctx.parallelize_pairs({1: "a", 2: "b"})
        assert dataset.collect_as_map() == {1: "a", 2: "b"}

    def test_broadcast(self, ctx):
        broadcast = ctx.broadcast({"a": 1})
        assert broadcast.value["a"] == 1
        assert ctx.metrics.broadcasts == 1

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            DistributedContext(num_partitions=0)

    def test_invalid_executor_rejected(self):
        # A DistributedContext always runs in the driver; the executor is
        # chosen by the context class, not by a constructor argument.
        with pytest.raises(TypeError):
            DistributedContext(executor="gpu")

    @pytest.mark.parametrize("option", ["num_threads", "num_processes"])
    def test_removed_pool_options_rejected(self, option):
        with pytest.raises(TypeError):
            DistributedContext(num_partitions=4, **{option: 2})

    def test_tasks_run_in_the_driver_in_partition_order(self, ctx):
        seen = []

        def task(partition, index):
            seen.append((index, threading.get_ident()))
            return [x * 2 for x in partition]

        assert ctx.executor == "sequential"
        result = ctx.run_tasks(task, [[1], [2, 3], [], [4]])
        assert result == [[2], [4, 6], [], [8]]
        assert seen == [(index, threading.get_ident()) for index in range(4)]


class TestLazyEngine:
    def test_narrow_operations_are_lazy(self, ctx):
        base = ctx.parallelize(range(10)).materialize()
        pending = base.map(lambda x: x + 1).filter(lambda x: x > 3)
        assert not pending.is_materialized
        assert len(pending.pending_stages) == 2
        assert pending.num_partitions == base.num_partitions  # answered without forcing
        assert "pending" in repr(pending)

    def test_accessing_partitions_forces_the_chain(self, ctx):
        pending = ctx.parallelize(range(10)).map(lambda x: x + 1)
        assert not pending.is_materialized
        assert sum(len(p) for p in pending.partitions) == 10
        assert pending.is_materialized
        assert pending.pending_stages == ()

    def test_cache_is_a_materialization_point(self, ctx):
        chain = ctx.parallelize(range(10)).map(lambda x: x * 2)
        cached = chain.cache()
        assert cached is chain
        assert cached.is_materialized
        # Chaining off a cached dataset starts a fresh pending chain.
        derived = cached.filter(lambda x: x > 5)
        assert not derived.is_materialized
        assert len(derived.pending_stages) == 1

    def test_chains_fuse_into_one_stage(self, ctx):
        base = ctx.parallelize(range(20)).materialize()
        ctx.metrics.reset()
        result = (
            base.map(lambda x: x + 1)
            .filter(lambda x: x % 2 == 0)
            .map(lambda x: x * 10)
            .collect()
        )
        assert sorted(result) == [x * 10 for x in range(1, 21) if x % 2 == 0]
        assert ctx.metrics.fused_stages == 1
        assert ctx.metrics.fused_operators == 3
        assert ctx.metrics.datasets_created == 1

    def test_forcing_is_idempotent(self, ctx):
        pending = ctx.parallelize(range(10)).map(lambda x: x + 1)
        first = pending.collect()
        stages = ctx.metrics.fused_stages
        second = pending.collect()
        assert first == second
        assert ctx.metrics.fused_stages == stages, "second collect reuses the result"

    def test_sibling_chains_do_not_interfere(self, ctx):
        base = ctx.parallelize(range(10)).materialize()
        evens = base.filter(lambda x: x % 2 == 0)
        odds = base.filter(lambda x: x % 2 == 1)
        assert sorted(evens.collect()) == [0, 2, 4, 6, 8]
        assert sorted(odds.collect()) == [1, 3, 5, 7, 9]


class TestNarrowOperations:
    def test_map_filter_flat_map(self, ctx):
        dataset = ctx.parallelize(range(10))
        assert sorted(dataset.map(lambda x: x * x).collect())[:3] == [0, 1, 4]
        assert sorted(dataset.filter(lambda x: x % 2 == 0).collect()) == [0, 2, 4, 6, 8]
        assert sorted(dataset.flat_map(lambda x: [x, x]).collect()).count(3) == 2

    def test_map_values_and_keys(self, ctx):
        dataset = ctx.parallelize_pairs({1: 10, 2: 20})
        assert dataset.map_values(lambda v: v + 1).collect_as_map() == {1: 11, 2: 21}
        assert sorted(dataset.keys().collect()) == [1, 2]
        assert sorted(dataset.values().collect()) == [10, 20]

    def test_key_by(self, ctx):
        dataset = ctx.parallelize(["aa", "b"])
        assert dict(dataset.key_by(len).collect()) == {2: "aa", 1: "b"}

    def test_zip_with_index(self, ctx):
        dataset = ctx.parallelize(["a", "b", "c"])
        indexed = dict(dataset.zip_with_index().collect())
        assert indexed == {"a": 0, "b": 1, "c": 2}

    def test_union(self, ctx):
        left = ctx.parallelize([1, 2])
        right = ctx.parallelize([3])
        assert sorted(left.union(right).collect()) == [1, 2, 3]

    def test_union_concatenates_partitions(self, ctx):
        left = ctx.parallelize(range(8))
        right = ctx.parallelize(range(8), num_partitions=2)
        assert left.union(right).num_partitions == left.num_partitions + right.num_partitions

    def test_union_normalizes_partition_count_on_request(self, ctx):
        left = ctx.parallelize(range(8))
        right = ctx.parallelize(range(8, 16))
        normalized = left.union(right, num_partitions=4)
        assert normalized.num_partitions == 4
        assert sorted(normalized.collect()) == list(range(16))

    def test_zip_partitions_requires_same_partition_count(self, ctx):
        left = ctx.parallelize(range(4))
        right = ctx.parallelize(range(4), num_partitions=2)
        with pytest.raises(ExecutionError):
            left.zip_partitions(right, lambda a, b: a + b)

    def test_map_partitions(self, ctx):
        dataset = ctx.parallelize(range(8))
        sums = dataset.map_partitions(lambda part: [sum(part)]).collect()
        assert sum(sums) == sum(range(8))

    def test_take_and_first(self, ctx):
        dataset = ctx.parallelize(range(10))
        assert len(dataset.take(3)) == 3
        assert dataset.first() in range(10)

    def test_first_on_empty_raises(self, ctx):
        with pytest.raises(ExecutionError):
            ctx.empty().first()

    def test_sample_is_deterministic(self, ctx):
        dataset = ctx.parallelize(range(100))
        assert dataset.sample(0.3, seed=5).collect() == dataset.sample(0.3, seed=5).collect()

    def test_sample_agrees_across_executors(self, executor_context):
        # Regression: sampling used one shared generator mutated from every
        # partition, so results depended on partition evaluation order.  Each
        # partition now derives its own generator from (seed, index).
        results = {}
        for executor in EXECUTOR_MODES:
            with executor_context(executor, num_partitions=4) as ctx:
                results[executor] = ctx.parallelize(range(200)).sample(0.3, seed=5).collect()
        assert results["sequential"] == results["cluster"]
        assert 0 < len(results["sequential"]) < 200

    def test_sample_varies_with_seed(self, ctx):
        dataset = ctx.parallelize(range(200))
        assert dataset.sample(0.5, seed=1).collect() != dataset.sample(0.5, seed=2).collect()


class TestActions:
    def test_reduce_and_fold(self, ctx):
        dataset = ctx.parallelize([1, 2, 3, 4])
        assert dataset.reduce(lambda a, b: a + b) == 10
        assert dataset.fold(0, lambda a, b: a + b) == 10
        assert ctx.empty().fold(7, lambda a, b: a + b) == 7

    def test_reduce_on_empty_raises(self, ctx):
        with pytest.raises(ExecutionError):
            ctx.empty().reduce(lambda a, b: a + b)

    def test_aggregate(self, ctx):
        dataset = ctx.parallelize(range(10))
        count_and_sum = dataset.aggregate(
            (0, 0), lambda acc, x: (acc[0] + 1, acc[1] + x), lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        assert count_and_sum == (10, 45)

    def test_count_by_value(self, ctx):
        dataset = ctx.parallelize(["a", "b", "a"])
        assert dataset.count_by_value() == {"a": 2, "b": 1}

    def test_count_and_is_empty(self, ctx):
        assert ctx.parallelize(range(5)).count() == 5
        assert ctx.empty().is_empty()

    def test_sum(self, ctx):
        assert ctx.parallelize([1.5, 2.5]).sum() == 4.0


class TestShuffleOperations:
    def test_group_by_key(self, ctx):
        dataset = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)])
        grouped = dict(dataset.group_by_key().map_values(sorted).collect())
        assert grouped == {"a": [1, 3], "b": [2]}

    def test_reduce_by_key(self, ctx):
        dataset = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)])
        assert dataset.reduce_by_key(lambda a, b: a + b).collect_as_map() == {"a": 4, "b": 2}

    def test_reduce_by_key_counts_one_shuffle(self, ctx):
        dataset = ctx.parallelize([("a", 1)] * 100)
        ctx.metrics.reset()
        dataset.reduce_by_key(lambda a, b: a + b).materialize()
        assert ctx.metrics.shuffles == 1
        # Map-side combining means at most one record per partition is shuffled.
        assert ctx.metrics.shuffled_records <= dataset.num_partitions
        assert ctx.metrics.combiner_input_records == 100
        assert ctx.metrics.combiner_output_records <= dataset.num_partitions
        assert ctx.metrics.combiner_hit_rate > 0.9

    def test_group_by_key_shuffles_all_records(self):
        # Baseline accounting (adaptive off): groupByKey has no map-side
        # combiner, so every record crosses the shuffle.
        with DistributedContext(num_partitions=4, adaptive=False) as ctx:
            dataset = ctx.parallelize([("a", 1)] * 100)
            ctx.metrics.reset()
            dataset.group_by_key().materialize()
            assert ctx.metrics.shuffled_records == 100
            assert ctx.metrics.shuffled_bytes > 0

    def test_adaptive_group_by_key_ships_one_partial_per_task(self, ctx):
        # With adaptive execution (the default) the sampled 100x duplication
        # switches the same shuffle to map-side grouping: each of the 4 map
        # tasks emits a single ("a", [values]) partial.
        dataset = ctx.parallelize([("a", 1)] * 100)
        ctx.metrics.reset()
        grouped = dataset.group_by_key().materialize()
        assert ctx.metrics.shuffled_records == 4
        assert ctx.metrics.adaptive_decisions == 1
        assert grouped.collect() == [("a", [1] * 100)]

    def test_shuffles_are_lazy_plan_nodes(self, ctx):
        dataset = ctx.parallelize([("a", 1)] * 20)
        ctx.metrics.reset()
        pending = dataset.map_values(lambda v: v + 1).group_by_key()
        assert not pending.is_materialized
        assert ctx.metrics.shuffles == 0, "building the plan must not shuffle"
        assert "groupByKey" in repr(pending)
        pending.materialize()
        assert ctx.metrics.shuffles == 1
        # The pending map_values chain was fused into the shuffle's map side.
        assert ctx.metrics.fused_stages == 1
        assert ctx.metrics.fused_operators == 1

    def test_aggregate_by_key(self, ctx):
        dataset = ctx.parallelize([("a", 1), ("a", 2), ("b", 5)])
        result = dataset.aggregate_by_key(0, lambda acc, v: acc + v, lambda a, b: a + b)
        assert result.collect_as_map() == {"a": 3, "b": 5}

    def test_distinct(self, ctx):
        assert sorted(ctx.parallelize([1, 1, 2, 3, 3]).distinct().collect()) == [1, 2, 3]

    def test_sort_by(self, ctx):
        dataset = ctx.parallelize([3, 1, 2])
        assert ctx.parallelize([3, 1, 2]).sort_by(lambda x: x).collect() == [1, 2, 3]
        assert dataset.sort_by(lambda x: x, ascending=False).collect() == [3, 2, 1]

    def test_partition_by_places_keys_consistently(self, ctx):
        dataset = ctx.parallelize([(i, i) for i in range(20)])
        partitioner = HashPartitioner(4)
        placed = dataset.partition_by(partitioner)
        for index, partition in enumerate(placed.partitions):
            for key, _value in partition:
                assert partitioner.partition(key) == index

    def test_partition_by_same_partitioner_is_noop(self, ctx):
        dataset = ctx.parallelize([(i, i) for i in range(20)]).partition_by(HashPartitioner(4))
        again = dataset.partition_by(HashPartitioner(4))
        assert again is dataset

    def test_repartition(self, ctx):
        dataset = ctx.parallelize(range(10)).repartition(2)
        assert dataset.num_partitions == 2
        assert sorted(dataset.collect()) == list(range(10))

    def test_repartition_rejects_non_positive_counts(self, ctx):
        dataset = ctx.parallelize(range(10))
        with pytest.raises(ValueError):
            dataset.repartition(0)
        with pytest.raises(ValueError):
            dataset.repartition(-3)


class TestJoins:
    def test_inner_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("a", 10), ("c", 30)])
        assert dict(left.join(right).collect()) == {"a": (1, 10)}

    def test_join_produces_all_pairs(self, ctx):
        left = ctx.parallelize([("a", 1), ("a", 2)])
        right = ctx.parallelize([("a", 10)])
        assert sorted(pair[1] for pair in left.join(right).collect()) == [(1, 10), (2, 10)]

    def test_left_outer_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("a", 10)])
        result = dict(left.left_outer_join(right).collect())
        assert result["b"] == (2, None)

    def test_right_and_full_outer_join(self, ctx):
        left = ctx.parallelize([("a", 1)])
        right = ctx.parallelize([("b", 2)])
        assert dict(left.right_outer_join(right).collect())["b"] == (None, 2)
        full = dict(left.full_outer_join(right).collect())
        assert full == {"a": (1, None), "b": (None, 2)}

    def test_co_group(self, ctx):
        left = ctx.parallelize([("a", 1), ("a", 2)])
        right = ctx.parallelize([("a", 10), ("b", 20)])
        grouped = dict(left.co_group(right).collect())
        assert sorted(grouped["a"][0]) == [1, 2]
        assert grouped["b"] == ([], [20])

    def test_broadcast_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("a", 10)])
        ctx.metrics.reset()
        result = dict(left.broadcast_join(right).collect())
        assert result == {"a": (1, 10)}
        assert ctx.metrics.shuffles == 0

    def test_cartesian(self, ctx):
        left = ctx.parallelize([1, 2])
        right = ctx.parallelize(["x"])
        assert sorted(left.cartesian(right).collect()) == [(1, "x"), (2, "x")]

    def test_merge_right_side_wins(self, ctx):
        left = ctx.parallelize([(3, 10), (1, 20)])
        right = ctx.parallelize([(1, 30), (4, 40)])
        # The paper's ⊳ example: {(3,10),(1,20)} ⊳ {(1,30),(4,40)}.
        assert left.merge(right).collect_as_map() == {3: 10, 1: 30, 4: 40}

    def test_merge_with_combines_both_sides(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 5)])
        right = ctx.parallelize([("a", 2), ("c", 7)])
        merged = left.merge_with(right, lambda a, b: a + b).collect_as_map()
        assert merged == {"a": 3, "b": 5, "c": 7}


class TestPartitioners:
    def test_hash_partitioner_range(self):
        partitioner = HashPartitioner(5)
        assert all(0 <= partitioner.partition(key) < 5 for key in ["a", 1, (2, 3)])

    def test_hash_partitioner_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(8)

    def test_range_partitioner(self):
        partitioner = RangePartitioner(3, [10, 20])
        assert partitioner.partition(5) == 0
        assert partitioner.partition(15) == 1
        assert partitioner.partition(100) == 2

    def test_range_partitioner_validates_bounds(self):
        with pytest.raises(ValueError):
            RangePartitioner(3, [10])

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestMetrics:
    def test_snapshot_and_reset(self, ctx):
        ctx.parallelize(range(10)).map(lambda x: x).count()
        snapshot = ctx.metrics.snapshot()
        assert snapshot["narrow_tasks"] > 0
        ctx.metrics.reset()
        assert ctx.metrics.snapshot()["narrow_tasks"] == 0

    def test_shuffle_operations_are_named(self, ctx):
        ctx.parallelize([("a", 1)]).group_by_key().materialize()
        assert "groupByKey" in ctx.metrics.shuffle_operations
