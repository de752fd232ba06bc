"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at laptop
scale.  Wall-clock numbers are machine dependent; the assertions attached to
the benchmarks check the *shapes* the paper reports (who wins, where the
generated plans shuffle more) using the runtime's structural metrics.

Every run that goes through the helpers below is also recorded and, when
the session ends, merged into the file ``BENCH_RESULTS_PATH`` names: one
entry per (workload, size, system) with wall seconds plus the shuffle-side
structural metrics, so the performance trajectory is tracked across PRs
without digging into pytest-benchmark's storage.  Without that variable
nothing is written (see :mod:`benchmarks._recording`).
"""

from __future__ import annotations

import os
import time
from typing import Any

import pytest

from benchmarks._recording import record_entry, write_results
from repro.baselines import get_baseline
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import EXECUTOR_MODES, DistributedContext
from repro.workloads import workload_for_program

#: The executor-comparison axis: in the driver and on cluster workers.
ALL_EXECUTOR_MODES = EXECUTOR_MODES

#: Worker count for cluster-mode benchmark contexts.
CLUSTER_BENCH_WORKERS = max(1, int(os.environ.get("DIABLO_CLUSTER_WORKERS", "2")))


def make_context(executor: str, num_partitions: int = 4) -> DistributedContext:
    """A context for one executor-comparison cell, cluster mode included."""
    if executor == "cluster":
        return ClusterContext(num_partitions=num_partitions, cluster_workers=CLUSTER_BENCH_WORKERS)
    return DistributedContext(num_partitions=num_partitions)


#: Multiplies every benchmark input size; per-PR CI runs at 1, the nightly
#: workflow sets BENCH_SIZE_SCALE=4 for the sizes too slow to gate on.
BENCH_SIZE_SCALE = max(1, int(os.environ.get("BENCH_SIZE_SCALE", "1")))

#: Input sizes per Figure 3 panel, kept small so the whole suite runs quickly.
FIGURE3_BENCH_SIZES: dict[str, list[int]] = {
    name: [size * BENCH_SIZE_SCALE for size in sizes]
    for name, sizes in {
        "conditional_sum": [2_000, 8_000],
        "equal": [2_000, 8_000],
        "string_match": [2_000, 8_000],
        "word_count": [1_000, 4_000],
        "histogram": [1_000, 3_000],
        "linear_regression": [1_000, 4_000],
        "group_by": [1_000, 4_000],
        "matrix_addition": [16, 32],
        "matrix_multiplication": [8, 12],
        "pagerank": [50, 100],
        "kmeans": [150, 300],
        "matrix_factorization": [8, 14],
    }.items()
}


def record_run(
    workload: str,
    size: int,
    system: str,
    wall_seconds: float,
    context: DistributedContext | None = None,
    rounds: int = 1,
    method: str = "single-run",
) -> None:
    """Record one benchmark run for the machine-readable results file.

    ``method`` keeps methodologically different timings apart in the merged
    file: shape tests record ``"single-run"`` wall time, the pytest-benchmark
    panels record a ``"benchmark-mean"`` over their rounds.
    """
    entry: dict[str, Any] = {
        "workload": workload,
        "size": size,
        "system": system,
        "method": method,
        "wall_seconds": round(wall_seconds, 6),
        "rounds": rounds,
    }
    if context is not None:
        metrics = context.metrics
        entry["shuffle_metrics"] = {
            "shuffles": metrics.shuffles,
            "shuffled_records": metrics.shuffled_records,
            "shuffled_bytes": metrics.shuffled_bytes,
            "shuffle_map_tasks": metrics.shuffle_map_tasks,
            "shuffle_reduce_tasks": metrics.shuffle_reduce_tasks,
            "combiner_hit_rate": round(metrics.combiner_hit_rate, 6),
            "join_strategies": dict(metrics.join_strategies),
            "fused_stages": metrics.fused_stages,
            # PR 5 planner counters: tracked across PRs by the perf gate so a
            # regression that re-introduces eliminated shuffles is visible.
            "shuffles_eliminated": metrics.shuffles_eliminated,
            "narrow_joins": metrics.narrow_joins,
            "prepartitioned_inputs": metrics.prepartitioned_inputs,
            "loop_invariant_reuses": metrics.loop_invariant_reuses,
            # PR 6 columnar counters: how many narrow stages / combiners ran
            # as batch kernels (0 whenever columnar execution is off).
            "vectorized_stages": metrics.vectorized_stages,
            "columnar_fallbacks": metrics.columnar_fallbacks,
            # PR 10 batch-runtime counters: conversion-tax bookkeeping for
            # the columnar engine (memoized fallback skips, resident
            # partition reuses across forces, vectorized bucket tasks).
            "columnar_memoized_skips": metrics.columnar_memoized_skips,
            "columnar_resident_reuses": metrics.columnar_resident_reuses,
            "columnar_vector_bucket_tasks": metrics.columnar_vector_bucket_tasks,
            # PR 7 adaptive counters: plan-skeleton reuse across loop
            # iterations plus the runtime's skew decisions (salted hot keys,
            # map-side grouping, histogram ranges, broadcast re-decisions).
            "plan_cache_hits": metrics.plan_cache_hits,
            "salted_keys": metrics.salted_keys,
            "adaptive_decisions": metrics.adaptive_decisions,
            # PR 9 cluster counters: worker-to-worker shuffle transfers and
            # the driver-bypass guarantee (all 0 under the in-process
            # executors; check_regression compares wall_seconds only, so
            # baseline entries predating these keys stay comparable).
            "cluster_fallbacks": metrics.cluster_fallbacks,
            "resident_partition_reuses": metrics.resident_partition_reuses,
            "driver_payload_bytes": metrics.driver_payload_bytes,
            "worker_payload_fetches": metrics.worker_payload_fetches,
            "worker_payload_bytes": metrics.worker_payload_bytes,
            "worker_payload_local_reads": metrics.worker_payload_local_reads,
        }
    record_entry(entry)


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Merge every recorded run into the ``BENCH_RESULTS_PATH`` file, if set."""
    write_results()


def compiled_program(name: str):
    """A compiled DIABLO program plus its configured runner context."""
    spec = get_program(name)
    context = DistributedContext(num_partitions=4)
    diablo = diablo_for(spec, context)
    return diablo.compile(spec.source), context


def run_diablo(name: str, size: int):
    """Run the translated program once; returns (result, context)."""
    inputs = workload_for_program(name, size)
    compiled, context = compiled_program(name)
    started = time.perf_counter()
    result = compiled.run(**inputs)
    record_run(name, size, "diablo", time.perf_counter() - started, context)
    return result, context


def run_handwritten(name: str, size: int):
    """Run the hand-written baseline once; returns (result, context)."""
    inputs = workload_for_program(name, size)
    context = DistributedContext(num_partitions=4)
    started = time.perf_counter()
    result = get_baseline(name).distributed(context, inputs)
    record_run(name, size, "handwritten", time.perf_counter() - started, context)
    return result, context


def figure3_panel_benchmark(benchmark, name: str, size: int, system: str):
    """Benchmark one (panel, size, system) point of Figure 3."""
    inputs = workload_for_program(name, size)
    timings: list[float] = []

    if system == "diablo":
        compiled, context = compiled_program(name)
        call = lambda: compiled.run(**inputs)  # noqa: E731
    else:
        module = get_baseline(name)
        context = DistributedContext(num_partitions=4)
        call = lambda: module.distributed(context, inputs)  # noqa: E731

    def timed_round():
        # Reset per round so the recorded shuffle metrics describe a single
        # run, matching the run_diablo/run_handwritten entries.
        context.metrics.reset()
        started = time.perf_counter()
        value = call()
        timings.append(time.perf_counter() - started)
        return value

    benchmark.pedantic(timed_round, rounds=2, iterations=1)
    if timings:
        record_run(
            name,
            size,
            system,
            sum(timings) / len(timings),
            context,
            rounds=len(timings),
            method="benchmark-mean",
        )
    benchmark.extra_info["program"] = name
    benchmark.extra_info["size"] = size
    benchmark.extra_info["system"] = system


@pytest.fixture
def small_sizes():
    return FIGURE3_BENCH_SIZES
