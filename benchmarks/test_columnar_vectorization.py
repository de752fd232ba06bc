"""Columnar vectorized execution: batch kernels vs. the record path.

Runs numeric Figure 3 workloads twice on identical inputs -- with the
record-at-a-time engine (``columnar=False``) and with the default
``columnar=True`` -- and records both series, so BENCH_results.json carries
a records row and a columnar row per workload and the perf gate tracks both
across PRs.  The columnar series keeps the system name
``diablo-columnar-auto`` it was recorded under when the same policy (batch
only fully lowerable chains) was the ``"auto"`` setting, so the gate keeps
comparing it against the committed baseline.  The result assertion is
the engine's contract: every vectorized run must be bit-identical to the
record path, with the batch kernels demonstrably engaged.

The coverage panel additionally runs *every* Figure 3 program once with
columnar on and records its plan-time vectorization outcome
(``vectorized_stages`` / ``columnar_fallbacks`` plus the batch-runtime
counters), so per-program columnar coverage is tracked in the results file
alongside the wall times.
"""

import time

import pytest

from benchmarks.conftest import BENCH_SIZE_SCALE, FIGURE3_BENCH_SIZES, record_run
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

#: Numeric workloads whose narrow chains lower to batch kernels; sizes are
#: larger than the Figure 3 panels so the per-partition batches are wide
#: enough for vectorization to be visible in the wall time.
COLUMNAR_SIZES = {
    "conditional_sum": 40_000 * BENCH_SIZE_SCALE,
    "histogram": 20_000 * BENCH_SIZE_SCALE,
    "group_by": 20_000 * BENCH_SIZE_SCALE,
    "word_count": 20_000 * BENCH_SIZE_SCALE,
}

#: columnar setting -> recorded system name.
SYSTEMS = {
    False: "diablo-records",
    True: "diablo-columnar-auto",
}

ROUNDS = 7


def _run_once(name: str, size: int, columnar: bool):
    spec = get_program(name)
    inputs = workload_for_program(name, size)
    with DistributedContext(num_partitions=4, columnar=columnar) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        compiled.run(**inputs)  # warm-up: exclude compilation/planning noise
        timings = []
        for _ in range(ROUNDS):
            context.metrics.reset()
            started = time.perf_counter()
            result = compiled.run(**inputs)
            timings.append(time.perf_counter() - started)
        # Best-of-N: these workloads swing tens of percent run to run, and
        # the minimum is the stablest wall-clock estimator for the perf gate.
        record_run(
            name, size, SYSTEMS[columnar], min(timings), context, rounds=ROUNDS, method="best-of-n"
        )
        return translated_outputs(name, result), context.metrics.vectorized_stages


@pytest.mark.parametrize("name", sorted(COLUMNAR_SIZES))
def test_columnar_matches_record_path_and_engages(name):
    size = COLUMNAR_SIZES[name]
    record_outputs, record_vectorized = _run_once(name, size, columnar=False)
    columnar_outputs, columnar_vectorized = _run_once(name, size, columnar=True)
    assert record_vectorized == 0, "columnar=False must never vectorize"
    assert columnar_vectorized > 0, f"{name}: batch kernels never engaged"
    assert columnar_outputs == record_outputs, f"{name}: columnar diverged"


@pytest.mark.parametrize("name", sorted(FIGURE3_BENCH_SIZES))
def test_columnar_coverage_panel(name):
    """One columnar run per Figure 3 panel, recording coverage counters."""
    size = FIGURE3_BENCH_SIZES[name][0]
    spec = get_program(name)
    inputs = workload_for_program(name, size)
    with DistributedContext(num_partitions=4, columnar=True) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        started = time.perf_counter()
        result = compiled.run(**inputs)
        record_run(
            name,
            size,
            SYSTEMS[True],
            time.perf_counter() - started,
            context,
            method="coverage",
        )
        outputs = translated_outputs(name, result)
    with DistributedContext(num_partitions=4, columnar=False) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        reference = translated_outputs(name, compiled.run(**inputs))
    assert outputs == reference, f"{name}: columnar run diverged from the record path"
