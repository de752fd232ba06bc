"""The cluster-mode differential oracle: every Figure 3 workload, bit-identical.

Each configuration (spill threshold 1 and default, adaptive on and off, plus
a ``columnar=True`` leg at the harshest spill setting) gets one shared
multi-worker :class:`ClusterContext`; every Figure 3 program runs under it
and must produce

* the same outputs as the sequential loop-language interpreter (the
  correctness oracle, via ``assert_same_outputs``), and
* **bit-identical** outputs to the translated plan under the sequential
  executor with the same spill/adaptive settings (``==`` on the raw output
  dicts -- no tolerance).

Alongside correctness, the acceptance criterion of the cluster backend is
asserted per program: shuffle payloads move worker-to-worker (fetches or
local reads happen whenever the program shuffles) and **zero** payload bytes
pass through the driver.

Gated behind ``DIABLO_CLUSTER_TESTS=1`` (the CI ``cluster-equivalence`` job;
a plain ``pytest tests`` run skips it) because it spawns worker subprocesses
per configuration.  ``DIABLO_CLUSTER_WORKERS`` sets the cluster size
(default 3) and ``BENCH_SIZE_SCALE`` scales the workload sizes (the nightly
stress job uses 4 workers at 4x data with spill threshold 1).
"""

from __future__ import annotations

import functools
import os

import pytest

from test_executor_equivalence import _Outputs
from test_soundness_programs import assert_same_outputs

from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.workloads import generators, workload_for_program

pytestmark = pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster differential suite is opt-in: set DIABLO_CLUSTER_TESTS=1",
)

_SCALE = int(os.environ.get("BENCH_SIZE_SCALE", "1"))
_WORKERS = int(os.environ.get("DIABLO_CLUSTER_WORKERS", "3"))

#: Base sizes small enough for the tree-walking interpreter oracle.
SIZES = {
    "conditional_sum": 300,
    "equal": 200,
    "string_match": 200,
    "word_count": 400,
    "histogram": 200,
    "linear_regression": 200,
    "group_by": 300,
    "matrix_addition": 6,
    "matrix_multiplication": 5,
    "pagerank": 40,
    "kmeans": 220,
    "matrix_factorization": 6,
}

#: (spill_threshold_bytes, adaptive, columnar) -- the full differential grid.
#: The four record-path legs cover spill x adaptive; the fifth runs the
#: default columnar=True under the harshest spill setting, proving the
#: batch kernels ship to workers and stay bit-identical there too.
CONFIGS = [
    (None, True, False),
    (None, False, False),
    (1, True, False),
    (1, False, False),
    (1, True, True),
]


def _size(name: str) -> int:
    return SIZES[name] * _SCALE


def workload(name: str) -> dict:
    inputs = workload_for_program(name, _size(name))
    if name == "matrix_factorization":
        # Dense R so the interpreter's implicit-zero reads coincide with the
        # translator's sparse semantics (see test_executor_equivalence).
        inputs["R"] = generators.random_matrix(_size(name), _size(name), seed=3)
    return inputs


@functools.lru_cache(maxsize=None)
def interpreter_outputs(name: str) -> dict:
    spec = get_program(name)
    return diablo_for(spec).interpret(spec.source, dict(workload(name)))


@functools.lru_cache(maxsize=None)
def sequential_outputs(
    name: str, spill: int | None, adaptive: bool, columnar: bool = False
) -> dict:
    """The translated plan under the sequential executor (bitwise reference)."""
    spec = get_program(name)
    with DistributedContext(
        num_partitions=4, spill_threshold_bytes=spill, adaptive=adaptive, columnar=columnar
    ) as context:
        result = diablo_for(spec, context).compile(spec.source).run(**workload(name))
        return translated_outputs(name, result)


@pytest.fixture(
    scope="module",
    params=CONFIGS,
    ids=lambda c: f"spill={c[0]}-adaptive={c[1]}-columnar={c[2]}",
)
def cluster(request):
    spill, adaptive, columnar = request.param
    context = ClusterContext(
        num_partitions=4,
        cluster_workers=_WORKERS,
        spill_threshold_bytes=spill,
        adaptive=adaptive,
        columnar=columnar,
    )
    context._equivalence_config = (spill, adaptive, columnar)
    yield context
    context.shutdown()


@pytest.mark.parametrize("name", table2_program_names())
def test_cluster_matches_interpreter_and_sequential(name, cluster):
    spec = get_program(name)
    before = cluster.metrics.snapshot()
    result = diablo_for(spec, cluster).compile(spec.source).run(**workload(name))
    outputs = translated_outputs(name, result)
    after = cluster.metrics.snapshot()

    # Correctness: interpreter oracle (tolerant) and sequential translated
    # run (bit-identical).
    assert_same_outputs(spec, _Outputs(outputs), interpreter_outputs(name))
    spill, adaptive, columnar = cluster._equivalence_config
    assert outputs == sequential_outputs(name, spill, adaptive, columnar), (
        f"{name}: cluster outputs are not bit-identical to the sequential executor"
    )
    if columnar:
        # The columnar leg's reference must itself equal the record path:
        # cluster == sequential(columnar) == sequential(record).
        assert sequential_outputs(name, spill, adaptive, columnar) == sequential_outputs(
            name, spill, adaptive, False
        ), f"{name}: columnar sequential reference diverged from the record path"

    # Acceptance criteria: reduce inputs never transit the driver, and any
    # shuffling program actually moved its payloads between workers.
    assert after["driver_payload_bytes"] == before["driver_payload_bytes"] == 0, (
        f"{name}: shuffle payload bytes passed through the driver"
    )
    assert after["cluster_fallbacks"] == before["cluster_fallbacks"], (
        f"{name}: some task batches fell back to the driver"
    )
    if after["shuffles"] > before["shuffles"]:
        moved = (after["worker_payload_fetches"] + after["worker_payload_local_reads"]) - (
            before["worker_payload_fetches"] + before["worker_payload_local_reads"]
        )
        assert moved > 0, f"{name}: shuffled but no worker read any payload"
