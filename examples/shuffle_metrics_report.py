"""Print the shuffle/combiner/spill metrics of the wide-stage workloads.

The CI benchmark-smoke job runs this after the benchmark suite so shuffle
regressions (extra stages, lost combiner effectiveness, a join silently
switching strategy) are visible in plain logs.  It runs the two
shuffle-dominated Figure 3 workloads -- group_by and matrix_multiplication --
as both the translated DIABLO program and the hand-written baseline, and prints
the structural metrics plus one physical plan.  A final section reruns group_by with a deliberately tiny
``spill_threshold_bytes`` so the out-of-core spill counters (``spilled_bytes``
/ ``spill_files`` / ``peak_shuffle_memory``) show up in the report.

Usage::

    PYTHONPATH=src python examples/shuffle_metrics_report.py
"""

from __future__ import annotations

from repro.algebra.explain import explain_metrics
from repro.baselines import get_baseline
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

WORKLOADS = {"group_by": 2_000, "matrix_multiplication": 8}


def report(title: str, context: DistributedContext) -> None:
    print(f"\n== {title} ==")
    for line in explain_metrics(context.metrics):
        print(f"  {line}")


def main() -> None:
    for name, size in WORKLOADS.items():
        inputs = workload_for_program(name, size)
        with DistributedContext(num_partitions=4) as context:
            spec = get_program(name)
            diablo = diablo_for(spec, context)
            diablo.compile(spec.source).run(**inputs)
            report(f"DIABLO {name}", context)
        with DistributedContext(num_partitions=4) as context:
            get_baseline(name).distributed(context, inputs)
            report(f"hand-written {name}", context)

    # The same group_by, but forced out-of-core: a 4 KiB map-side budget
    # makes every shuffle spill framed-pickle runs to disk, and the spill
    # counters appear in the metrics report.
    name, size = "group_by", WORKLOADS["group_by"]
    inputs = workload_for_program(name, size)
    with DistributedContext(
        num_partitions=4, spill_threshold_bytes=4096
    ) as context:
        spec = get_program(name)
        diablo = diablo_for(spec, context)
        diablo.compile(spec.source).run(**inputs)
        report(f"DIABLO {name} [spill_threshold_bytes=4096]", context)
        print(
            f"  (spilled {context.metrics.spilled_bytes} bytes across "
            f"{context.metrics.spill_files} files; peak shuffle memory "
            f"{context.metrics.peak_shuffle_memory} bytes)"
        )

    # One pending physical plan, as Dataset.explain() renders it.
    with DistributedContext(num_partitions=4) as context:
        words = context.parallelize(["a b", "b c", "c a"] * 4)
        counts = (
            words.flat_map(str.split)
            .map(lambda word: (word, 1))
            .reduce_by_key(lambda a, b: a + b)
        )
        print("\n== physical plan of a pending word count ==")
        print(counts.explain())


if __name__ == "__main__":
    main()
