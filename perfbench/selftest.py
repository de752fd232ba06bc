"""Self-tests of the benchmark: it must see an injected slowdown where it was
injected and nowhere else, and it must count a corrupted output as an error.

Usage (from the root of the repository)::

    python3 perfbench/selftest.py [--seconds 6] [--seed 1]

Each injected change is applied on every other round of one run, so the
plain and the altered jobs come from the same stretch of time.

1. Slowdown.  ``ColumnarPartition.from_records`` gets a fixed delay.
   ``scan_reduce`` must get slower end to end, and its traced
   ``runtime.columnar.convert_s`` must grow by at least half the delay the
   calls added; ``compile_cold``'s jobs must never call the function and
   keep their median latency.
2. Corruption.  ``ProgramRunner.run`` makes conditional_sum's result 1%
   larger (well beyond the check's tolerance);
   exactly those jobs must fail, and the loop must keep going.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable

from run import bench_environment, pin_hash_seed

#: Seconds added to every ``from_records`` call by the slowdown test.
DELAY = 0.003
#: Largest relative change of compile_cold's median latency counted as none.
UNCHANGED = 0.10
#: Smallest relative slowdown of scan_reduce counted as visible.
VISIBLE = 0.10


class Treatment:
    """A change applied on every other round; counts the calls it altered."""

    def __init__(self) -> None:
        self.calls = 0

    def job(self, job_id: int, run: Callable[[], Any]) -> Callable[[], Any]:
        return run

    def job_done(self) -> None:
        pass


class SlowFromRecords(Treatment):
    """Adds ``DELAY`` seconds to every ``ColumnarPartition.from_records`` call."""

    def install(self) -> None:
        from repro.runtime.columnar import ColumnarPartition

        self._original = ColumnarPartition.__dict__["from_records"]
        original = self._original.__func__

        def delayed(cls: Any, records: list[Any]) -> Any:
            self.calls += 1
            time.sleep(DELAY)
            return original(cls, records)

        ColumnarPartition.from_records = classmethod(delayed)

    def remove(self) -> None:
        from repro.runtime.columnar import ColumnarPartition

        ColumnarPartition.from_records = self._original


class CorruptConditionalSum(Treatment):
    """Makes conditional_sum's ``sum`` 1% larger; counts the corrupted results."""

    def install(self) -> None:
        from repro.algebra.runner import ProgramRunner

        self._original = ProgramRunner.__dict__["run"]
        original = self._original

        def run(runner: Any, program: Any, inputs: Any = None) -> Any:
            result = original(runner, program, inputs)
            if program.input_names() == {"V"} and "sum" in result.values:
                self.calls += 1
                result.values["sum"] *= 1.01
            return result

        ProgramRunner.run = run

    def remove(self) -> None:
        from repro.algebra.runner import ProgramRunner

        ProgramRunner.run = self._original


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            failures.append(message)

    with bench_environment():
        from harness import SETUP_REPEATS, measure
        from workloads import WORKLOADS

        slow = SlowFromRecords()
        scan = measure("scan_reduce", args.seed, args.seconds, alternate=slow)
        for name in ("job_s_p50", "jobs_per_s"):
            plain, altered = scan.end_to_end[name], scan.altered[name]
            worse = altered / plain if name == "job_s_p50" else plain / altered
            check(worse > 1 + VISIBLE, f"scan_reduce {name} {plain:.4f} -> {altered:.4f} with the delay")
        check(slow.calls > 0, f"from_records calls in scan_reduce's delayed rounds: {slow.calls}")

        base_traced = measure("scan_reduce", args.seed, args.seconds, trace=True)
        slow = SlowFromRecords()
        slow.install()
        try:
            slow_traced = measure("scan_reduce", args.seed, args.seconds, trace=True)
        finally:
            slow.remove()
        convert = base_traced.layers["runtime.columnar.convert_s"]
        slow_convert = slow_traced.layers["runtime.columnar.convert_s"]
        # The delay per job, taking the calls as spread evenly over the jobs
        # of the loop and the warm-up jobs of the set-ups.
        warm_up_jobs = SETUP_REPEATS * len(WORKLOADS["scan_reduce"].mix)
        added = DELAY * slow.calls / (slow_traced.attempted + warm_up_jobs)
        check(
            slow_convert - convert >= added / 2,
            f"scan_reduce runtime.columnar.convert_s {convert:.4f} -> {slow_convert:.4f} s "
            f"(about +{added:.4f} s injected per job)",
        )

        slow = SlowFromRecords()
        cold = measure("compile_cold", args.seed, args.seconds, alternate=slow)
        check(slow.calls == 0, f"from_records calls in compile_cold's delayed rounds: {slow.calls}")
        plain, altered = cold.end_to_end["job_s_p50"], cold.altered["job_s_p50"]
        check(
            abs(altered / plain - 1) <= UNCHANGED,
            f"compile_cold job_s_p50 {plain:.4f} -> {altered:.4f} s (within {UNCHANGED:.0%})",
        )

        corrupt = CorruptConditionalSum()
        outcome = measure("scan_reduce", args.seed, args.seconds, alternate=corrupt)
        check(
            outcome.failed == corrupt.calls > 0,
            f"scan_reduce failed jobs: {outcome.failed}, corrupted results: {corrupt.calls}, "
            f"attempted: {outcome.attempted}",
        )
        check(outcome.attempted > outcome.failed, "the loop kept going after failures")

    print("selftest " + ("passed" if not failures else f"failed: {len(failures)} check(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
