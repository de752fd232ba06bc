"""The closed loop: one client in one process issues one job at a time.

:func:`measure` prepares a workload, sets it up several times (``setup_s`` is
the median), then runs whole rounds of the mix until ``seconds`` have passed.
Every job's output is checked against its reference outside the job's timed
window; a job that raises or differs counts as failed and the loop goes on.
Job and set-up times are scaled to the host's reference speed (``speed.py``).

With an *alternate* (the tracer, or a self-test's injected change) the
rounds alternate between plain and altered, so both halves come from the
same stretch of time on a host whose speed drifts: the per-layer numbers and
the tracing overhead, or the effect of the injected change.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Protocol

from speed import SpeedGauge
from tracing import Tracer
from workloads import Session, prepare

from repro.runtime.cluster.context import ClusterContext

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ctx.metrics counters reported per job in the traced run.
METRIC_COUNTERS = {
    "algebra.plan_cache_hits": "plan_cache_hits",
    "algebra.loop_invariant_reuses": "loop_invariant_reuses",
    "runtime.fused_stages": "fused_stages",
    "runtime.records_processed": "records_processed",
    "runtime.columnar.vectorized_stages": "vectorized_stages",
    "runtime.columnar.fallbacks": "columnar_fallbacks",
    "runtime.shuffles": "shuffles",
    "runtime.shuffled_bytes": "shuffled_bytes",
    "runtime.shuffles_eliminated": "shuffles_eliminated",
    "runtime.combiner_in_records": "combiner_input_records",
    "runtime.combiner_out_records": "combiner_output_records",
    "runtime.spill.spilled_bytes": "spilled_bytes",
    "runtime.spill.files": "spill_files",
    "runtime.cluster.worker_payload_bytes": "worker_payload_bytes",
    "runtime.cluster.driver_payload_bytes": "driver_payload_bytes",
    "runtime.cluster.fallbacks": "cluster_fallbacks",
}

#: Layer self times reported by the traced run (metric name -> span name).
LAYER_TIMES = {
    "loop_lang.parse_s": "loop_lang.parse",
    "translate.canonicalize_s": "translate.canonicalize",
    "translate.rules_s": "translate.rules",
    "analysis.restrictions_s": "analysis.restrictions",
    "comprehension.normalize_s": "comprehension.normalize",
    "comprehension.optimize_s": "comprehension.optimize",
    "algebra.run_s": "algebra.run",
    "algebra.evaluate_s": "algebra.evaluate",
    "algebra.lower_s": "algebra.lower",
    "runtime.narrow_s": "runtime.narrow",
    "runtime.columnar.convert_s": "runtime.columnar.convert",
    "runtime.columnar.kernel_s": "runtime.columnar.kernel",
    "runtime.shuffle_map_s": "runtime.shuffle_map",
    "runtime.shuffle_reduce_s": "runtime.shuffle_reduce",
    "runtime.cluster.dispatch_s": "runtime.cluster.dispatch",
    "runtime.cluster.wire_s": "runtime.cluster.wire",
    "job.unattributed_s": "job",
}

#: Call counters kept by the tracer.
CALL_COUNTERS = ("algebra.row_evals", "runtime.cluster.bytes_sent")


@dataclass
class Job:
    task: int
    #: Wall seconds of the job.
    wall: float
    ok: bool
    #: Whether the job ran in an altered (traced) round.
    altered: bool
    #: The wall seconds scaled to the reference speed (see ``speed.py``).
    seconds: float = 0.0


class Alternate(Protocol):
    """A change the closed loop applies on every other round."""

    def install(self) -> None: ...

    def remove(self) -> None: ...

    def job(self, job_id: int, run: Callable[[], Any]) -> Callable[[], Any]:
        """The call to time for one job of an altered round."""
        ...

    def job_done(self) -> None: ...


@dataclass
class Outcome:
    """Everything one run measured."""

    workload: str
    jobs: list[Job]
    setup_seconds: list[float]
    peak_rss_mb: float
    #: End-to-end metrics of the plain jobs.
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Latency metrics of the altered jobs (empty without an alternate).
    altered: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if not job.ok)


def latency_metrics(jobs: list[Job]) -> dict[str, float]:
    """jobs_per_s, job_s_p50 and job_s_p90 of a set of jobs."""
    seconds = [job.seconds for job in jobs]
    completed = sum(1 for job in jobs if job.ok)
    return {
        "jobs_per_s": completed / sum(seconds),
        "job_s_p50": statistics.median(seconds),
        "job_s_p90": (
            statistics.quantiles(seconds, n=10, method="inclusive")[8]
            if len(seconds) > 1
            else seconds[0]
        ),
    }


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _worker_pids(session: Session) -> list[int]:
    """The local cluster workers' pids (none in-process); read for peak RSS."""
    context = session.context
    if not isinstance(context, ClusterContext) or context._local_cluster is None:
        return []
    return [process.pid for process in context._local_cluster.processes if process is not None]


def measure(
    name: str, seed: int, seconds: float, trace: bool = False, alternate: Alternate | None = None
) -> Outcome:
    """One run: prepare, set up ``SETUP_REPEATS`` times, then the closed loop.

    With ``trace`` the alternate is a :class:`Tracer` and the outcome carries
    the per-layer metrics.
    """
    # What the imports made (modules, classes, functions: the interpreter,
    # numpy and repro) leaves the collector's reach, as in a server that
    # freezes its heap before it forks.  A full collection scanning it cost
    # about 11 ms, landed on about one compile_cold job in eleven, and put
    # that workload's job_s_p90 on the edge between those jobs and the rest.
    # The inputs, references and compiled programs made below stay in reach.
    gc.collect()
    gc.freeze()
    try:
        return _measure(name, seed, seconds, trace, alternate)
    finally:
        gc.unfreeze()


def _measure(
    name: str, seed: int, seconds: float, trace: bool, alternate: Alternate | None
) -> Outcome:
    prepared = prepare(name, seed)
    tracer = None
    if trace:
        tracer = Tracer(shuffle_functions=prepared.config.executor_mode != "cluster")
        alternate = tracer
    # Cluster workers keep both cores busy, so their speed is the cores' mean.
    gauge = SpeedGauge(every_core=prepared.config.executor_mode == "cluster")
    setup_seconds: list[float] = []
    session: Session | None = None
    try:
        for _ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
                session = None
            seconds_at_reference, session = gauge.scaled_call(prepared.setup)
            setup_seconds.append(seconds_at_reference)
        jobs, deltas = _closed_loop(session, seconds, alternate, gauge)
        workers_mb = sum(_vm_hwm_mb(pid) for pid in _worker_pids(session))
    finally:
        if session is not None:
            session.close()
    driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = Outcome(name, jobs, setup_seconds, driver_mb + workers_mb, tracer=tracer)
    outcome.end_to_end = {
        **latency_metrics([job for job in jobs if not job.altered]),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    if alternate is not None:
        outcome.altered = latency_metrics([job for job in jobs if job.altered])
    if tracer is not None:
        outcome.layers = _layer_metrics(session, jobs, deltas, tracer, outcome)
    return outcome


def _closed_loop(
    session: Session, seconds: float, alternate: Alternate | None, gauge: SpeedGauge
) -> tuple[list[Job], dict[int, dict[str, int]]]:
    """Whole rounds until ``seconds`` have passed.  With an alternate, even
    rounds run with it installed (two rounds at least, so both halves have
    jobs), and the ctx.metrics deltas of those jobs are returned.  The speed
    gauge is sampled before the first job and after every job."""
    jobs: list[Job] = []
    gauge.sample()
    deltas: dict[int, dict[str, int]] = {}
    metrics = session.context.metrics
    reported = False
    started = perf_counter()
    rounds = 0
    while rounds < (2 if alternate else 1) or perf_counter() - started < seconds:
        altered = alternate is not None and rounds % 2 == 0
        try:
            if altered:
                alternate.install()
            for index, task in enumerate(session.tasks):
                job_id = len(jobs)
                run = task.run
                if altered:
                    run = alternate.job(job_id, run)
                    before = metrics.snapshot()
                error: BaseException | None = None
                output: Any = None
                job_started = perf_counter()
                try:
                    output = run()
                except Exception as raised:  # a failed job is counted; the loop goes on
                    error = raised
                elapsed = perf_counter() - job_started
                gauge.sample()
                if altered:
                    alternate.job_done()
                    after = metrics.snapshot()
                    deltas[job_id] = {key: after[key] - before[key] for key in after}
                ok = False
                if error is None:
                    try:
                        ok = bool(task.check(output))
                    except Exception as raised:
                        error = raised
                if not ok and not reported:
                    reported = True
                    print(f"job {job_id} ({task.label}) failed", file=sys.stderr)
                    if error is not None:
                        traceback.print_exception(error, file=sys.stderr)
                jobs.append(Job(index, elapsed, ok, altered))
        finally:
            if altered:
                alternate.remove()
        rounds += 1
    for index, job in enumerate(jobs):
        job.seconds = job.wall * gauge.scale(index)
    return jobs, deltas


def _layer_metrics(
    session: Session,
    jobs: list[Job],
    deltas: dict[int, dict[str, int]],
    tracer: Tracer,
    outcome: Outcome,
) -> dict[str, float]:
    """Per-job layer numbers over the traced jobs.

    A time is the median across a program's jobs of the layer's self time,
    scaled like the job to the reference speed, averaged over the programs of
    the mix, so every program counts once.  A count is the mean per job.
    """
    traced = [(job_id, job) for job_id, job in enumerate(jobs) if job.altered]
    self_times = tracer.self_times()
    by_task: defaultdict[int, list[int]] = defaultdict(list)
    for job_id, job in traced:
        by_task[job.task].append(job_id)

    def layer_time(span_name: str) -> float:
        medians = [
            statistics.median(
                self_times.get((job_id, span_name), 0.0) * jobs[job_id].seconds / jobs[job_id].wall
                for job_id in job_ids
            )
            for job_ids in by_task.values()
        ]
        return statistics.fmean(medians)

    def mean_count(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    layers = {metric: layer_time(span) for metric, span in LAYER_TIMES.items()}
    for metric, counter in METRIC_COUNTERS.items():
        layers[metric] = mean_count([deltas[job_id][counter] for job_id, _ in traced])
    for counter in CALL_COUNTERS:
        layers[counter] = mean_count([tracer.counts.get((job_id, counter), 0) for job_id, _ in traced])
    layers["comprehension.target_nodes"] = mean_count(
        [session.tasks[job.task].target_nodes for _, job in traced]
    )
    layers["comprehension.rewrites"] = mean_count(
        [session.tasks[job.task].rewrites for _, job in traced]
    )
    vectorized = layers["runtime.columnar.vectorized_stages"]
    fallbacks = layers["runtime.columnar.fallbacks"]
    layers["runtime.columnar.vectorized_share"] = (
        vectorized / (vectorized + fallbacks) if vectorized + fallbacks else 0.0
    )
    combined_in = layers["runtime.combiner_in_records"]
    layers["runtime.combiner_ratio"] = (
        layers["runtime.combiner_out_records"] / combined_in if combined_in else 0.0
    )
    spans_by_job = Counter(span.job for span in tracer.spans)
    layers["trace.spans_per_job"] = mean_count([spans_by_job[job_id] for job_id, _ in traced])
    untraced_p50 = outcome.end_to_end["job_s_p50"]
    traced_p50 = outcome.altered["job_s_p50"]
    layers["trace.job_s_p50_untraced"] = untraced_p50
    layers["trace.job_s_p50_traced"] = traced_p50
    layers["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    return layers
