"""Spans and call counts around the calls the benchmark makes into each layer.

A :class:`Tracer` wraps public functions of the repository's modules while it
is installed and restores the originals when it is removed, so the timed
(untraced) jobs run unmodified code.  Spans are kept in memory; each has a
name, start, end, parent span (the span active on the calling thread) and
job id.  A layer's self time is its spans' time minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple

from repro.algebra import runner as runner_mod
from repro.algebra.evaluator import TermEvaluator
from repro.algebra.planner import Planner
from repro.analysis.restrictions import RestrictionChecker
from repro.comprehension.optimize import Optimizer
from repro.loop_lang import python_frontend
from repro.runtime import columnar, stage
from repro.runtime.cluster import protocol
from repro.runtime.cluster.context import ClusterContext
from repro.runtime.context import DistributedContext
from repro.translate import translator
from repro.translate.rules import TranslationRules


class Span(NamedTuple):
    span_id: int
    parent: int
    job: int | None
    name: str
    start: float
    end: float


#: Where each layer is entered: (layer, owner, attribute names).  Functions
#: that other modules import by name are patched in the importing module,
#: where the call looks them up.
SPANNED: tuple[tuple[str, Any, tuple[str, ...]], ...] = (
    ("loop_lang.parse", translator, ("parse_program",)),
    ("loop_lang.parse", python_frontend, ("parse_python_function",)),
    ("translate.canonicalize", translator, ("canonicalize_increments",)),
    ("translate.rules", TranslationRules, ("statement",)),
    ("analysis.restrictions", RestrictionChecker, ("require",)),
    ("comprehension.normalize", translator, ("normalize",)),
    ("comprehension.optimize", Optimizer, ("optimize",)),
    ("algebra.run", runner_mod.ProgramRunner, ("run",)),
    ("algebra.evaluate", TermEvaluator, ("evaluate",)),
    ("algebra.lower", Planner, ("lower", "relower")),
    ("runtime.narrow", DistributedContext, ("run_tasks",)),
    ("runtime.columnar.convert", columnar.ColumnarPartition, ("from_records", "to_records")),
    ("runtime.columnar.kernel", columnar, ("combine_batch",)),
    ("runtime.cluster.dispatch", ClusterContext, ("run_tasks",)),
    ("runtime.cluster.wire", protocol, ("recv_message_sized",)),
)

#: The shuffle map and reduce functions of ``runtime.stage``.  They are only
#: wrapped in-process: the cluster driver recognises shuffle writers by
#: identity, and under the cluster executor these functions run on workers.
SHUFFLE_SPANNED: tuple[tuple[str, Any, tuple[str, ...]], ...] = (
    (
        "runtime.shuffle_map",
        stage,
        ("shuffle_write", "salted_shuffle_write", "prepartitioned_write", "repartition_write"),
    ),
    (
        "runtime.shuffle_reduce",
        stage,
        (
            "read_bucket",
            "reduce_bucket",
            "group_bucket",
            "group_merge_bucket",
            "cogroup_bucket",
            "join_bucket",
            "sort_bucket",
        ),
    ),
)


def _vectorized_classes() -> list[type]:
    """Every vectorized-function class that defines its own batch kernel."""
    found: list[type] = []
    pending = [columnar.VectorizedFunction]
    while pending:
        cls = pending.pop()
        if "apply_batch" in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Tracer:
    """Collects spans and per-job call counts while installed."""

    def __init__(self, shuffle_functions: bool = True):
        self.spans: list[Span] = []
        #: (job, counter name) -> count
        self.counts: defaultdict[tuple[int | None, str], int] = defaultdict(int)
        self.job_id: int | None = None
        #: Calls counted since the current job began (one thread only).
        self._calls: dict[str, list[int]] = {}
        self._shuffle_functions = shuffle_functions
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recording one span named ``name`` per call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, tracer.job_id, name, start, end))

        return traced

    def counted(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` counting its calls under ``name`` (no span: too many).

        Only for functions called on the benchmark's own thread: the count is
        not locked.
        """
        cell = self._calls.setdefault(name, [0])

        @functools.wraps(function)
        def counting(*args: Any) -> Any:
            cell[0] += 1
            return function(*args)

        return counting

    def _sent_frames(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """``protocol.send_frame`` spanned as wire time, counting frame bytes."""
        spanned = self.spanned("runtime.cluster.wire", function)
        tracer = self

        @functools.wraps(function)
        def sending(sock: Any, frame: bytes) -> Any:
            tracer.add("runtime.cluster.bytes_sent", len(frame))
            return spanned(sock, frame)

        return sending

    def job(self, job_id: int, run: Callable[[], Any]) -> Callable[[], Any]:
        """Start counting for one job; ``run`` wrapped in the job's root span."""
        self.job_id = job_id
        for cell in self._calls.values():
            cell[0] = 0
        return self.spanned("job", run)

    def job_done(self) -> None:
        for name, cell in self._calls.items():
            self.add(name, cell[0])
            cell[0] = 0
        self.job_id = None

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[(self.job_id, name)] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`remove` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = list(SPANNED) + (list(SHUFFLE_SPANNED) if self._shuffle_functions else [])
        targets += [("runtime.columnar.kernel", cls, ("apply_batch",)) for cls in _vectorized_classes()]
        for layer, owner, names in targets:
            for attribute in names:
                self._patch(owner, attribute, lambda f, layer=layer: self.spanned(layer, f))
        self._patch(TermEvaluator, "evaluate_local", lambda f: self.counted("algebra.row_evals", f))
        self._patch(protocol, "send_frame", self._sent_frames)

    def remove(self) -> None:
        """Restore every wrapped function (also after a partial install)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: Any, attribute: str, wrap: Callable[[Callable[..., Any]], Any]) -> None:
        original = inspect.getattr_static(owner, attribute)
        if isinstance(owner, type) and attribute not in owner.__dict__:
            raise RuntimeError(f"{owner.__name__}.{attribute} is inherited; patch its definer")
        if isinstance(original, classmethod):
            replacement: Any = classmethod(wrap(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[tuple[int | None, str], float]:
        """(job, span name) -> summed self time of that job's spans."""
        covered: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.end - span.start
        totals: defaultdict[tuple[int | None, str], float] = defaultdict(float)
        for span in self.spans:
            totals[(span.job, span.name)] += span.end - span.start - covered[span.span_id]
        return dict(totals)

    def write(self, path: str, header: Iterable[str] = ()) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            for line in header:
                out.write(f"# {line}\n")
            out.write("span\tparent\tjob\tname\tstart\tend\n")
            for span in self.spans:
                job = "" if span.job is None else span.job
                out.write(
                    f"{span.span_id}\t{span.parent}\t{job}\t{span.name}\t"
                    f"{span.start:.9f}\t{span.end:.9f}\n"
                )
