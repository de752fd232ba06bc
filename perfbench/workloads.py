"""The benchmark's workloads: which programs each one runs, at which sizes,
on which configuration, and how every output is checked.

A workload is prepared once per run (inputs from the seed, reference outputs
from an independent implementation; neither is timed) and then set up
(context, compilation, one warm-up pass; this is ``setup_s``).  A set-up
yields a :class:`Session`: a list of tasks, one per program of the mix, that
the closed loop calls round-robin.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

from pyprograms import PYTHON_PROGRAMS

from repro import Diablo, DiabloCompiler, DiabloConfig, DistributedContext
from repro.algebra.runner import ProgramRunner
from repro.baselines import BASELINES, get_baseline
from repro.comprehension import ir
from repro.comprehension.monoids import MonoidRegistry
from repro.functions import FunctionRegistry
from repro.loop_lang.interpreter import interpret_program
from repro.programs import PROGRAMS, ProgramSpec
from repro.translate.target import TargetAssign, TargetProgram, TargetWhile
from repro.workloads import random_matrix, workload_for_program

#: Relative tolerance of the output check (the one the baseline tests use):
#: partitioned sums add in another order than the sequential references.
TOLERANCE = 1e-6

#: Programs whose hand-written baseline computes something else than the
#: loop program, so the loop-language interpreter is their reference.  The
#: matrix-factorization baseline counts the regularization term once per
#: entry instead of once per rating, so its P and Q differ from the program's.
INTERPRETER_REFERENCE = frozenset({"matrix_factorization"})

#: Programs that get a dense rating matrix.  On a sparse one the
#: interpreter's implicit-zero reads and the translator's sparse semantics
#: give different P and Q (see the notes in repro.programs.sources), which
#: would leave the program without an independent reference.
DENSE_RATINGS = frozenset({"matrix_factorization"})


@dataclass(frozen=True)
class Sized:
    """One program of a mix at its input size."""

    program: str
    size: int
    #: PageRank's ``while`` loop count (the other programs take none).
    num_steps: int | None = None

    @property
    def label(self) -> str:
        return f"{self.program}@{self.size}"


@dataclass(frozen=True)
class Workload:
    """A named mix and the configuration overrides it runs under."""

    name: str
    mix: tuple[Sized, ...] = ()
    overrides: dict[str, Any] = field(default_factory=dict)
    compile_only: bool = False


#: Sizes keep every job near 0.1 s at the reference speed (cluster pagerank,
#: bound by per-stage round trips, near 0.14 s), so the latency quantiles do
#: not sit on a boundary between two programs of very different cost.  Each
#: mix has an odd number of programs: with an even one the median falls
#: between the two middle programs and jumps when their order changes.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Single-pass programs: fused narrow stages, columnar kernels and
        # in-memory shuffles with combiners do most of the work.
        Workload(
            "scan_reduce",
            (
                Sized("conditional_sum", 135_000),
                Sized("equal", 115_000),
                Sized("string_match", 115_000),
                Sized("word_count", 60_000),
                Sized("histogram", 5_500),
                Sized("group_by", 13_000),
                Sized("linear_regression", 2_600),
            ),
        ),
        # Nested-loop and join programs: per-row IR evaluation and planning,
        # mostly outside the columnar kernels.
        Workload(
            "loop_join",
            (
                Sized("kmeans", 48),
                Sized("pagerank", 45, num_steps=5),
                Sized("matrix_multiplication", 19),
                Sized("matrix_factorization", 19),
                Sized("matrix_addition", 60),
            ),
        ),
        # Cold compiles of the whole program registry: parse, translate,
        # restriction checks, normalize, optimize; no runtime work.
        Workload("compile_cold", compile_only=True),
        # Shuffle-heavy programs on 2 local cluster workers with the large
        # shuffles spilling: the wire, worker-to-worker and disk paths.
        Workload(
            "cluster_spill",
            (
                Sized("word_count", 13_000),
                Sized("group_by", 10_000),
                Sized("histogram", 1_700),
                Sized("pagerank", 24, num_steps=2),
                Sized("matrix_multiplication", 15),
            ),
            overrides={
                "executor_mode": "cluster",
                "cluster_workers": 2,
                # One spill file per (map task, reduce partition): with the
                # default 8 partitions a job made about 110 files, and their
                # creation and removal on the shared disk moved job times by
                # about 14% between stretches of a minute; with 4, about 30.
                "num_partitions": 4,
                # Well below the map output of every program's large
                # shuffles, so they write spill runs.
                "spill_threshold_bytes": 4096,
            },
        ),
    )
}


# -- output checks ------------------------------------------------------------


def close(a: Any, b: Any) -> bool:
    """Equality with a relative tolerance on numbers, element-wise on tuples."""
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, numbers.Real) and isinstance(b, numbers.Real):
        return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[key], b[key]) for key in a)
    return a == b


def outputs_match(actual: dict[str, Any], expected: dict[str, Any]) -> bool:
    return actual.keys() == expected.keys() and all(
        close(actual[name], expected[name]) for name in expected
    )


# -- per-program preparation ------------------------------------------------------


def _monoids(spec: ProgramSpec) -> MonoidRegistry:
    registry = MonoidRegistry()
    for monoid in spec.monoids:
        registry.register(monoid)
    return registry


def program_inputs(sized: Sized, seed: int) -> dict[str, Any]:
    inputs = workload_for_program(sized.program, sized.size, seed=seed)
    if sized.program in DENSE_RATINGS:
        inputs["R"] = random_matrix(sized.size, sized.size, seed=seed + 3)
    if sized.num_steps is not None:
        inputs["num_steps"] = sized.num_steps
    return inputs


def reference_outputs(spec: ProgramSpec, inputs: dict[str, Any]) -> dict[str, Any]:
    """The program's outputs from the hand-written sequential baseline, or
    from the loop-language interpreter where no matching baseline exists."""
    if spec.name in BASELINES and spec.name not in INTERPRETER_REFERENCE:
        # kmeans.sequential defaults to the single step the program runs;
        # pagerank.sequential reads num_steps from the inputs.
        values = get_baseline(spec.name).sequential(dict(inputs))
    else:
        values = interpret_program(
            spec.source,
            dict(inputs),
            functions=FunctionRegistry(spec.functions),
            monoids=_monoids(spec),
        )
    names = spec.scalar_outputs + spec.array_outputs
    return normalized(spec, {name: values[name] for name in names})


def normalized(spec: Any, outputs: dict[str, Any]) -> dict[str, Any]:
    """Outputs in the shape both sides agree on: arrays as plain dicts, and
    PageRank's degree vector without the explicit zeros of sink vertices
    (the loop program stores them, the baseline has no entry)."""
    shaped = {
        name: dict(value) if name in spec.array_outputs else value
        for name, value in outputs.items()
    }
    if spec.name == "pagerank":
        shaped["C"] = {key: value for key, value in shaped["C"].items() if value}
    return shaped


def result_outputs(spec: Any, result: Any) -> dict[str, Any]:
    """The declared outputs of a run; collecting the arrays forces the plan.

    ``spec`` is a registry ``ProgramSpec`` or a frontend ``PythonProgram``;
    both name their ``scalar_outputs`` and ``array_outputs``.
    """
    outputs = {name: result[name] for name in spec.scalar_outputs}
    for name in spec.array_outputs:
        outputs[name] = result.array(name)
    return outputs


def target_nodes(target: TargetProgram) -> int:
    """IR node count of a translated program (while conditions included)."""

    def count(statements: tuple[Any, ...]) -> int:
        total = 0
        for statement in statements:
            if isinstance(statement, TargetAssign):
                total += sum(1 for _ in ir.walk_terms(statement.term))
            elif isinstance(statement, TargetWhile):
                total += sum(1 for _ in ir.walk_terms(statement.condition))
                total += count(statement.body)
        return total

    return count(target.statements)


# -- sessions -----------------------------------------------------------------------


@dataclass
class Task:
    """One program of the mix: the timed call and its (untimed) check."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: IR nodes and optimizer rewrites of the translation(s) this task uses.
    target_nodes: int
    rewrites: int


@dataclass
class Session:
    """What one set-up built; ``close`` releases the context and its workers."""

    context: DistributedContext
    tasks: list[Task]

    def close(self) -> None:
        self.context.shutdown()


@dataclass
class Prepared:
    """A workload with its seeded inputs and reference outputs (untimed)."""

    workload: Workload
    config: DiabloConfig
    inputs: list[dict[str, Any]]
    expected: list[Any]

    def setup(self) -> Session:
        """Create the context, compile the programs, run one warm-up round.

        Raises ``RuntimeError`` when a warm-up output differs from its
        reference, so a broken program never reaches the timed loop.
        """
        context = self.config.make_context()
        try:
            if self.workload.compile_only:
                tasks = self._compile_tasks(context)
            else:
                tasks = self._run_tasks(context)
            for task in tasks:
                if not task.check(task.run()):
                    raise RuntimeError(f"warm-up output of {task.label} differs from its reference")
        except BaseException:
            context.shutdown()
            raise
        return Session(context, tasks)

    def _run_tasks(self, context: DistributedContext) -> list[Task]:
        tasks = []
        for sized, inputs, expected in zip(self.workload.mix, self.inputs, self.expected):
            spec = PROGRAMS[sized.program]
            diablo = Diablo(context=context, config=self.config)
            for name, function in spec.functions.items():
                diablo.register_function(name, function)
            for monoid in spec.monoids:
                diablo.register_monoid(monoid)
            compiled = diablo.compile(spec.source)

            def run(compiled=compiled, spec=spec, inputs=inputs) -> dict[str, Any]:
                return result_outputs(spec, compiled.run_with(dict(inputs)))

            def check(outputs: Any, spec=spec, expected=expected) -> bool:
                return outputs_match(normalized(spec, outputs), expected)

            tasks.append(
                Task(
                    sized.label,
                    run,
                    check,
                    target_nodes(compiled.target),
                    compiled.translation.optimizer_stats.total(),
                )
            )
        return tasks

    def _compile_tasks(self, context: DistributedContext) -> list[Task]:
        """One task that cold-compiles every registry and frontend program.

        The first compile is checked by running each target on its small
        input against the reference; every later compile must render the
        same targets as that first one.
        """
        sources = compile_sources()
        registry = MonoidRegistry()
        functions = FunctionRegistry()
        for spec in PROGRAMS.values():
            for monoid in spec.monoids:
                registry.register(monoid)
            for name, function in spec.functions.items():
                functions.register(name, function)

        def run() -> list[Any]:
            compiler = DiabloCompiler(monoids=registry, **self.config.compiler_options())
            return [compiler.compile(source) for _, source in sources]

        first = run()
        runner = ProgramRunner(context, functions, registry)
        for (name, _), translation, inputs, expected in zip(
            sources, first, self.inputs, self.expected
        ):
            program = PROGRAMS.get(name) or PYTHON_BY_NAME[name]
            result = runner.run(translation.target, dict(inputs))
            if not outputs_match(normalized(program, result_outputs(program, result)), expected):
                raise RuntimeError(f"compiled {name} differs from its reference")
        rendered = [str(translation.target) for translation in first]

        def check(translations: Any) -> bool:
            return [str(translation.target) for translation in translations] == rendered

        return [
            Task(
                f"registry[{len(sources)}]",
                run,
                check,
                sum(target_nodes(translation.target) for translation in first),
                sum(translation.optimizer_stats.total() for translation in first),
            )
        ]


PYTHON_BY_NAME = {program.name: program for program in PYTHON_PROGRAMS}

#: Input sizes for compile_cold's one-off correctness check of each target;
#: the matrix and graph programs take a dimension, so theirs is smaller.
CHECK_SIZE = 40
CHECK_DIMENSION = 6
DIMENSION_PROGRAMS = frozenset(
    {"matrix_addition", "matrix_multiplication", "matrix_factorization", "pagerank", "pca"}
)


def compile_sources() -> list[tuple[str, Any]]:
    """(name, source) for every registry program and frontend function."""
    return [(name, spec.source) for name, spec in sorted(PROGRAMS.items())] + [
        (program.name, program.function) for program in PYTHON_PROGRAMS
    ]


def prepare(name: str, seed: int) -> Prepared:
    """Generate a workload's inputs and reference outputs from ``seed``."""
    workload = WORKLOADS[name]
    config = DiabloConfig().replace(**workload.overrides)
    inputs: list[dict[str, Any]] = []
    expected: list[Any] = []
    if workload.compile_only:
        for program_name, _ in compile_sources():
            spec = PROGRAMS.get(program_name)
            if spec is not None:
                size = CHECK_DIMENSION if program_name in DIMENSION_PROGRAMS else CHECK_SIZE
                program_input = program_inputs(Sized(program_name, size), seed)
                expected.append(reference_outputs(spec, program_input))
            else:
                python_program = PYTHON_BY_NAME[program_name]
                program_input = python_program.make_inputs(CHECK_SIZE, seed)
                expected.append(python_program.reference(program_input))
            inputs.append(program_input)
    else:
        for sized in workload.mix:
            program_input = program_inputs(sized, seed)
            inputs.append(program_input)
            expected.append(reference_outputs(PROGRAMS[sized.program], program_input))
    return Prepared(workload, config, inputs, expected)
