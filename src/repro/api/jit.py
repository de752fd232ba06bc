"""The ``@diablo.jit`` decorator: compiled loop functions with plain-Python calls.

This is the paper's pitch made literal: a programmer writes an ordinary
imperative Python function, and the system silently turns it into a
distributed data-parallel program::

    import repro.api as diablo
    from repro.api import Matrix

    @diablo.jit
    def matrix_sum(M: Matrix, n: int):
        total: float = 0.0
        for i in range(n):
            for j in range(n):
                total += M[i, j]
        return total

    total = matrix_sum(entries, 32)       # compiled on first call, cached after

Compared to the classic ``Diablo.compile(source).run(**inputs)`` facade, a
jit function

* is **directly callable** -- positional and keyword arguments are bound by
  the Python signature (defaults included);
* honours **parameter annotations** (``float``, ``Vector``, ``Matrix``,
  ``Dataset``, ...) as declared input types flowing into translation instead
  of being inferred from uses;
* supports **value returns** -- ``return x`` / ``return total, C`` at the
  function tail map the result environment back to the returned names
  (scalars unwrapped to plain values, arrays as Datasets);
* **compiles once** -- translations land in a shared
  :class:`~repro.translate.cache.CompilationCache` keyed by source, declared
  types and compiler options, so iterative drivers (k-means sweeps, PageRank
  convergence loops) stop paying translation per call.  Inspect with
  ``diablo.cache_info()`` / reset with ``diablo.cache_clear()``;
* resolves its configuration **at call time** from
  :func:`repro.api.config.current_config`, so
  ``with diablo.options(executor_mode="cluster"): ...`` re-targets calls
  without touching the function.

Jit functions own the :class:`DistributedContext` objects they execute on
(one per distinct runtime configuration) and release them -- cluster
workers, spill files -- via ``close()`` or by being used as a context manager.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping

from repro.algebra.runner import ProgramRunner
from repro.api.config import DiabloConfig, current_config
from repro.api.types import annotation_info
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.functions import FunctionRegistry
from repro.loop_lang import ast
from repro.loop_lang.python_frontend import parse_python_function
from repro.runtime.context import DistributedContext
from repro.translate.cache import CacheInfo, CompilationCache
from repro.translate.target import TargetProgram, VariableInfo
from repro.translate.translator import DiabloCompiler, TranslationResult

#: The process-wide compilation cache shared by every jit function, so
#: repeated calls -- and re-decorations of the same source -- translate once.
GLOBAL_COMPILATION_CACHE = CompilationCache(maxsize=256)

#: Distinct runtime configurations a jit function keeps live contexts for.
#: A sweep over many configurations evicts (and shuts down) the least
#: recently used context instead of accumulating live contexts.
MAX_LIVE_CONTEXTS = 4


def cache_info() -> CacheInfo:
    """Counters of the shared jit compilation cache (misses == translations)."""
    return GLOBAL_COMPILATION_CACHE.info()


def cache_clear() -> None:
    """Drop every cached jit translation and reset the counters."""
    GLOBAL_COMPILATION_CACHE.clear()


class JitFunction:
    """A Python function compiled through the DIABLO pipeline on first call.

    Produced by the :func:`jit` decorator; call it like the original
    function.  Useful attributes:

    * ``program`` -- the converted loop-language AST;
    * ``input_types`` -- the declared :class:`VariableInfo` per annotated
      parameter;
    * ``compile()`` / ``target()`` / ``explain()`` -- force compilation and
      inspect the generated target code;
    * ``runtime()`` -- the :class:`DistributedContext` calls execute on under
      the current configuration (for metrics inspection);
    * ``close()`` -- shut down every context this function created (also
      available via ``with jit_function: ...``).
    """

    def __init__(
        self,
        function: Callable,
        *,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        monoids: Iterable[Monoid] = (),
        config: DiabloConfig | None = None,
        cache: CompilationCache | None = None,
        **config_overrides: Any,
    ) -> None:
        functools.update_wrapper(self, function)
        self._function = function
        self._signature = inspect.signature(function)
        self.spec = parse_python_function(function)
        self.input_types: dict[str, VariableInfo] = {}
        for name, parameter in self._signature.parameters.items():
            info = annotation_info(name, parameter.annotation)
            if info is not None:
                self.input_types[name] = info
        # A full `config` pins the function to that configuration; bare
        # keyword overrides compose with the ambient configuration per call.
        if config is not None:
            config = config.replace(**config_overrides)
        elif config_overrides:
            # Validate the override names eagerly, at decoration time.
            current_config().replace(**config_overrides)
        self._pinned = config
        self._overrides = config_overrides
        self._functions = FunctionRegistry()
        for name, scalar_function in (functions or {}).items():
            self._functions.register(name, scalar_function)
        self._monoids = MonoidRegistry()
        for monoid in monoids:
            self._monoids.register(monoid)
        self._cache = cache if cache is not None else GLOBAL_COMPILATION_CACHE
        self._contexts: OrderedDict[tuple, DistributedContext] = OrderedDict()
        self._contexts_lock = threading.Lock()

    # -- calling ----------------------------------------------------------------

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        config = self.resolve_config()
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        translation = self.compile(config)
        runner = ProgramRunner(self._runtime_for(config), self._functions, self._monoids)
        result = runner.run(translation.target, dict(bound.arguments))
        if self.spec.returns is None:
            return result
        return result.returned(self.spec.returns, self.spec.returns_tuple)

    # -- compilation ------------------------------------------------------------

    def compile(self, config: DiabloConfig | None = None) -> TranslationResult:
        """The (cached) translation of this function under ``config``."""
        config = config or self.resolve_config()
        compiler = DiabloCompiler(
            monoids=self._monoids, cache=self._cache, **config.compiler_options()
        )
        return compiler.compile(self.spec.program, input_types=self.input_types)

    def target(self) -> TargetProgram:
        """The generated target code under the current configuration."""
        return self.compile().target

    def explain(self) -> str:
        """A textual summary of the generated target code."""
        return str(self.target())

    @property
    def program(self) -> ast.Program:
        """The loop-language program converted from the Python function."""
        return self.spec.program

    def cache_info(self) -> CacheInfo:
        """Counters of the compilation cache this function compiles through."""
        return self._cache.info()

    def cache_clear(self) -> None:
        self._cache.clear()

    # -- configuration and runtime ----------------------------------------------

    def resolve_config(self) -> DiabloConfig:
        """The configuration a call made right now would use."""
        if self._pinned is not None:
            return self._pinned
        config = current_config()
        if self._overrides:
            config = config.replace(**self._overrides)
        return config

    def runtime(self) -> DistributedContext:
        """The context calls execute on under the current configuration."""
        return self._runtime_for(self.resolve_config())

    def _runtime_for(self, config: DiabloConfig) -> DistributedContext:
        key = config.runtime_key()
        evicted: list[DistributedContext] = []
        with self._contexts_lock:
            context = self._contexts.get(key)
            if context is None:
                context = config.make_context()
                self._contexts[key] = context
            self._contexts.move_to_end(key)
            while len(self._contexts) > MAX_LIVE_CONTEXTS:
                _, stale = self._contexts.popitem(last=False)
                evicted.append(stale)
        for stale in evicted:
            # Graceful shutdown: pending tasks of a concurrent call still on
            # this context run to completion, and the context itself stays
            # usable afterwards (spill directories are recreated on demand).
            stale.shutdown(cancel_pending=False)
        return context

    # -- extension points --------------------------------------------------------

    def register_function(self, name: str, function: Callable[..., Any]) -> None:
        """Register a scalar function callable from the loop program."""
        self._functions.register(name, function)

    def register_monoid(self, monoid: Monoid) -> None:
        """Register a commutative monoid usable in incremental updates."""
        self._monoids.register(monoid)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down every context this function started."""
        with self._contexts_lock:
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for context in contexts:
            context.shutdown()

    def __enter__(self) -> "JitFunction":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        returns = ", ".join(self.spec.returns) if self.spec.returns else "<env>"
        return f"<jit {self.spec.name}({', '.join(self.spec.parameters)}) -> {returns}>"


def jit(function: Callable | None = None, /, **options: Any) -> Any:
    """Decorate a Python function for JIT-style compilation to DISC programs.

    Use bare or with options::

        @diablo.jit
        def f(V): ...

        @diablo.jit(num_partitions=16, functions={"distance": math.dist})
        def g(P: Vector, n: int): ...

    Options: ``functions`` (scalar-function registry entries), ``monoids``
    (custom commutative monoids), ``config`` (pin a full
    :class:`DiabloConfig`), ``cache`` (a private
    :class:`CompilationCache`), plus any :class:`DiabloConfig` field as a
    per-function override composed with the ambient configuration.
    """
    if function is None:
        return lambda wrapped: JitFunction(wrapped, **options)
    if not callable(function):
        raise TypeError("@jit must decorate a callable (did you mean @jit(option=...)?)")
    return JitFunction(function, **options)
