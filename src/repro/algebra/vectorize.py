"""Lowering comprehension terms to columnar batch kernels.

The term evaluator builds each narrow plan node around a record closure
that :mod:`repro.algebra.termc` compiled from an IR term (bind a generator
element, filter on a condition term, project the head).  This module
inspects the *term* behind such a closure and, when it is pure scalar
arithmetic/comparison over row variables, driver bindings and constants,
produces the matching vectorized record function from
:mod:`repro.runtime.columnar`.  The compiled closure is the required
``oracle``: it *is* the record path, so a lowered term adds only a batch
kernel and never a second record-at-a-time semantics.  With ``columnar``
on (the default) the runtime runs the kernel when a whole chain lowered;
with it off, only the oracle runs.

Every function here returns ``None`` when the term falls outside the
vectorizable fragment (projections, comprehensions, unregistered calls, ...);
the caller then keeps the plain closure.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comprehension import ir
from repro.runtime import columnar

#: Constant types a :class:`~repro.runtime.columnar.Lit` may hold.
_SCALAR_TYPES = (bool, int, float, str)


def lower_term(
    term: ir.Term, row_names: frozenset[str], functions: Any = None
) -> columnar.Expr | None:
    """A scalar term as a batch expression; None outside the fragment.

    Variables bound by the current row become :class:`Col` reads; everything
    else becomes a :class:`Ref` resolved against the driver scope at batch
    time (so cached plan nodes see updated loop scalars).  ``functions`` is
    the program's scalar-function registry: a :class:`~repro.runtime.columnar.Call`
    is only emitted when the registered implementation *is* the builtin the
    batch kernel mirrors.
    """
    if isinstance(term, ir.CVar):
        if term.name in row_names:
            return columnar.Col((term.name,))
        return columnar.Ref(term.name)
    if isinstance(term, ir.CConst):
        if type(term.value) in _SCALAR_TYPES:
            return columnar.Lit(term.value)
        return None
    if isinstance(term, ir.CBinOp) and term.op in columnar.SUPPORTED_BINOPS:
        left = lower_term(term.left, row_names, functions)
        right = lower_term(term.right, row_names, functions)
        if left is not None and right is not None:
            return columnar.BinOp(term.op, left, right)
        return None
    if isinstance(term, ir.CUnaryOp) and term.op in columnar.SUPPORTED_UNOPS:
        operand = lower_term(term.operand, row_names, functions)
        if operand is not None:
            return columnar.UnOp(term.op, operand)
        return None
    if isinstance(term, ir.CCall):
        impl = columnar.VECTOR_CALL_IMPLS.get(term.function)
        if impl is None or functions is None or functions.get(term.function) is not impl:
            return None
        if term.function == "abs" and len(term.arguments) != 1:
            return None
        if term.function in ("min", "max") and len(term.arguments) < 2:
            # One argument means the builtin iterates a bag, not scalars.
            return None
        args = [lower_term(argument, row_names, functions) for argument in term.arguments]
        if any(argument is None for argument in args):
            return None
        return columnar.Call(term.function, args)
    return None


def lower_output(
    term: ir.Term, row_names: frozenset[str], functions: Any = None
) -> Any | None:
    """A head/key term as an output spec (tuples allowed at any depth)."""
    if isinstance(term, ir.CTuple):
        specs = []
        for element in term.elements:
            spec = lower_output(element, row_names, functions)
            if spec is None:
                return None
            specs.append(spec)
        return columnar.OutTuple(specs)
    return lower_term(term, row_names, functions)


def pattern_spec(pattern: ir.Pattern) -> tuple[Any, ...] | None:
    """A binding pattern as the picklable spec ``VectorizedBind`` consumes."""
    if isinstance(pattern, ir.PVar):
        return ("var", pattern.name)
    if isinstance(pattern, ir.PWildcard):
        return ("wildcard",)
    if isinstance(pattern, ir.PTuple):
        specs = []
        for element in pattern.elements:
            spec = pattern_spec(element)
            if spec is None:
                return None
            specs.append(spec)
        return ("tuple", tuple(specs))
    return None


def head_map(
    head: ir.Term,
    row_names: frozenset[str],
    base: dict[str, Any],
    values_provider: Callable[[], dict[str, Any]],
    oracle: Callable[..., Any],
    functions: Any = None,
) -> columnar.VectorizedMap | None:
    """The head-projection ``map`` as a batch kernel, or None."""
    spec = lower_output(head, row_names, functions)
    if spec is None:
        return None
    scope = columnar.ScalarScope(base, values_provider)
    return columnar.VectorizedMap(spec, scope, oracle=oracle)


def row_filter(
    term: ir.Term,
    row_names: frozenset[str],
    base: dict[str, Any],
    values_provider: Callable[[], dict[str, Any]],
    oracle: Callable[..., Any],
    functions: Any = None,
) -> columnar.VectorizedFilter | None:
    """A condition qualifier's ``filter`` as a batch kernel, or None."""
    predicate = lower_term(term, row_names, functions)
    if predicate is None:
        return None
    scope = columnar.ScalarScope(base, values_provider)
    return columnar.VectorizedFilter(predicate, scope, oracle=oracle)


def extend_flat_map(
    bindings: list[dict[str, Any]], oracle: Callable[..., Any]
) -> columnar.VectorizedFlatMap | None:
    """A constant-bag expansion ``row -> [{**row, **b} for b in bindings]``.

    ``bindings`` are the pre-computed pattern bindings of the bag elements
    (one dict per element, in bag order).  Vectorizable only when every
    element binds the same names, in the same order, to scalar constants --
    the bindings then become per-copy :class:`Lit` extension columns.
    """
    if not bindings:
        return None
    names = tuple(bindings[0])
    exts = []
    for binding in bindings:
        if tuple(binding) != names:
            return None
        ext = []
        for name in names:
            value = binding[name]
            if type(value) not in _SCALAR_TYPES:
                return None
            ext.append(columnar.Lit(value))
        exts.append(tuple(ext))
    return columnar.VectorizedFlatMap(("extend", names, tuple(exts)), oracle=oracle)


def bind_map(pattern: ir.Pattern, oracle: Callable[..., Any]) -> columnar.VectorizedBind | None:
    """The generator-binding ``map`` as a (structural) batch kernel, or None."""
    spec = pattern_spec(pattern)
    if spec is None:
        return None
    return columnar.VectorizedBind(spec, oracle=oracle)


def let_map(
    pattern: ir.Pattern,
    term: ir.Term,
    row_names: frozenset[str],
    base: dict[str, Any],
    values_provider: Callable[[], dict[str, Any]],
    oracle: Callable[..., Any],
    functions: Any = None,
) -> columnar.VectorizedLet | None:
    """The let-binding ``map`` as a batch kernel (single fresh variable only)."""
    if not isinstance(pattern, ir.PVar):
        return None
    expr = lower_term(term, row_names, functions)
    if expr is None:
        return None
    return columnar.VectorizedLet(
        pattern.name, expr, columnar.ScalarScope(base, values_provider), oracle=oracle
    )


def key_value_map(
    key_term: ir.Term,
    value_name: str,
    row_names: frozenset[str],
    base: dict[str, Any],
    values_provider: Callable[[], dict[str, Any]],
    oracle: Callable[..., Any],
    functions: Any = None,
) -> columnar.VectorizedMap | None:
    """The reduceByKey keying ``map`` ``row -> (key, row[value])``, or None."""
    key_spec = lower_output(key_term, row_names, functions)
    if key_spec is None:
        return None
    out = columnar.OutTuple([key_spec, columnar.Col((value_name,))])
    scope = columnar.ScalarScope(base, values_provider)
    return columnar.VectorizedMap(out, scope, oracle=oracle)


def vector_combine(op: str, fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """Tag a monoid combine with its operator when a fold kernel exists.

    The wrapper delegates ``__call__`` to ``fn``, so wrapping is free for the
    record path and merely *enables* the grouped-fold kernel when columnar
    execution is on.
    """
    if op in columnar.VECTOR_COMBINE_OPS:
        return columnar.VectorizedCombine(op, fn)
    return fn
