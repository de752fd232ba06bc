"""Compile comprehension terms once into Python closures ``fn(row) -> value``.

Every record function of a plan evaluates an IR term; compiling it when the
plan is built leaves a row only the term's own operations to pay for: no
per-node dispatch, no merged ``{**base, **row}`` scope.  Variables resolve from
the row, then the driver bindings snapshotted at compile time (``base``), then
``env.values`` read at call time (plan nodes are reused across loop
iterations).  Undefined variables, unknown functions and pattern-arity
mismatches raise when a row is evaluated, never at compile time.

Cluster workers receive closures by value (:mod:`repro.runtime.cluster.wire`):
cells are pickled, module globals re-read from the worker's module, so nothing
compared by identity may live in a cell (:class:`PreAggregated` is a global).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro import operators
from repro.comprehension import ir
from repro.errors import ExecutionError
from repro.runtime.dataset import Dataset

if TYPE_CHECKING:
    from repro.algebra.evaluator import EvaluationEnvironment

Row = dict[str, Any]
RowFn = Callable[[Row], Any]
Binder = Callable[[Any, Row], None]


@dataclass
class PreAggregated:
    """Marker wrapper for a lifted variable that was already reduced by
    reduceByKey; ``Aggregate`` over it returns the value unchanged."""

    value: Any


class LocalBags:
    """Value -> the local bag a generator or aggregation ranges over.  A driver
    Dataset is collected once; entries hold it and re-check identity, so a
    recycled ``id()`` never serves a stale bag."""

    def __init__(self) -> None:
        self.entries: dict[int, tuple[Any, list[Any]]] = {}

    def __call__(self, value: Any) -> list[Any]:
        if isinstance(value, Dataset):
            entry = self.entries.get(id(value))
            if entry is not None and entry[0] is value:
                return entry[1]
            collected = value.collect()
            self.entries[id(value)] = (value, collected)
            return collected
        if isinstance(value, dict):
            return list(value.items())
        if isinstance(value, (list, tuple, set)):
            return list(value)
        return [value]


def _fail(message: str) -> Any:
    raise ExecutionError(message)


def _env_value(env: EvaluationEnvironment, name: str) -> Any:
    values = env.values
    return values[name] if name in values else _fail(f"undefined variable {name!r}")


def _aggregate(env: EvaluationEnvironment, op: str, as_bag: LocalBags, value: Any) -> Any:
    if isinstance(value, PreAggregated):
        return value.value
    monoid = env.monoids.get(op)
    return monoid.reduce(as_bag(value))


def _late_call(env: EvaluationEnvironment, name: str, arguments: list[RowFn], row: Row) -> Any:
    """A call to a function unknown when compiled: looked up per row."""
    if name not in env.functions:
        raise ExecutionError(f"unknown function {name!r}")
    function = env.functions.get(name)
    return function(*[fn(row) for fn in arguments])


def _in_range(value: Any, lower: Any, upper: Any) -> Any:
    return lower <= value <= upper


def _update_field(record: Any, attribute: Any, value: Any) -> Any:
    return operators.update_field(record, str(attribute), value)


def _mismatch(pattern: ir.Pattern, value: Any) -> None:
    raise ExecutionError(f"cannot bind pattern {pattern} to value {value!r}")


def compile_pattern(pattern: ir.Pattern) -> Binder:
    """``bind(value, out)``: destructure ``value`` by ``pattern`` into ``out``."""
    if isinstance(pattern, ir.PVar):
        name = pattern.name

        def bind_var(value: Any, out: Row) -> None:
            out[name] = value

        return bind_var
    if isinstance(pattern, ir.PWildcard):
        return lambda value, out: None
    if not isinstance(pattern, ir.PTuple):
        return lambda value, out: _fail(f"unknown pattern {pattern!r}")
    elements, arity = pattern.elements, len(pattern.elements)
    if arity == 2 and isinstance(elements[1], ir.PVar):
        # ``(key pattern, v)``: the shape of every array element.
        bind_key, name = compile_pattern(elements[0]), elements[1].name

        def bind_keyed(value: Any, out: Row) -> None:
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                _mismatch(pattern, value)
            bind_key(value[0], out)
            out[name] = value[1]

        return bind_keyed
    binders = tuple(compile_pattern(element) for element in elements)

    def bind_tuple(value: Any, out: Row) -> None:
        if not isinstance(value, (tuple, list)) or len(value) != arity:
            _mismatch(pattern, value)
        for bind, item in zip(binders, value, strict=False):
            bind(item, out)

    return bind_tuple


def binding_row(pattern: ir.Pattern) -> Callable[[Any], Row]:
    """``element -> row`` holding just ``pattern``'s bindings."""
    bind = compile_pattern(pattern)

    def bind_element(element: Any) -> Row:
        row: Row = {}
        bind(element, row)
        return row

    return bind_element


def let_row(pattern: ir.Pattern, value_fn: RowFn) -> Callable[[Row], Row]:
    """``row -> row`` extended with ``pattern`` bound to ``value_fn(row)``."""
    if isinstance(pattern, ir.PVar):
        name = pattern.name
        return lambda row: {**row, name: value_fn(row)}
    bind = compile_pattern(pattern)

    def add_binding(row: Row) -> Row:
        value = value_fn(row)
        new = dict(row)
        bind(value, new)
        return new

    return add_binding


class TermCompiler:
    """Compiles terms against one evaluation environment.

    ``evaluate_driver`` evaluates a term at the driver; only nested local
    comprehensions whose generator or let terms mention no row variable use
    it, so every other closure stays free of the evaluator.
    """

    def __init__(self, env: EvaluationEnvironment, evaluate_driver: Callable[[ir.Term], Any]):
        self.env = env
        self.evaluate_driver = evaluate_driver
        self.as_bag = LocalBags()

    def term(self, term: ir.Term, base: Row | None = None) -> RowFn:
        """``fn(row)`` evaluating ``term`` with ``base`` as the driver bindings."""
        return self._compile(term, {} if base is None else base)

    def _compile(self, term: ir.Term, base: Row) -> RowFn:
        if isinstance(term, ir.CVar):
            return self._var(term.name, base)
        if isinstance(term, ir.Comprehension):
            return self._comprehension(term, base)
        sub = [self._compile(child, base) for child in term.children()]
        if isinstance(term, ir.CConst):
            value = term.value
            return lambda row: value
        if isinstance(term, ir.CTuple):
            if len(sub) == 2:
                first, second = sub
                return lambda row: (first(row), second(row))
            return lambda row: tuple([fn(row) for fn in sub])
        if isinstance(term, ir.CRecord):
            fields = [(name, fn) for (name, _), fn in zip(term.fields, sub, strict=True)]
            return lambda row: {name: fn(row) for name, fn in fields}
        if isinstance(term, ir.CProject):
            return self._project(sub[0], term.attribute)
        if isinstance(term, ir.CBinOp):
            return self._binary(term.op, *sub)
        if isinstance(term, ir.CUnaryOp):
            (operand,) = sub
            op, function = term.op, operators.UNARY_OPERATORS.get(term.op)
            if function is None:
                return lambda row: operators.apply_unary(op, operand(row))
            return lambda row: function(operand(row))
        if isinstance(term, ir.CCall):
            return self._call(term.function, sub)
        if isinstance(term, ir.Aggregate):
            (operand,) = sub
            op, as_bag, env = term.op, self.as_bag, self.env
            return lambda row: _aggregate(env, op, as_bag, operand(row))
        if isinstance(term, ir.InRange):
            value_fn, lower_fn, upper_fn = sub
            return lambda row: _in_range(value_fn(row), lower_fn(row), upper_fn(row))
        if isinstance(term, ir.RangeTerm):
            lower_fn, upper_fn = sub
            return lambda row: list(range(int(lower_fn(row)), int(upper_fn(row)) + 1))
        if isinstance(term, ir.EmptyBag):
            return lambda row: []
        return lambda row: _fail(f"cannot evaluate term {term!r} locally")

    def _var(self, name: str, base: Row) -> RowFn:
        if name in base:
            bound = base[name]
            return lambda row: row[name] if name in row else bound
        env = self.env
        return lambda row: row[name] if name in row else _env_value(env, name)

    @staticmethod
    def _project(inner: RowFn, attribute: str) -> RowFn:
        digits = attribute[1:]
        tuple_position = attribute.startswith("_") and digits.isascii() and digits.isdigit()
        position = int(digits) - 1 if tuple_position else -1
        if position < 0:
            return lambda row: operators.project_value(inner(row), attribute)

        def project_position(row: Row) -> Any:
            value = inner(row)
            if type(value) is tuple and position < len(value):
                return value[position]
            return operators.project_value(value, attribute)

        return project_position

    def _binary(self, op: str, left: RowFn, right: RowFn) -> RowFn:
        if op == "&&":
            return lambda row: bool(left(row)) and bool(right(row))
        if op == "||":
            return lambda row: bool(left(row)) or bool(right(row))
        env = self.env
        function = operators.binary_function(op, env.monoids)
        if function is None:
            return lambda row: operators.apply_binary(op, left(row), right(row), env.monoids)
        return lambda row: function(left(row), right(row))

    def _call(self, name: str, arguments: list[RowFn]) -> RowFn:
        if name == "_update_field":
            record_fn, attribute_fn, value_fn = arguments
            return lambda row: _update_field(record_fn(row), attribute_fn(row), value_fn(row))
        env = self.env
        if name not in env.functions:
            return lambda row: _late_call(env, name, arguments, row)
        function = env.functions.get(name)
        if len(arguments) == 1:
            (only,) = arguments
            return lambda row: function(only(row))
        if len(arguments) == 2:
            first, second = arguments
            return lambda row: function(first(row), second(row))
        return lambda row: function(*[fn(row) for fn in arguments])

    # -- nested local comprehensions ------------------------------------------

    def _comprehension(self, comp: ir.Comprehension, base: Row) -> RowFn:
        """A comprehension evaluated inside the closure; rows start as a copy
        of the calling row, ``base`` stays the fallback scope."""
        steps = [self._qualifier(qualifier, base) for qualifier in comp.qualifiers]
        head = self._compile(comp.head, base)

        def local_comprehension(row: Row) -> Any:
            rows = [dict(row)]
            for step in steps:
                rows = step(rows, row)
            return [head(r) for r in rows]

        return local_comprehension

    def _qualifier(self, qualifier: ir.Qualifier, base: Row) -> Callable[[list[Row], Row], list[Row]]:
        if isinstance(qualifier, ir.Condition):
            test = self._compile(qualifier.term, base)
            return lambda rows, outer: [row for row in rows if test(row)]
        if isinstance(qualifier, ir.GroupBy):
            return self._group_by(qualifier, base)
        if isinstance(qualifier, ir.Generator):
            expand = self.expansion(qualifier.pattern, self.local_or_driver(qualifier.domain, base))
            return lambda rows, outer: [new for row in rows for new in expand(row)]
        if isinstance(qualifier, ir.LetBinding):
            add_binding = let_row(qualifier.pattern, self.local_or_driver(qualifier.term, base))
            return lambda rows, outer: [add_binding(row) for row in rows]
        return lambda rows, outer: _fail(f"unknown qualifier {qualifier!r}")

    def expansion(self, pattern: ir.Pattern, domain_fn: RowFn) -> Callable[[Row], list[Row]]:
        """``row -> rows``: the row once per element of its bag ``domain_fn(row)``,
        with ``pattern`` bound."""
        bind, as_bag = compile_pattern(pattern), self.as_bag

        def expand(row: Row) -> list[Row]:
            out = []
            for element in as_bag(domain_fn(row)):
                new = dict(row)
                bind(element, new)
                out.append(new)
            return out

        return expand

    def _group_by(self, qualifier: ir.GroupBy, base: Row) -> Callable[[list[Row], Row], list[Row]]:
        key_fn = self._compile(qualifier.key_term(), base)
        bind = compile_pattern(qualifier.pattern)
        pattern_variables = set(qualifier.pattern.variables())

        def group_by(rows: list[Row], outer: Row) -> list[Row]:
            groups: dict[Any, list[Row]] = {}
            for row in rows:
                groups.setdefault(key_fn(row), []).append(row)
            # Lifted: every variable bound inside the comprehension (not by
            # the caller's row, the driver bindings or the key pattern).
            lifted = {
                name: None
                for row in rows
                for name in row
                if name not in outer and name not in base and name not in pattern_variables
            }
            result = []
            for key, members in groups.items():
                new = dict(outer)
                bind(key, new)
                for name in lifted:
                    new[name] = [member.get(name) for member in members]
                result.append(new)
            return result

        return group_by

    def local_or_driver(self, term: ir.Term, base: Row | None = None) -> RowFn:
        """A generator domain or let term of a local comprehension: a bag term
        mentioning no variable of the row (nor of ``base``) is evaluated at the
        driver, as a dataset; anything else locally."""
        base = {} if base is None else base
        local = self._compile(term, base)
        free = frozenset(ir.free_variables(term))
        if not isinstance(term, (ir.Comprehension, ir.Merge, ir.MergeWith, ir.RangeTerm)):
            return local
        if not free.isdisjoint(base):
            return local
        evaluate_driver = self.evaluate_driver
        return lambda row: evaluate_driver(term) if free.isdisjoint(row) else local(row)
