"""Tests for the term compiler (``repro.algebra.termc``).

Every IR node kind compiles to a closure whose result is checked against a
literal value; the error paths (undefined variables, unknown functions,
pattern arity) must raise only when a row is evaluated, with the messages the
evaluator has always used.  Two end-to-end checks guard what closures make
easy to get wrong: a ``while`` loop whose filter and head read a driver scalar
the loop reassigns (closures must read ``env.values`` at call time, also when
the plan-skeleton cache reuses them), and shipping compiled closures to
cluster workers (closure cells are pickled by value there).
"""

from __future__ import annotations

import types

import pytest

from test_executor_equivalence import _Outputs, interpreter_outputs, workload
from test_soundness_programs import assert_same_outputs

from repro import Diablo
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.algebra.termc import LocalBags, PreAggregated, TermCompiler, compile_pattern
from repro.comprehension import ir
from repro.comprehension.monoids import ArgMin, MonoidRegistry, argmin_monoid
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.cluster.wire import cluster_dumps, cluster_loads
from repro.runtime.context import EXECUTOR_MODES, DistributedContext

C = ir.CConst
V = ir.CVar


@pytest.fixture
def ctx():
    with DistributedContext(num_partitions=2) as context:
        yield context


def compiler(ctx, monoids=None, **values) -> TermCompiler:
    env = EvaluationEnvironment(ctx, values)
    if monoids is not None:
        env.monoids = monoids
    return TermCompiler(env, TermEvaluator(env).evaluate)


def run(ctx, term, row=None, base=None, **values):
    return compiler(ctx, **values).term(term, base)(row or {})


def binop(op, left, right):
    return ir.CBinOp(op, left, right)


class TestNodeKinds:
    def test_variable_lookup_order_is_row_then_base_then_environment(self, ctx):
        c = compiler(ctx, x="env", y="env-y")
        fn = c.term(V("x"), {"x": "base"})
        assert fn({"x": "row"}) == "row"
        assert fn({}) == "base"
        assert c.term(V("y"), {"x": "base"})({}) == "env-y"
        assert c.term(V("y"))({"y": "row"}) == "row"

    def test_environment_is_read_at_call_time(self, ctx):
        c = compiler(ctx, t=1)
        fn = c.term(binop("*", V("t"), C(10)))
        assert fn({}) == 10
        c.env.values["t"] = 2
        assert fn({}) == 20
        c.env.values = {"t": 3}
        assert fn({}) == 30

    def test_constants(self, ctx):
        assert run(ctx, C(3)) == 3
        assert run(ctx, C("s")) == "s"
        assert run(ctx, C(None)) is None
        assert run(ctx, C(True)) is True

    def test_tuples_of_every_arity(self, ctx):
        assert run(ctx, ir.CTuple((V("a"), C(2))), {"a": 1}) == (1, 2)
        assert run(ctx, ir.CTuple((C(1), C(2), V("a"))), {"a": 3}) == (1, 2, 3)
        assert run(ctx, ir.CTuple(())) == ()

    def test_record(self, ctx):
        term = ir.CRecord((("A", V("a")), ("B", binop("+", V("a"), C(1)))))
        assert run(ctx, term, {"a": 4}) == {"A": 4, "B": 5}

    def test_projections(self, ctx):
        assert run(ctx, ir.CProject(V("p"), "_2"), {"p": (7, 8)}) == 8
        assert run(ctx, ir.CProject(V("p"), "A"), {"p": {"A": 5}}) == 5
        assert run(ctx, ir.CProject(V("p"), "distance"), {"p": ArgMin(1, 2.5)}) == 2.5
        with pytest.raises(ExecutionError, match="out of range"):
            run(ctx, ir.CProject(V("p"), "_3"), {"p": (7, 8)})
        with pytest.raises(ExecutionError, match="no field"):
            run(ctx, ir.CProject(V("p"), "B"), {"p": {"A": 5}})

    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            ("+", 2, 3, 5),
            ("-", 2, 3, -1),
            ("*", 2, 3, 6),
            ("%", 7, 3, 1),
            ("==", 2, 2, True),
            ("!=", 2, 2, False),
            ("<", 2, 3, True),
            ("<=", 3, 3, True),
            (">", 2, 3, False),
            (">=", 2, 3, False),
            ("&&", 1, 0, False),
            ("||", 0, 2, True),
        ],
    )
    def test_binary_operators(self, ctx, op, left, right, expected):
        result = run(ctx, binop(op, C(left), C(right)))
        assert result == expected and type(result) is type(expected)

    def test_division_is_int_exact(self, ctx):
        exact = run(ctx, binop("/", C(6), C(3)))
        assert exact == 2 and type(exact) is int
        inexact = run(ctx, binop("/", C(7), C(2)))
        assert inexact == 3.5 and type(inexact) is float
        floats = run(ctx, binop("/", C(6.0), C(3)))
        assert floats == 2.0 and type(floats) is float
        with pytest.raises(ZeroDivisionError):
            run(ctx, binop("/", C(1), C(0)))

    def test_short_circuit_never_evaluates_the_right_side(self, ctx):
        explode = binop("==", binop("/", C(1), C(0)), C(1))
        assert run(ctx, binop("&&", C(False), explode)) is False
        assert run(ctx, binop("||", C(True), explode)) is True
        with pytest.raises(ZeroDivisionError):
            run(ctx, binop("&&", C(True), explode))

    def test_custom_monoid_operator(self, ctx):
        monoids = MonoidRegistry({"^": argmin_monoid()})
        c = compiler(ctx, monoids=monoids)
        fn = c.term(binop("^", V("a"), V("b")))
        near, far = ArgMin(1, 0.5), ArgMin(2, 4.0)
        assert fn({"a": far, "b": near}) is near
        assert fn({"a": near, "b": far}) is near

    def test_unknown_operators_raise_per_row(self, ctx):
        binary = compiler(ctx).term(binop("@", C(1), C(2)))
        with pytest.raises(ExecutionError, match="unknown binary operator '@'"):
            binary({})
        unary = compiler(ctx).term(ir.CUnaryOp("~", C(1)))
        with pytest.raises(ExecutionError, match="unknown unary operator '~'"):
            unary({})

    def test_unary_operators(self, ctx):
        assert run(ctx, ir.CUnaryOp("-", V("x")), {"x": 4}) == -4
        assert run(ctx, ir.CUnaryOp("!", C(0))) is True

    def test_calls(self, ctx):
        assert run(ctx, ir.CCall("abs", (C(-3),))) == 3
        assert run(ctx, ir.CCall("max", (C(1), C(5)))) == 5
        assert run(ctx, ir.CCall("max", (C(1), C(5), C(2)))) == 5
        assert run(ctx, ir.CCall("min", (V("bag"),)), bag=[4, 2]) == 2

    def test_update_field(self, ctx):
        record = ir.CCall("_update_field", (V("r"), C("A"), C(9)))
        assert run(ctx, record, {"r": {"A": 1, "B": 2}}) == {"A": 9, "B": 2}
        position = ir.CCall("_update_field", (V("r"), C("_1"), C(9)))
        assert run(ctx, position, {"r": (1, 2)}) == (9, 2)

    def test_aggregate(self, ctx):
        assert run(ctx, ir.Aggregate("+", V("xs")), {"xs": [1, 2, 3]}) == 6
        assert run(ctx, ir.Aggregate("+", V("xs")), {"xs": []}) == 0
        assert run(ctx, ir.Aggregate("max", V("xs")), {"xs": PreAggregated(41)}) == 41
        # A driver Dataset is collected once and cached.
        dataset = ctx.parallelize([1, 2, 3])
        c = compiler(ctx, D=dataset)
        fn = c.term(ir.Aggregate("+", V("D")))
        assert fn({}) == 6 and fn({}) == 6
        assert c.as_bag.entries[id(dataset)][0] is dataset

    def test_in_range(self, ctx):
        term = ir.InRange(V("i"), C(1), V("n"))
        fn = compiler(ctx, n=5).term(term)
        assert [fn({"i": i}) for i in (0, 1, 5, 6)] == [False, True, True, False]

    def test_range(self, ctx):
        assert run(ctx, ir.RangeTerm(C(2), V("n")), n=4.0) == [2, 3, 4]
        assert run(ctx, ir.RangeTerm(C(3), C(2))) == []

    def test_empty_bag_is_a_fresh_list(self, ctx):
        fn = compiler(ctx).term(ir.EmptyBag())
        first = fn({})
        assert first == [] and fn({}) is not first

    def test_merge_cannot_be_evaluated_locally(self, ctx):
        fn = compiler(ctx).term(ir.Merge(V("A"), V("B")))
        with pytest.raises(ExecutionError, match="cannot evaluate term"):
            fn({})

    def test_nested_local_comprehension(self, ctx):
        # { (k, +/x) | (k, x) <- pairs, x > lo, let y = x * 2, group by k }
        comp = ir.Comprehension(
            ir.CTuple((V("k"), ir.Aggregate("+", V("y")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("k"), ir.PVar("x"))), V("pairs")),
                ir.Condition(binop(">", V("x"), V("lo"))),
                ir.LetBinding(ir.PVar("y"), binop("*", V("x"), C(2))),
                ir.GroupBy(ir.PVar("k")),
            ),
        )
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 0)]
        fn = compiler(ctx).term(comp, {"lo": 0})
        assert fn({"pairs": pairs}) == [("a", 8), ("b", 4)]

    def test_nested_comprehension_lifts_only_inner_variables(self, ctx):
        # The caller's row variable ``o`` and the base variable ``b`` stay
        # single values after the group-by; the inner ``x`` is lifted.
        comp = ir.Comprehension(
            ir.CTuple((V("k"), V("o"), V("b"), V("x"))),
            (
                ir.Generator(ir.PVar("x"), ir.RangeTerm(C(1), V("o"))),
                ir.GroupBy(ir.PVar("k"), binop("%", V("x"), C(2))),
            ),
        )
        fn = compiler(ctx).term(comp, {"b": "base"})
        assert fn({"o": 3}) == [(1, 3, "base", [1, 3]), (0, 3, "base", [2])]

    def test_nested_comprehension_evaluates_row_free_domains_at_the_driver(self, ctx):
        comp = ir.Comprehension(V("v"), (ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), V("A")),))
        fn = compiler(ctx, A=ctx.parallelize_pairs({1: 10, 2: 20})).term(comp)
        assert sorted(fn({})) == [10, 20]
        inner_range = ir.Comprehension(V("j"), (ir.Generator(ir.PVar("j"), ir.RangeTerm(C(1), V("n"))),))
        assert compiler(ctx, n=3).term(inner_range)({}) == [1, 2, 3]


class TestErrorsRaisePerRow:
    def test_undefined_variable(self, ctx):
        fn = compiler(ctx).term(binop("+", V("missing"), C(1)))
        with pytest.raises(ExecutionError, match="undefined variable 'missing'"):
            fn({})
        assert fn({"missing": 1}) == 2

    def test_unknown_function(self, ctx):
        # The function is looked up before its arguments are evaluated.
        fn = compiler(ctx).term(ir.CCall("nope", (V("undefined"),)))
        with pytest.raises(ExecutionError, match="unknown function 'nope'"):
            fn({})

    def test_unknown_function_found_when_registered_later(self, ctx):
        c = compiler(ctx)
        c.env.functions = c.env.functions.copy()
        fn = c.term(ir.CCall("late", (C(1),)))
        c.env.functions.register("late", lambda x: x + 1)
        assert fn({}) == 2

    def test_pattern_arity_mismatch(self):
        bind = compile_pattern(ir.PTuple((ir.PVar("a"), ir.PVar("b"))))
        out: dict = {}
        with pytest.raises(ExecutionError, match=r"cannot bind pattern \(a, b\) to value \(1, 2, 3\)"):
            bind((1, 2, 3), out)
        with pytest.raises(ExecutionError, match="cannot bind pattern"):
            bind(7, out)

    def test_nested_pattern_arity_reports_the_inner_pattern(self):
        pattern = ir.PTuple((ir.PVar("a"), ir.PTuple((ir.PVar("b"), ir.PVar("c")))))
        with pytest.raises(ExecutionError, match=r"cannot bind pattern \(b, c\) to value 5"):
            compile_pattern(pattern)((1, 5), {})

    def test_evaluate_local_keeps_the_messages(self, ctx):
        ev = TermEvaluator(EvaluationEnvironment(ctx, {}))
        with pytest.raises(ExecutionError, match="undefined variable 'q'"):
            ev.evaluate_local(V("q"), {})
        with pytest.raises(ExecutionError, match="unknown function 'nope'"):
            ev.evaluate_local(ir.CCall("nope", ()), {})


class TestPatterns:
    def test_binders(self):
        out = {"keep": 0}
        compile_pattern(ir.PVar("x"))(5, out)
        compile_pattern(ir.PWildcard())(6, out)
        compile_pattern(ir.PTuple((ir.PVar("i"), ir.PWildcard())))([1, 2], out)
        nested = ir.PTuple((ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.PVar("v")))
        compile_pattern(nested)(((3, 4), 9), out)
        assert out == {"keep": 0, "x": 5, "i": 3, "j": 4, "v": 9}

    def test_duplicate_names_bind_the_last_value(self):
        out: dict = {}
        compile_pattern(ir.PTuple((ir.PVar("a"), ir.PVar("a"))))((1, 2), out)
        assert out == {"a": 2}


class TestEvaluateLocalMemo:
    def test_each_term_object_is_compiled_once(self, ctx):
        ev = TermEvaluator(EvaluationEnvironment(ctx, {"x": 2}))
        term = binop("+", V("x"), C(1))
        assert ev.evaluate_local(term, {}) == 3
        compiled = ev._compiled_terms[id(term)][1]
        assert ev.evaluate_local(term, {"x": 5}) == 6
        assert ev._compiled_terms[id(term)][1] is compiled

    def test_equal_constants_of_different_types_stay_distinct(self, ctx):
        # CConst(1) == CConst(True) == CConst(1.0) as dataclasses; a memo
        # keyed by equality would hand one the other's closure.
        ev = TermEvaluator(EvaluationEnvironment(ctx, {}))
        results = [ev.evaluate_local(C(value), {}) for value in (1, True, 1.0)]
        assert [type(value) for value in results] == [int, bool, float]

    def test_unhashable_constant(self, ctx):
        term = ir.CTuple((C([1, 2]), V("x")))
        with pytest.raises(TypeError):
            hash(term)
        ev = TermEvaluator(EvaluationEnvironment(ctx, {"x": 3}))
        assert ev.evaluate_local(term, {}) == ([1, 2], 3)
        assert ev.evaluate_local(term, {"x": 4}) == ([1, 2], 4)
        assert compiler(ctx).term(ir.Aggregate("+", C([1, 2])))({}) == 3


class TestLocalBags:
    def test_coercions(self, ctx):
        bags = LocalBags()
        assert bags({1: "a"}) == [(1, "a")]
        assert bags((1, 2)) == [1, 2]
        assert bags(7) == [7]


# ---------------------------------------------------------------------------
# Late binding across loop iterations
# ---------------------------------------------------------------------------

LATE_BINDING = """
var W: vector[double] = vector();
var t: double = 0.0;
var k: int = 0;
while (k < 4) {
  k += 1;
  t := t + 1.5;
  for i = 0, n-1 do
    if (V[i] > t)
      W[i] := V[i] * t + k;
};
"""


@pytest.mark.parametrize("mode", EXECUTOR_MODES)
@pytest.mark.parametrize("plan_cache", [True, False])
def test_closures_read_reassigned_driver_scalars(mode, plan_cache, executor_context):
    """The filter and head read ``t`` and ``k``, reassigned every iteration:
    a closure that snapshotted ``env.values`` would keep iteration 1's values,
    most visibly when the plan-skeleton cache reuses it."""
    inputs = {"V": {i: float((i * 7) % 10) for i in range(12)}, "n": 12}
    with executor_context(mode, num_partitions=4, plan_cache=plan_cache) as context:
        result = Diablo(context).run(LATE_BINDING, **inputs)
        translated = result.array("W")
        hits = context.metrics.plan_cache_hits
    expected = Diablo().interpret(LATE_BINDING, dict(inputs))
    assert translated == expected["W"]
    assert result["t"] == expected["t"] == 6.0
    assert (hits > 0) == plan_cache


# ---------------------------------------------------------------------------
# Shipping compiled closures to cluster workers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["kmeans", "pagerank"])
def test_compiled_closures_ship_to_workers_bit_identically(name, executor_context):
    outputs = {}
    for mode in EXECUTOR_MODES:
        with executor_context(mode, num_partitions=4) as context:
            spec = get_program(name)
            result = diablo_for(spec, context).compile(spec.source).run(**workload(name))
            outputs[mode] = translated_outputs(name, result)
            if mode == "cluster":
                assert context.metrics.parallel_tasks > 0
                assert context.metrics.cluster_fallbacks == 0
    assert outputs["cluster"] == outputs["sequential"]
    assert_same_outputs(get_program(name), _Outputs(outputs["cluster"]), interpreter_outputs(name))


def _closure_cells(fn, seen=None):
    """Every value reachable through ``fn``'s closure cells (functions recursively)."""
    seen = set() if seen is None else seen
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, types.FunctionType):
            yield from _closure_cells(value, seen)
        elif isinstance(value, (tuple, list)):
            for item in value:
                if isinstance(item, types.FunctionType) and id(item) not in seen:
                    seen.add(id(item))
                    yield from _closure_cells(item, seen)


#: One term per compiled node kind, with rows that hit every lookup path.
_SHIPPED_TERMS = [
    (ir.CTuple((V("r"), V("b"), V("e"))), {"r": 1}),
    (ir.InRange(V("r"), V("b"), V("e")), {"r": 2}),
    (ir.Aggregate("+", V("r")), {"r": PreAggregated(9)}),
    (ir.Aggregate("+", V("r")), {"r": [1, 2]}),
    (ir.CProject(V("r"), "_1"), {"r": (4, 5)}),
    (ir.CCall("max", (V("r"), V("e"))), {"r": 1}),
    (binop("&&", V("r"), binop("<", V("b"), V("e"))), {"r": True}),
    (
        ir.Comprehension(
            binop("+", V("x"), V("b")),
            (ir.Generator(ir.PVar("x"), ir.RangeTerm(C(1), V("r"))), ir.Condition(V("x"))),
        ),
        {"r": 3},
    ),
]


@pytest.mark.parametrize("term, row", _SHIPPED_TERMS)
def test_compiled_closures_survive_the_cluster_wire(ctx, term, row):
    """The wire pickles closure cells by value but rebuilds module globals
    from the live module: a sentinel (or any identity-compared object) held
    in a cell would stop matching after the round trip."""
    fn = compiler(ctx, e=10).term(term, {"b": 2})
    for value in _closure_cells(fn):
        assert type(value) is not object, "bare sentinel captured in a closure cell"
    shipped = cluster_loads(cluster_dumps(fn))
    assert shipped is not fn
    assert shipped(row) == fn(row)
    assert shipped({**row, "e": 11}) == fn({**row, "e": 11})
    if ir.free_variables(term) - set(row):
        with pytest.raises(ExecutionError, match="undefined variable"):
            cluster_loads(cluster_dumps(compiler(ctx).term(term)))(row)
