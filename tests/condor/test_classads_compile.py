"""The compiled ClassAd path must be indistinguishable from the interpreter.

Each expression node is lowered to a Python closure once and the closure
is kept on the node, shared by every ad that holds it (the matchmaker
evaluates one Requirements tree for thousands of jobs built from one
template).  These tests pin the contract: same value as ``Expr.eval``
for every expression and context, nothing stale after an ad mutates,
and nothing of one ad visible through a closure it shares with another.
"""

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings

from repro.condor.classads import ClassAd, compile_expr, parse
from repro.condor.classads.compile import lower
from repro.condor.classads.expr import (
    BinOp,
    ClassAdValue,
    EvalContext,
    Literal,
    ValueType,
)
from repro.condor.classads.parser import parse_uncached

from tests.condor.test_classads_properties import expressions


def equivalent(source: str, my: ClassAd, target: ClassAd | None) -> None:
    expr = parse(source)
    interpreted = expr.eval(EvalContext(my=my, target=target))
    compiled = compile_expr(expr)(EvalContext(my=my, target=target))
    assert compiled.type is interpreted.type
    assert compiled.payload == interpreted.payload


@given(expressions())
@settings(max_examples=300, deadline=None)
def test_compiled_equals_interpreted(source):
    my = ClassAd({"attr_a": 1, "attr_b": 2.5})
    target = ClassAd({"attr_c": "hello"})
    equivalent(source, my, target)


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_compiled_equals_interpreted_without_target(source):
    equivalent(source, ClassAd({"attr_a": 7}), None)


def test_compiled_cross_ad_references():
    """TARGET refs resolve in the referenced ad's frame, including the
    flipped context when the target refers back to MY."""
    job = ClassAd({"memory_needed": 64})
    job.set_expr("requirements", "TARGET.memory >= MY.memory_needed")
    machine = ClassAd({"memory": 128})
    machine.set_expr("requirements", "TARGET.memory_needed <= MY.memory")
    assert job.eval("requirements", target=machine).payload is True
    assert machine.eval("requirements", target=job).payload is True


def test_compiled_circular_reference_is_total():
    ad = ClassAd()
    ad.set_expr("a", "b")
    ad.set_expr("b", "a")
    value = ad.eval("a")
    assert isinstance(value, ClassAdValue)
    # Matches the interpreter's verdict on the same cycle.
    assert value.type is ad.lookup("a").eval(EvalContext(my=ad)).type


def test_setitem_invalidates_compiled_cache():
    ad = ClassAd({"x": 1})
    assert ad.value("x") == 1  # populates the cache
    ad["x"] = 2
    assert ad.value("x") == 2


def test_set_expr_invalidates_compiled_cache():
    ad = ClassAd({"x": 1})
    ad.set_expr("total", "x + 1")
    assert ad.value("total") == 2
    ad.set_expr("total", "x + 10")
    assert ad.value("total") == 11


def test_cross_attr_reference_sees_mutation():
    """Closures look a referenced attribute up at call time, so mutating
    a *dependency* is visible even though the dependent attribute's
    closure is reused."""
    ad = ClassAd({"x": 1})
    ad.set_expr("total", "x + 1")
    assert ad.value("total") == 2
    ad["x"] = 5
    assert ad.value("total") == 6


def test_update_invalidates_merged_names():
    ad = ClassAd({"x": 1, "y": 2})
    assert ad.value("x") == 1 and ad.value("y") == 2
    ad.update(ClassAd({"x": 10}))
    assert ad.value("x") == 10
    assert ad.value("y") == 2


def test_copy_evaluates_independently():
    ad = ClassAd({"x": 1})
    assert ad.value("x") == 1
    clone = ad.copy()
    clone["x"] = 99
    assert ad.value("x") == 1
    assert clone.value("x") == 99


# -- operators: one table, the same verdicts ----------------------------------

#: Every type, both exceptional values, zeros of both signs, a product
#: that overflows to inf (1e308 * 1e308) and strings equal but for case.
MIXED_OPERANDS = ["3", "3.0", "4", "0", "-1.5", "-0.0", "1e308", "TRUE", "FALSE",
                  '"abc"', '"ABC"', '"AbC"', '"abd"', "UNDEFINED", "ERROR"]

ERROR, UNDEFINED = ClassAdValue(ValueType.ERROR), ClassAdValue(ValueType.UNDEFINED)
TRUE, FALSE = ClassAdValue(ValueType.BOOLEAN, True), ClassAdValue(ValueType.BOOLEAN, False)


def reference_compare(op: str, a: ClassAdValue, b: ClassAdValue) -> ClassAdValue:
    """The comparison rules as the parent commit spelled them out."""
    if a.is_error or b.is_error:
        return ERROR
    if a.is_undefined or b.is_undefined:
        return UNDEFINED
    if a.is_number and b.is_number:
        x, y = a.payload, b.payload
    elif a.type is ValueType.STRING and b.type is ValueType.STRING:
        x, y = a.payload.lower(), b.payload.lower()
    elif a.type is ValueType.BOOLEAN and b.type is ValueType.BOOLEAN:
        x, y = a.payload, b.payload
    else:
        return ERROR
    result = {"==": x == y, "!=": x != y, "<": x < y,
              "<=": x <= y, ">": x > y, ">=": x >= y}[op]
    return ClassAdValue(ValueType.BOOLEAN, result)


def reference_arith(op: str, a: ClassAdValue, b: ClassAdValue) -> ClassAdValue:
    """Arithmetic as the parent commit spelled it out: C-style ``/`` and
    ``%`` on integers, a zero divisor or an overflow is ERROR."""
    if a.is_error or b.is_error:
        return ERROR
    if a.is_undefined or b.is_undefined:
        return UNDEFINED
    if op == "+" and a.type is ValueType.STRING and b.type is ValueType.STRING:
        return ClassAdValue(ValueType.STRING, a.payload + b.payload)
    if not (a.is_number and b.is_number):
        return ERROR
    x, y = a.payload, b.payload
    integers = isinstance(x, int) and isinstance(y, int)
    if op in ("/", "%") and y == 0:
        return ERROR
    try:
        if op == "+":
            result = x + y
        elif op == "-":
            result = x - y
        elif op == "*":
            result = x * y
        elif op == "/":
            result = int(x / y) if integers else x / y
        else:
            result = int(math.fmod(x, y)) if integers else math.fmod(x, y)
    except (OverflowError, ValueError):
        return ERROR
    return ClassAdValue(ValueType.INTEGER if isinstance(result, int) else ValueType.REAL, result)


def reference_logical(op: str, a: ClassAdValue, b: ClassAdValue) -> ClassAdValue:
    """``&&``/``||`` as the parent commit spelled them out: numbers coerce
    (nonzero is true), strings are ERROR; the dominant value wins, then
    ERROR, then UNDEFINED."""

    def coerce(v: ClassAdValue) -> ClassAdValue:
        if v.type is ValueType.BOOLEAN or v.is_exceptional:
            return v
        if v.is_number:
            return TRUE if v.payload != 0 else FALSE
        return ERROR

    a, b = coerce(a), coerce(b)
    dominant = op == "||"  # TRUE decides ||, FALSE decides &&
    for v in (a, b):
        if v.type is ValueType.BOOLEAN and v.payload is dominant:
            return TRUE if dominant else FALSE
    if a.is_error or b.is_error:
        return ERROR
    if a.is_undefined or b.is_undefined:
        return UNDEFINED
    return FALSE if dominant else TRUE


COMPARISONS = ["==", "!=", "<", "<=", ">", ">="]

REFERENCES = {
    **dict.fromkeys(COMPARISONS, reference_compare),
    **dict.fromkeys(["+", "-", "*", "/", "%"], reference_arith),
    **dict.fromkeys(["&&", "||"], reference_logical),
}


@pytest.mark.parametrize("op", COMPARISONS)
def test_every_comparison_over_every_pair_of_types(op):
    assert_agrees_over_every_pair_of_types(op)


@pytest.mark.parametrize("op", [op for op in REFERENCES if op not in COMPARISONS])
def test_every_operator_over_every_pair_of_types(op):
    assert_agrees_over_every_pair_of_types(op)


def assert_agrees_over_every_pair_of_types(op: str) -> None:
    """Mixed-type, exceptional and like-typed operands, exhaustively:
    interpreter, closure and the spelled-out reference all agree, down to
    the payload's Python type and the sign of a zero."""
    for left, right in itertools.product(MIXED_OPERANDS, repeat=2):
        a, b = parse(left).eval(EvalContext()), parse(right).eval(EvalContext())
        expected = REFERENCES[op](op, a, b)
        expr = parse(f"{left} {op} {right}")
        for got in (expr.eval(EvalContext()), compile_expr(expr)(EvalContext())):
            assert (got.type, type(got.payload), repr(got.payload)) == (
                expected.type, type(expected.payload), repr(expected.payload)
            ), f"{left} {op} {right}"


def test_mixed_case_names_read_the_stored_attribute():
    job = ClassAd({"memory_needed": 64})
    job.set_expr("Requirements", "TARGET.Memory >= MY.Memory_Needed")
    machine = ClassAd({"Memory": 128})
    for name in ("requirements", "Requirements", "REQUIREMENTS"):
        assert job.eval(name, target=machine).payload is True
        assert job.value(name, target=machine) is True
    assert job.eval("Missing").is_undefined


# -- the closure lives on the node: shared, never stale, never leaking ----------

def test_an_ad_keeps_no_closure_table():
    ad = ClassAd({"x": 1})
    ad.set_expr("total", "x + 1")
    assert ad.value("total") == 2
    assert not hasattr(ad, "_compiled")
    assert compile_expr(ad.lookup("total")) is compile_expr(ad.lookup("total"))


def test_literals_carry_nothing():
    """An ad's plain values are most of its nodes; they stay bare."""
    ad = ClassAd({"x": 1, "name": "m"})
    ad.set_expr("total", "x + 1")
    assert ad.value("x") == 1 and ad.value("total") == 2
    node = ad.lookup("x")
    hash(node), node.external_refs(), compile_expr(node)
    assert set(vars(node)) == {"value"}


def test_ads_sharing_one_node_evaluate_independently():
    shared = parse("MY.x * 2 + TARGET.y")
    first, second = ClassAd({"x": 1}), ClassAd({"x": 10})
    first["total"] = shared
    second["total"] = shared
    assert first.lookup("total") is second.lookup("total")
    here, there = ClassAd({"y": 5}), ClassAd({"y": 7})
    for _ in range(2):  # the second pass runs the cached closure
        assert first.value("total", target=here) == 7
        assert second.value("total", target=there) == 27
        assert first.value("total", target=there) == 9
    second["x"] = 100  # an edit of one holder is invisible to the other
    assert second.value("total", target=here) == 205
    assert first.value("total", target=here) == 7


def test_circular_reference_guard_holds_under_a_shared_closure():
    """One ad closes a cycle through the shared nodes, the other does
    not; the cycle is an ERROR in the first and costs the second nothing,
    whichever ran (and cached the closures) first."""
    a_of_b, b_of_a = parse("b + 1"), parse("a + 1")
    looped, sound = ClassAd(), ClassAd({"b": 1})
    looped["a"] = sound["a"] = a_of_b
    looped["b"] = b_of_a
    for _ in range(2):
        assert looped.eval("a").is_error
        assert sound.value("a") == 2
    assert looped.eval("a").type is a_of_b.eval(EvalContext(my=looped)).type


def test_depth_guard_holds_under_a_shared_closure():
    """The same chain of nodes, one link deeper than MAX_DEPTH in one ad
    and cut short in the other."""
    links = EvalContext.MAX_DEPTH + 2
    deep, shallow = ClassAd(), ClassAd()
    for i in range(links):
        step = parse(f"a{i + 1} + 0")
        deep[f"a{i}"] = shallow[f"a{i}"] = step
    deep[f"a{links}"] = 1
    shallow["a3"] = 1  # rebinding one name cuts the chain for this ad only
    for _ in range(2):
        assert deep.eval("a0").is_error
        assert shallow.value("a0") == 1
    assert deep.eval("a0").type is deep.lookup("a0").eval(EvalContext(my=deep)).type


def test_evaluated_nodes_and_ads_survive_pickle_and_deepcopy():
    """Closures are local functions: the cache stays out of the state."""
    ad = ClassAd({"x": 4})
    ad.set_expr("total", "ifThenElse(x > 3, x * 2, 0)")
    assert ad.value("total") == 8
    node = ad.lookup("total")
    hash(node), node.external_refs()
    assert {"_fn", "_hash", "_refs"} <= set(vars(node))
    for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
        assert clone == node and hash(clone) == hash(node)
        assert set(vars(clone)) >= {"name", "args"} and "_fn" not in vars(clone)
        assert compile_expr(clone)(EvalContext(my=ad)).payload == 8
    for clone in (pickle.loads(pickle.dumps(ad)), copy.deepcopy(ad)):
        assert clone.render() == ad.render() and clone is not ad
        assert clone.value("total") == 8
    frozen = pickle.loads(pickle.dumps(ad.freeze()))
    assert frozen.frozen and frozen.value("total") == 8


def test_equal_trees_built_separately_hash_alike():
    """The cached hash is the structural one, so dictionaries keyed on a
    node (the matchmaker's rank orders, the parser's LRU callers) still
    find an equal tree that is a different object."""
    source = "TARGET.memory >= 64 && (TARGET.cpuspeed * 2 > MY.needed || strcat(arch) == \"x\")"
    one, other = parse_uncached(source), parse_uncached(source)
    assert one is not other and one == other
    assert hash(one) == hash(other)
    hash(one)  # now cached on one side only
    assert hash(one) == hash(other) and {one: "order"}[other] == "order"
    assert BinOp("+", Literal(ClassAdValue.of(1)), one) != BinOp("+", Literal(ClassAdValue.of(2)), one)
    assert parse(source) is parse(source)


def test_lower_is_the_uncached_lowering():
    node = parse("x + 1")
    assert compile_expr(node) is compile_expr(node)
    fresh = lower(node)
    assert fresh is not compile_expr(node)
    ctx = EvalContext(my=ClassAd({"x": 1}))
    assert fresh(ctx).payload == compile_expr(node)(ctx).payload == 2
