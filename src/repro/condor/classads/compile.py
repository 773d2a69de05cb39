"""Compile-once lowering of ClassAd expression trees to Python closures.

The interpreter in :mod:`repro.condor.classads.expr` re-walks the AST on
every evaluation.  That is fine for a handful of ads, but the matchmaker
evaluates the *same* ``Requirements``/``Rank`` expressions against
thousands of candidates per negotiation cycle.  :func:`compile_expr`
lowers an :class:`~repro.condor.classads.expr.Expr` tree into a nest of
plain Python closures exactly once; each call then runs straight-line
code with no ``isinstance`` dispatch and no attribute walks.

The compiled form is semantically *identical* to ``Expr.eval`` -- same
tri-state UNDEFINED/ERROR propagation, same short-circuit rules, same
circular-reference and depth guards -- which
``tests/condor/test_classads_compile.py`` pins with property tests.
Closures are pure functions of the (immutable, frozen-dataclass) AST, so
each is kept on the node it was lowered from and shared by every ad that
holds that node -- a thousand job ads built from one template lower
their ``Requirements`` once.  An ad has nothing to invalidate: a
reassigned attribute is bound to a *different* node, which carries its
own closure.  Ads reach a closure only through the ``(my, target)`` of
the :class:`EvalContext` it is called with, so sharing leaks nothing.

Cross-ad attribute references look the referenced attribute up at call
time and run *its* node's closure, so a machine ad's ``Requirements`` is
compiled once and reused across every job it is matched against, no
matter which side of the match initiates the evaluation.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.condor.classads.expr import (
    COMPARISONS,
    AttrRef,
    BinOp,
    ClassAdValue,
    EvalContext,
    Expr,
    FuncCall,
    FUNCTIONS,
    Literal,
    UnaryOp,
    V_ERROR,
    V_FALSE,
    V_TRUE,
    V_UNDEFINED,
    ValueType,
    _arith,
    _compare,
    _meta_equal,
)

__all__ = ["CompiledExpr", "compile_expr", "lower"]

#: A compiled expression: ``fn(ctx) -> ClassAdValue``.
CompiledExpr = Callable[[EvalContext], ClassAdValue]

_BOOLEAN = ValueType.BOOLEAN
_ERROR = ValueType.ERROR
_INTEGER = ValueType.INTEGER
_REAL = ValueType.REAL
_STRING = ValueType.STRING
_MAX_DEPTH = EvalContext.MAX_DEPTH
_ARITH_FAST = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _follow(ctx: EvalContext, ad, name: str, expr: Expr) -> ClassAdValue:
    """*ad*'s non-literal attribute *name* (bound to *expr*), one level deeper."""
    fn = compile_expr(expr)
    in_progress = ctx._in_progress
    key = (id(ad), name)
    if key in in_progress:
        return V_ERROR  # circular reference
    in_progress.add(key)
    ctx.depth += 1
    try:
        # Unqualified references inside the referenced ad resolve in that
        # ad's own frame.
        if ad is ctx.target:
            sub = EvalContext(my=ctx.target, target=ctx.my)
            sub._in_progress = in_progress
            sub.depth = ctx.depth
            return fn(sub)
        return fn(ctx)
    finally:
        ctx.depth -= 1
        in_progress.discard(key)


def _compile_attr_ref(node: AttrRef) -> CompiledExpr:
    # The parser stores the name lowercase, the ad its keys: read the
    # ad's table directly.  A literal evaluates nothing further, so it can
    # neither be in progress nor deepen the chain.
    name = node.name
    mine = node.qualifier != "target"
    theirs = node.qualifier != "my"

    def run(ctx: EvalContext) -> ClassAdValue:
        if ctx.depth >= _MAX_DEPTH:
            return V_ERROR
        if mine and ctx.my is not None:
            expr = ctx.my._attrs.get(name)
            if expr is not None:
                return expr.value if type(expr) is Literal else _follow(ctx, ctx.my, name, expr)
        if theirs and ctx.target is not None:
            expr = ctx.target._attrs.get(name)
            if expr is not None:
                return expr.value if type(expr) is Literal else _follow(ctx, ctx.target, name, expr)
        return V_UNDEFINED

    return run


def _compile_unary(node: UnaryOp) -> CompiledExpr:
    operand = compile_expr(node.operand)
    op = node.op

    if op == "!":
        def run_not(ctx: EvalContext) -> ClassAdValue:
            val = operand(ctx).as_bool()
            if val.is_exceptional:
                return val
            return V_FALSE if val.payload else V_TRUE

        return run_not

    if op == "-":
        def run_neg(ctx: EvalContext) -> ClassAdValue:
            val = operand(ctx)
            if val.is_exceptional:
                return val
            if not val.is_number:
                return V_ERROR
            return ClassAdValue.of(-val.payload)

        return run_neg

    def run_pos(ctx: EvalContext) -> ClassAdValue:
        val = operand(ctx)
        if val.is_exceptional:
            return val
        if not val.is_number:
            return V_ERROR
        return val

    return run_pos


def _compile_binop(node: BinOp) -> CompiledExpr:
    op = node.op
    left = compile_expr(node.left)
    right = compile_expr(node.right)

    if op == "&&" or op == "||":
        # FALSE decides && and TRUE decides ||; then ERROR; then UNDEFINED.
        # Past the short-circuit, *a* is the other boolean or exceptional.
        falsy_decides = op == "&&"
        decided, undecided = (V_FALSE, V_TRUE) if falsy_decides else (V_TRUE, V_FALSE)

        def run_logical(ctx: EvalContext) -> ClassAdValue:
            a = left(ctx)
            if a.type is not _BOOLEAN:
                a = a.as_bool()
            if a.type is _BOOLEAN and (not a.payload) is falsy_decides:
                return decided
            b = right(ctx)
            if b.type is not _BOOLEAN:
                b = b.as_bool()
            if b.type is _BOOLEAN:
                if (not b.payload) is falsy_decides:
                    return decided
                if a.type is _BOOLEAN:
                    return undecided
            return V_ERROR if a.type is _ERROR or b.type is _ERROR else V_UNDEFINED

        return run_logical

    if op == "=?=":
        def run_meta_eq(ctx: EvalContext) -> ClassAdValue:
            return V_TRUE if _meta_equal(left(ctx), right(ctx)) else V_FALSE

        return run_meta_eq

    if op == "=!=":
        def run_meta_ne(ctx: EvalContext) -> ClassAdValue:
            return V_FALSE if _meta_equal(left(ctx), right(ctx)) else V_TRUE

        return run_meta_ne

    # Typed fast paths: like-typed numbers, strings (case-insensitive) and
    # booleans decide here; every other pair -- UNDEFINED, ERROR, mixed
    # types -- takes the interpreter's own rules.
    test = COMPARISONS.get(op)
    if test is not None:
        def run_compare(ctx: EvalContext) -> ClassAdValue:
            a = left(ctx)
            b = right(ctx)
            ta, tb = a.type, b.type
            if ta is _INTEGER or ta is _REAL:
                if tb is _INTEGER or tb is _REAL:
                    return V_TRUE if test(a.payload, b.payload) else V_FALSE
            elif ta is tb:
                if ta is _STRING:
                    return V_TRUE if test(a.payload.lower(), b.payload.lower()) else V_FALSE
                if ta is _BOOLEAN:
                    return V_TRUE if test(a.payload, b.payload) else V_FALSE
            return _compare(test, a, b)

        return run_compare

    # ``+ - *`` over two integers (exact) or two reals (IEEE, never
    # raises); ``/`` truncation, ``%``, string ``+`` and int-real mixes,
    # which can overflow, stay with ``_arith``.
    fast = _ARITH_FAST.get(op)

    def run_arith(ctx: EvalContext) -> ClassAdValue:
        a = left(ctx)
        b = right(ctx)
        ta = a.type
        if fast is not None and ta is b.type and (ta is _INTEGER or ta is _REAL):
            return ClassAdValue(ta, fast(a.payload, b.payload))
        return _arith(op, a, b)

    return run_arith


def _compile_func(node: FuncCall) -> CompiledExpr:
    fn = FUNCTIONS.get(node.name)
    if fn is None:
        return lambda ctx: V_ERROR
    arg_fns = tuple(compile_expr(arg) for arg in node.args)

    def run(ctx: EvalContext) -> ClassAdValue:
        return fn([arg(ctx) for arg in arg_fns])

    return run


def compile_expr(node: Expr) -> CompiledExpr:
    """*node*'s closure, lowered on first use and kept on the node --
    except on a literal, whose value ``ClassAd.eval`` and attribute
    references read directly: an ad's literals stay as small as they are.
    """
    if type(node) is Literal:
        return lower(node)
    fn = node.__dict__.get("_fn")
    if fn is None:
        fn = node.__dict__["_fn"] = lower(node)
    return fn


def lower(node: Expr) -> CompiledExpr:
    """Lower *node* to a closure with semantics identical to ``node.eval``
    (uncached at this node; sub-expressions go through :func:`compile_expr`)."""
    if isinstance(node, Literal):
        value = node.value
        return lambda ctx: value
    if isinstance(node, AttrRef):
        return _compile_attr_ref(node)
    if isinstance(node, BinOp):
        return _compile_binop(node)
    if isinstance(node, UnaryOp):
        return _compile_unary(node)
    if isinstance(node, FuncCall):
        return _compile_func(node)
    # Unknown Expr subclass (tests may define their own): interpret.
    return node.eval
