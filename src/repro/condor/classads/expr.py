"""ClassAd values and expression AST with tri-state evaluation semantics.

ClassAd evaluation is total: no expression ever raises.  Conditions that
would be exceptions in other languages evaluate to the ``ERROR`` value,
and references to absent attributes evaluate to ``UNDEFINED``.  These two
values then propagate through operators under the classic ClassAd rules,
which is exactly what makes the language safe for matchmaking between
mutually-ignorant parties: a malformed ad poisons only its own match.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Any

__all__ = [
    "AttrRef",
    "BinOp",
    "ClassAdValue",
    "EvalContext",
    "Expr",
    "FuncCall",
    "Literal",
    "UnaryOp",
    "V_ERROR",
    "V_FALSE",
    "V_TRUE",
    "V_UNDEFINED",
    "ValueType",
]


class ValueType(enum.Enum):
    UNDEFINED = "undefined"
    ERROR = "error"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    STRING = "string"


@dataclass(frozen=True)
class ClassAdValue:
    """A typed ClassAd value."""

    type: ValueType
    payload: Any = None

    # -- constructors ----------------------------------------------------
    @staticmethod
    def of(py: Any) -> "ClassAdValue":
        """Lift a Python value into a ClassAd value."""
        if isinstance(py, ClassAdValue):
            return py
        if isinstance(py, bool):
            return V_TRUE if py else V_FALSE
        if isinstance(py, int):
            return ClassAdValue(ValueType.INTEGER, py)
        if isinstance(py, float):
            return ClassAdValue(ValueType.REAL, py)
        if isinstance(py, str):
            return ClassAdValue(ValueType.STRING, py)
        return V_ERROR

    # -- predicates ----------------------------------------------------------
    @property
    def is_undefined(self) -> bool:
        return self.type is ValueType.UNDEFINED

    @property
    def is_error(self) -> bool:
        return self.type is ValueType.ERROR

    @property
    def is_number(self) -> bool:
        return self.type in (ValueType.INTEGER, ValueType.REAL)

    @property
    def is_exceptional(self) -> bool:
        return self.type in (ValueType.UNDEFINED, ValueType.ERROR)

    # -- coercions --------------------------------------------------------
    def as_bool(self) -> "ClassAdValue":
        """Coerce to boolean (numbers: nonzero is true); else ERROR."""
        if self.type is ValueType.BOOLEAN:
            return self
        if self.is_number:
            return V_TRUE if self.payload != 0 else V_FALSE
        if self.is_exceptional:
            return self
        return V_ERROR

    def as_python(self) -> Any:
        """The underlying Python payload (None for UNDEFINED/ERROR)."""
        return self.payload

    def __str__(self) -> str:
        if self.type is ValueType.UNDEFINED:
            return "UNDEFINED"
        if self.type is ValueType.ERROR:
            return "ERROR"
        if self.type is ValueType.BOOLEAN:
            return "TRUE" if self.payload else "FALSE"
        if self.type is ValueType.STRING:
            return '"' + str(self.payload) + '"'
        return str(self.payload)


V_UNDEFINED = ClassAdValue(ValueType.UNDEFINED)
V_ERROR = ClassAdValue(ValueType.ERROR)
V_TRUE = ClassAdValue(ValueType.BOOLEAN, True)
V_FALSE = ClassAdValue(ValueType.BOOLEAN, False)


class EvalContext:
    """Evaluation context: the ``MY`` ad, the ``TARGET`` ad, and a guard
    against circular attribute references."""

    MAX_DEPTH = 64

    def __init__(self, my=None, target=None):
        self.my = my
        self.target = target
        self._in_progress: set[tuple[int, str]] = set()
        self.depth = 0

    def flipped(self) -> "EvalContext":
        """The same context from the other party's point of view."""
        return EvalContext(my=self.target, target=self.my)


_NO_REFS: frozenset[str] = frozenset()


class Expr:
    """Base class for expression nodes.

    Nodes are immutable values, so what is derived from one -- its
    reference set, its hash, its compiled closure (:mod:`.compile`) --
    is computed at most once and kept on the node, in ``_``-prefixed
    ``__dict__`` entries that equality ignores and pickling drops.
    """

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        raise NotImplementedError

    def external_refs(self) -> frozenset[str]:
        """Names of attributes this expression reads (unqualified, lowered)."""
        refs = self.__dict__.get("_refs")
        if refs is None:
            refs = self.__dict__["_refs"] = self._refs()
        return refs

    def _refs(self) -> frozenset[str]:
        return _NO_REFS

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k[0] != "_"}


def _hash_once(cls):
    """Keep a recursive node's structural hash on the node: hashing a
    tree costs one level, because every child already knows its own."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = structural(self)
        return value

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class Literal(Expr):
    value: ClassAdValue

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        return self.value

    def external_refs(self) -> frozenset[str]:
        return _NO_REFS  # and nothing is kept on the node

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AttrRef(Expr):
    """An attribute reference, optionally qualified with MY/TARGET."""

    name: str  # stored lowercase; ClassAds are case-insensitive
    qualifier: str = ""  # "", "my", or "target"

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        if ctx.depth >= EvalContext.MAX_DEPTH:
            return V_ERROR
        if self.qualifier == "my":
            ads = [ctx.my]
        elif self.qualifier == "target":
            ads = [ctx.target]
        else:
            ads = [ctx.my, ctx.target]
        for ad in ads:
            if ad is None:
                continue
            expr = ad.lookup(self.name)
            if expr is None:
                continue
            key = (id(ad), self.name)
            if key in ctx._in_progress:
                return V_ERROR  # circular reference
            ctx._in_progress.add(key)
            ctx.depth += 1
            try:
                # Unqualified references inside the referenced ad resolve
                # in that ad's own frame.
                if ad is ctx.target:
                    sub = EvalContext(my=ctx.target, target=ctx.my)
                    sub._in_progress = ctx._in_progress
                    sub.depth = ctx.depth
                    return expr.eval(sub)
                return expr.eval(ctx)
            finally:
                ctx.depth -= 1
                ctx._in_progress.discard(key)
        return V_UNDEFINED

    def _refs(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        prefix = f"{self.qualifier.upper()}." if self.qualifier else ""
        return prefix + self.name


@_hash_once
@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-", "+", "!"
    operand: Expr

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        val = self.operand.eval(ctx)
        if self.op == "!":
            val = val.as_bool()
            if val.is_exceptional:
                return val
            return V_FALSE if val.payload else V_TRUE
        if val.is_exceptional:
            return val
        if not val.is_number:
            return V_ERROR
        if self.op == "-":
            return ClassAdValue.of(-val.payload)
        return val

    def _refs(self) -> frozenset[str]:
        return self.operand.external_refs()

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


def _meta_equal(a: ClassAdValue, b: ClassAdValue) -> bool:
    """=?= semantics: same type AND same value; never UNDEFINED/ERROR."""
    if a.type is not b.type:
        # ints and reals with equal value are still meta-equal numbers
        if a.is_number and b.is_number:
            return float(a.payload) == float(b.payload)
        return False
    if a.type in (ValueType.UNDEFINED, ValueType.ERROR):
        return True
    return a.payload == b.payload


#: Comparison operator -> the Python function that decides it.
COMPARISONS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compare(test, a: ClassAdValue, b: ClassAdValue) -> ClassAdValue:
    """*test* (a :data:`COMPARISONS` value) over two like-typed operands."""
    if a.is_error or b.is_error:
        return V_ERROR
    if a.is_undefined or b.is_undefined:
        return V_UNDEFINED
    if a.is_number and b.is_number:
        x, y = a.payload, b.payload
    elif a.type is ValueType.STRING and b.type is ValueType.STRING:
        # == on strings is case-insensitive in classic ClassAds
        x, y = a.payload.lower(), b.payload.lower()
    elif a.type is ValueType.BOOLEAN and b.type is ValueType.BOOLEAN:
        x, y = a.payload, b.payload
    else:
        return V_ERROR
    return V_TRUE if test(x, y) else V_FALSE


def _arith(op: str, a: ClassAdValue, b: ClassAdValue) -> ClassAdValue:
    if a.is_error or b.is_error:
        return V_ERROR
    if a.is_undefined or b.is_undefined:
        return V_UNDEFINED
    if op == "+" and a.type is ValueType.STRING and b.type is ValueType.STRING:
        return ClassAdValue.of(a.payload + b.payload)
    if not (a.is_number and b.is_number):
        return V_ERROR
    x, y = a.payload, b.payload
    try:
        if op == "+":
            return ClassAdValue.of(x + y)
        if op == "-":
            return ClassAdValue.of(x - y)
        if op == "*":
            return ClassAdValue.of(x * y)
        if op == "/":
            if isinstance(x, int) and isinstance(y, int):
                if y == 0:
                    return V_ERROR
                return ClassAdValue.of(int(x / y))  # C-style truncation
            if y == 0:
                return V_ERROR
            return ClassAdValue.of(x / y)
        if op == "%":
            if y == 0:
                return V_ERROR
            if isinstance(x, int) and isinstance(y, int):
                return ClassAdValue.of(int(math.fmod(x, y)))
            return ClassAdValue.of(math.fmod(x, y))
    except (OverflowError, ValueError):
        return V_ERROR
    return V_ERROR


@_hash_once
@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        op = self.op
        if op in ("&&", "||"):
            return self._logical(ctx)
        a = self.left.eval(ctx)
        b = self.right.eval(ctx)
        if op == "=?=":
            return V_TRUE if _meta_equal(a, b) else V_FALSE
        if op == "=!=":
            return V_FALSE if _meta_equal(a, b) else V_TRUE
        test = COMPARISONS.get(op)
        if test is not None:
            return _compare(test, a, b)
        return _arith(op, a, b)

    def _logical(self, ctx: EvalContext) -> ClassAdValue:
        a = self.left.eval(ctx).as_bool()
        # Short-circuit where the answer is already forced.
        if self.op == "&&" and a.type is ValueType.BOOLEAN and not a.payload:
            return V_FALSE
        if self.op == "||" and a.type is ValueType.BOOLEAN and a.payload:
            return V_TRUE
        b = self.right.eval(ctx).as_bool()
        if self.op == "&&":
            # FALSE dominates; then ERROR; then UNDEFINED.
            if b.type is ValueType.BOOLEAN and not b.payload:
                return V_FALSE
            if a.is_error or b.is_error:
                return V_ERROR
            if a.is_undefined or b.is_undefined:
                return V_UNDEFINED
            return V_TRUE
        # "||": TRUE dominates; then ERROR; then UNDEFINED.
        if b.type is ValueType.BOOLEAN and b.payload:
            return V_TRUE
        if a.is_error or b.is_error:
            return V_ERROR
        if a.is_undefined or b.is_undefined:
            return V_UNDEFINED
        return V_FALSE

    def _refs(self) -> frozenset[str]:
        return self.left.external_refs() | self.right.external_refs()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _fn_if_then_else(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 3:
        return V_ERROR
    cond = args[0].as_bool()
    if cond.is_exceptional:
        return cond
    return args[1] if cond.payload else args[2]


def _numeric_unary(fn):
    def call(args: list[ClassAdValue]) -> ClassAdValue:
        if len(args) != 1:
            return V_ERROR
        v = args[0]
        if v.is_exceptional:
            return v
        if not v.is_number:
            return V_ERROR
        return ClassAdValue.of(fn(v.payload))

    return call


def _string_unary(fn):
    def call(args: list[ClassAdValue]) -> ClassAdValue:
        if len(args) != 1:
            return V_ERROR
        v = args[0]
        if v.is_exceptional:
            return v
        if v.type is not ValueType.STRING:
            return V_ERROR
        return ClassAdValue.of(fn(v.payload))

    return call


def _fn_strcmp(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 2:
        return V_ERROR
    a, b = args
    for v in (a, b):
        if v.is_exceptional:
            return v
        if v.type is not ValueType.STRING:
            return V_ERROR
    x, y = a.payload, b.payload
    return ClassAdValue.of(0 if x == y else (-1 if x < y else 1))


def _fn_string_list_member(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 2:
        return V_ERROR
    item, lst = args
    for v in (item, lst):
        if v.is_exceptional:
            return v
        if v.type is not ValueType.STRING:
            return V_ERROR
    members = [m.strip().lower() for m in lst.payload.split(",")]
    return V_TRUE if item.payload.lower() in members else V_FALSE


def _fn_int(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 1:
        return V_ERROR
    v = args[0]
    if v.is_exceptional:
        return v
    try:
        if v.type is ValueType.STRING:
            return ClassAdValue.of(int(float(v.payload)))
        if v.is_number:
            return ClassAdValue.of(int(v.payload))
        if v.type is ValueType.BOOLEAN:
            return ClassAdValue.of(int(v.payload))
    except ValueError:
        return V_ERROR
    return V_ERROR


def _fn_real(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 1:
        return V_ERROR
    v = args[0]
    if v.is_exceptional:
        return v
    try:
        if v.type is ValueType.STRING:
            return ClassAdValue.of(float(v.payload))
        if v.is_number:
            return ClassAdValue.of(float(v.payload))
        if v.type is ValueType.BOOLEAN:
            return ClassAdValue.of(float(v.payload))
    except ValueError:
        return V_ERROR
    return V_ERROR


def _fn_strcat(args: list[ClassAdValue]) -> ClassAdValue:
    parts = []
    for v in args:
        if v.is_exceptional:
            return v
        converted = _fn_string([v])
        if converted.is_error:
            return V_ERROR
        parts.append(converted.payload)
    return ClassAdValue.of("".join(parts))


def _fn_substr(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) not in (2, 3):
        return V_ERROR
    s, start = args[0], args[1]
    for v in args:
        if v.is_exceptional:
            return v
    if s.type is not ValueType.STRING or start.type is not ValueType.INTEGER:
        return V_ERROR
    begin = start.payload
    if begin < 0:
        begin = max(0, len(s.payload) + begin)
    if len(args) == 3:
        if args[2].type is not ValueType.INTEGER:
            return V_ERROR
        length = args[2].payload
        if length < 0:
            return ClassAdValue.of(s.payload[begin:length])
        return ClassAdValue.of(s.payload[begin : begin + length])
    return ClassAdValue.of(s.payload[begin:])


def _extremum(pick):
    def call(args: list[ClassAdValue]) -> ClassAdValue:
        if not args:
            return V_ERROR
        best = None
        for v in args:
            if v.is_exceptional:
                return v
            if not v.is_number:
                return V_ERROR
            if best is None or pick(v.payload, best):
                best = v.payload
        return ClassAdValue.of(best)

    return call


def _fn_pow(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 2:
        return V_ERROR
    base, exponent = args
    for v in args:
        if v.is_exceptional:
            return v
        if not v.is_number:
            return V_ERROR
    try:
        result = base.payload ** exponent.payload
    except (OverflowError, ZeroDivisionError, ValueError):
        return V_ERROR
    if isinstance(result, complex):
        return V_ERROR
    return ClassAdValue.of(result)


def _fn_string(args: list[ClassAdValue]) -> ClassAdValue:
    if len(args) != 1:
        return V_ERROR
    v = args[0]
    if v.is_exceptional:
        return v
    if v.type is ValueType.STRING:
        return v
    if v.type is ValueType.BOOLEAN:
        return ClassAdValue.of("TRUE" if v.payload else "FALSE")
    return ClassAdValue.of(str(v.payload))


FUNCTIONS = {
    "ifthenelse": _fn_if_then_else,
    "isundefined": lambda args: (
        V_ERROR if len(args) != 1 else (V_TRUE if args[0].is_undefined else V_FALSE)
    ),
    "iserror": lambda args: (
        V_ERROR if len(args) != 1 else (V_TRUE if args[0].is_error else V_FALSE)
    ),
    "floor": _numeric_unary(lambda x: int(math.floor(x))),
    "ceiling": _numeric_unary(lambda x: int(math.ceil(x))),
    "round": _numeric_unary(lambda x: int(round(x))),
    "abs": _numeric_unary(abs),
    "toupper": _string_unary(str.upper),
    "tolower": _string_unary(str.lower),
    "size": _string_unary(len),
    "strcmp": _fn_strcmp,
    "stringlistmember": _fn_string_list_member,
    "int": _fn_int,
    "real": _fn_real,
    "string": _fn_string,
    "strcat": _fn_strcat,
    "substr": _fn_substr,
    "min": _extremum(lambda a, b: a < b),
    "max": _extremum(lambda a, b: a > b),
    "pow": _fn_pow,
}


@_hash_once
@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # stored lowercase
    args: tuple[Expr, ...]

    def eval(self, ctx: EvalContext) -> ClassAdValue:
        fn = FUNCTIONS.get(self.name)
        if fn is None:
            return V_ERROR
        return fn([arg.eval(ctx) for arg in self.args])

    def _refs(self) -> frozenset[str]:
        return _NO_REFS.union(*(arg.external_refs() for arg in self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"
