"""The ClassAd language (paper §2.1).

    "The requests and requirements of both parties are expressed in a
    unique language known as ClassAds, and forwarded to a central
    matchmaker."

A working subset of the classified-advertisement language of Raman's
matchmaking framework: typed values with UNDEFINED/ERROR tri-state
semantics, attribute references across two ads (``MY.``/``TARGET.``),
arithmetic/comparison/boolean operators including the meta-equality
``=?=``/``=!=``, builtin functions, and symmetric two-ad matching on
``Requirements`` with ``Rank`` ordering.
"""

from repro.condor.classads.ad import ClassAd, FrozenAdError, match, rank, symmetric_match
from repro.condor.classads.compile import compile_expr
from repro.condor.classads.expr import (
    ClassAdValue,
    EvalContext,
    Expr,
    V_ERROR,
    V_FALSE,
    V_TRUE,
    V_UNDEFINED,
)
from repro.condor.classads.lexer import LexError, tokenize
from repro.condor.classads.parser import ParseError, parse

__all__ = [
    "ClassAd",
    "ClassAdValue",
    "EvalContext",
    "Expr",
    "FrozenAdError",
    "LexError",
    "ParseError",
    "V_ERROR",
    "V_FALSE",
    "V_TRUE",
    "V_UNDEFINED",
    "compile_expr",
    "match",
    "parse",
    "rank",
    "symmetric_match",
    "tokenize",
]
