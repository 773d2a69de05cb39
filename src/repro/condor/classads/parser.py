"""Recursive-descent parser for ClassAd expressions.

Precedence, loosest to tightest::

    ||
    &&
    == != < <= > >= =?= =!=
    + -
    * / %
    unary - + !
    atoms: literals, names, MY.x, TARGET.x, f(args), ( expr )

:func:`parse` interns: one shared tree per distinct source string.  The
trees are frozen dataclasses, so sharing one is as safe as sharing the
closures compiled from it (DESIGN §3.3a), and a daemon that re-sends the
same ``Requirements`` text every interval pays for one parse, not one
per send.  :func:`parse_uncached` is the parser itself.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter_ns

from repro.condor.classads.expr import (
    AttrRef,
    BinOp,
    ClassAdValue,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
    V_ERROR,
    V_FALSE,
    V_TRUE,
    V_UNDEFINED,
)
from repro.condor.classads.lexer import Token, tokenize

__all__ = ["INTERN_MAX", "ParseError", "parse", "parse_uncached"]

#: Wall-time hook set by ``repro.obs.profile.install_wall``.
WALL_PROFILE = None

#: Distinct sources kept interned, least recently used dropped first.
#: A pool has a handful of Requirements/Rank texts per job shape and
#: avoided-site set; the bound only matters to a caller that generates
#: sources without end (a fuzzer), whose memory it caps.
INTERN_MAX = 4096

_KEYWORD_LITERALS = {
    "true": Literal(V_TRUE),
    "false": Literal(V_FALSE),
    "undefined": Literal(V_UNDEFINED),
    "error": Literal(V_ERROR),
}

_QUALIFIERS = {"my", "target", "other"}


class ParseError(Exception):
    """Structurally invalid ClassAd expression."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind} at {tok.pos}, found {tok.kind} {tok.text!r}")
        return self.advance()

    def match_op(self, *ops: str) -> Token | None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ops:
            return self.advance()
        return None

    # -- grammar ---------------------------------------------------------
    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        node = self.parse_and()
        while self.match_op("||"):
            node = BinOp("||", node, self.parse_and())
        return node

    def parse_and(self) -> Expr:
        node = self.parse_comparison()
        while self.match_op("&&"):
            node = BinOp("&&", node, self.parse_comparison())
        return node

    def parse_comparison(self) -> Expr:
        node = self.parse_additive()
        while True:
            tok = self.match_op("==", "!=", "<=", ">=", "<", ">", "=?=", "=!=")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self.parse_additive())

    def parse_additive(self) -> Expr:
        node = self.parse_multiplicative()
        while True:
            tok = self.match_op("+", "-")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self.parse_multiplicative())

    def parse_multiplicative(self) -> Expr:
        node = self.parse_unary()
        while True:
            tok = self.match_op("*", "/", "%")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self.parse_unary())

    def parse_unary(self) -> Expr:
        tok = self.match_op("-", "+", "!")
        if tok is not None:
            return UnaryOp(tok.text, self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Literal(ClassAdValue.of(int(tok.text)))
        if tok.kind == "REAL":
            self.advance()
            return Literal(ClassAdValue.of(float(tok.text)))
        if tok.kind == "STRING":
            self.advance()
            return Literal(ClassAdValue.of(tok.text))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expression()
            self.expect("RPAREN")
            return node
        if tok.kind == "NAME":
            return self.parse_name()
        raise ParseError(f"unexpected token {tok.kind} {tok.text!r} at {tok.pos}")

    def parse_name(self) -> Expr:
        tok = self.expect("NAME")
        lowered = tok.text.lower()
        if lowered in _KEYWORD_LITERALS:
            return _KEYWORD_LITERALS[lowered]
        # MY.attr / TARGET.attr / OTHER.attr
        if lowered in _QUALIFIERS and self.peek().kind == "DOT":
            self.advance()  # the dot
            attr = self.expect("NAME")
            qualifier = "target" if lowered == "other" else lowered
            return AttrRef(attr.text.lower(), qualifier)
        # function call
        if self.peek().kind == "LPAREN":
            self.advance()
            args: list[Expr] = []
            if self.peek().kind != "RPAREN":
                args.append(self.parse_expression())
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.parse_expression())
            self.expect("RPAREN")
            return FuncCall(lowered, tuple(args))
        return AttrRef(lowered)


def parse(source: str) -> Expr:
    """Parse ClassAd expression *source* into an :class:`Expr`.

    Equal sources return the same (immutable) tree.  Raises
    :class:`ParseError` (or :class:`~repro.condor.classads.lexer.LexError`)
    on malformed input, on every call: failures are never interned.
    """
    wall = WALL_PROFILE
    if wall is None:
        return _intern(source)
    t0 = perf_counter_ns()
    try:
        return _intern(source)
    finally:
        wall.add("classads.parse", perf_counter_ns() - t0)


def parse_uncached(source: str) -> Expr:
    """The parser proper: a fresh tree per call, nothing interned.

    For callers that measure or cross-check the parser itself; everything
    else wants :func:`parse`.
    """
    parser = _Parser(tokenize(source))
    node = parser.parse_expression()
    parser.expect("EOF")
    return node


#: ``lru_cache`` keeps no entry for a call that raised, is safe to call
#: from the service's simulation thread, and holds only immutable trees.
_intern = lru_cache(maxsize=INTERN_MAX)(parse_uncached)
