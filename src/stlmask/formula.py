"""Formula AST, text DSL, and structural queries.

Grammar (loosest binding first)::

    phi      := or_expr ( "U" interval? or_expr )*        # left-associative
    or_expr  := and_expr ( "|" and_expr )*
    and_expr := unary ( "&" unary )*
    unary    := "~" unary | "G" interval? unary | "F" interval? unary | atom
    atom     := "TRUE" | "(" phi ")" | pred
    pred     := ident cmp number
    cmp      := ">" | "<" | ">=" | "<="
    interval := "[" uint "," uint "]"

``TRUE``, ``G``, ``F``, and ``U`` are reserved words and cannot be used as
variable names.  An omitted interval means the operator ranges over the whole
remaining signal.  ``>=``/``<=`` evaluate identically to ``>``/``<`` (the
distinction has measure zero on real-valued signals); ``x < c`` is the
negation of ``x > c``.

Formulas built programmatically may carry a :class:`~stlmask.core.SmoothInterval`
on ``F``/``G`` nodes.  Those render with curly braces (e.g. ``G{0.2,0.6;c=8}``)
and are not part of the text DSL, so they do not round-trip through
:func:`parse`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Union

from .core import InvalidIntervalError, NamedSignals, SmoothInterval, StepInterval, StlError

__all__ = [
    "Formula",
    "TrueFormula",
    "TRUE",
    "Pred",
    "Not",
    "And",
    "Or",
    "Eventually",
    "Always",
    "Until",
    "ParseError",
    "parse",
    "format_formula",
    "temporal_depth",
    "validate_against",
    "variables",
]

_COMPARATORS = (">", "<", ">=", "<=")


class ParseError(StlError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


@dataclass(frozen=True)
class Formula:
    """Base class; provides ``&``, ``|`` and ``~`` sugar for building ASTs."""

    #: names of the fields holding sub-formulas, left to right
    _child_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["Formula", ...]:
        """Direct sub-formulas, left to right."""
        return tuple(getattr(self, name) for name in self._child_fields)

    def replace_children(self, *kids: "Formula") -> "Formula":
        """Copy of this node with its sub-formulas replaced, in ``children()`` order."""
        if len(kids) != len(self._child_fields):
            raise ValueError(f"{type(self).__name__} takes {len(self._child_fields)} children, got {len(kids)}")
        return replace(self, **dict(zip(self._child_fields, kids)))

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class Pred(Formula):
    """Atomic comparison of a named channel against a threshold."""

    var: str
    cmp: str
    threshold: float

    def __post_init__(self):
        if not self.var or not re.fullmatch(r"[A-Za-z_]\w*", self.var):
            raise ValueError(f"predicate variable must be an identifier, got {self.var!r}")
        if self.cmp not in _COMPARATORS:
            raise ValueError(f"comparator must be one of {_COMPARATORS}, got {self.cmp!r}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"predicate threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class Not(Formula):
    _child_fields = ("arg",)
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    _child_fields = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    _child_fields = ("left", "right")
    left: Formula
    right: Formula


def _check_interval(iv):
    """Raises :class:`InvalidIntervalError` unless ``iv`` is ``None`` or an interval."""
    if not (iv is None or isinstance(iv, (StepInterval, SmoothInterval))):
        raise InvalidIntervalError(f"not a temporal interval: {iv!r}")


@dataclass(frozen=True)
class Eventually(Formula):
    _child_fields = ("arg",)
    arg: Formula
    interval: Union[StepInterval, SmoothInterval, None] = None

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Always(Formula):
    _child_fields = ("arg",)
    arg: Formula
    interval: Union[StepInterval, SmoothInterval, None] = None

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Until(Formula):
    _child_fields = ("left", "right")
    left: Formula
    right: Formula
    interval: Optional[StepInterval] = None

    def __post_init__(self):
        if isinstance(self.interval, SmoothInterval):
            raise TypeError("until does not support smooth intervals")
        _check_interval(self.interval)


TRUE = TrueFormula()


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<cmp>>=|<=|>|<)
  | (?P<punct>[()\[\],&|~])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"TRUE", "G", "F", "U"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "cmp" | punct literal | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            if kind == "punct":
                tokens.append(_Token(chunk, chunk, line, col))
            else:
                tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # phi := or_expr ( "U" interval? or_expr )*
    def parse_phi(self) -> Formula:
        node = self.parse_or()
        while self._is_keyword("U"):
            self.next()
            iv = self.parse_interval_opt()
            rhs = self.parse_or()
            node = Until(node, rhs, iv)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().kind == "|":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek().kind == "&":
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Not(self.parse_unary())
        if self._is_keyword("G"):
            self.next()
            iv = self.parse_interval_opt()
            return Always(self.parse_unary(), iv)
        if self._is_keyword("F"):
            self.next()
            iv = self.parse_interval_opt()
            return Eventually(self.parse_unary(), iv)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            node = self.parse_phi()
            self.expect(")")
            return node
        if tok.kind == "ident":
            if tok.text == "TRUE":
                self.next()
                return TRUE
            if tok.text in _KEYWORDS:
                raise self.error(f"reserved word {tok.text!r} cannot start an atom")
            return self.parse_pred()
        raise self.error(f"expected a formula, found {tok.text or 'end of input'!r}")

    def parse_pred(self) -> Formula:
        name = self.expect("ident")
        cmp_tok = self.next()
        if cmp_tok.kind != "cmp":
            raise ParseError(
                f"expected a comparator after {name.text!r}, found {cmp_tok.text or 'end of input'!r}",
                cmp_tok.line,
                cmp_tok.col,
            )
        num = self.expect("number")
        threshold = float(num.text)
        if not math.isfinite(threshold):
            raise ParseError(f"predicate threshold {num.text} is not a finite float", num.line, num.col)
        return Pred(name.text, cmp_tok.text, threshold)

    def parse_interval_opt(self) -> Optional[StepInterval]:
        if self.peek().kind != "[":
            return None
        open_tok = self.next()
        a = self._parse_uint()
        self.expect(",")
        b = self._parse_uint()
        self.expect("]")
        try:
            return StepInterval(a, b)
        except InvalidIntervalError as exc:
            raise InvalidIntervalError(
                f"{exc} (line {open_tok.line}, column {open_tok.col})"
            ) from None

    def _parse_uint(self) -> int:
        tok = self.expect("number")
        try:
            value = int(tok.text)
        except ValueError:
            raise ParseError(f"interval bounds must be integers, got {tok.text!r}", tok.line, tok.col)
        if value < 0:
            raise ParseError(f"interval bounds must be nonnegative, got {tok.text}", tok.line, tok.col)
        return value

    def _is_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word


def parse(text: str) -> Formula:
    """Parse DSL text into a :class:`Formula`.

    Raises :class:`ParseError` with a line/column position on bad syntax and
    on intervals with ``a > b``.
    """
    parser = _Parser(text)
    node = parser.parse_phi()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.line, end.col)
    return node


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_interval(iv) -> str:
    if iv is None:
        return ""
    if isinstance(iv, StepInterval):
        return f"[{iv.a},{iv.b}]"
    # smooth intervals are not part of the DSL; render them readably
    return f"{{{iv.a:g},{iv.b:g};c={iv.c:g}}}"


# precedence levels: Until=1, Or=2, And=3, unary=4, atoms=5
def _fmt(f: Formula, parent_level: int) -> str:
    if isinstance(f, TrueFormula):
        return "TRUE"
    if isinstance(f, Pred):
        text = f"{f.var} {f.cmp} {_fmt_number(f.threshold)}"
        return f"({text})" if parent_level > 0 else text
    if isinstance(f, Not):
        return "~" + _fmt(f.arg, 4)
    if isinstance(f, Always):
        return f"G{_fmt_interval(f.interval)} " + _fmt(f.arg, 4)
    if isinstance(f, Eventually):
        return f"F{_fmt_interval(f.interval)} " + _fmt(f.arg, 4)
    if isinstance(f, And):
        # left-associative: a right-nested And needs parentheses
        text = f"{_fmt(f.left, 3)} & {_fmt(f.right, 4)}"
        return f"({text})" if parent_level > 3 else text
    if isinstance(f, Or):
        text = f"{_fmt(f.left, 2)} | {_fmt(f.right, 3)}"
        return f"({text})" if parent_level > 2 else text
    if isinstance(f, Until):
        # left-associative: the left child may be another Until unparenthesized
        text = f"{_fmt(f.left, 1)} U{_fmt_interval(f.interval)} {_fmt(f.right, 2)}"
        return f"({text})" if parent_level > 1 else text
    raise TypeError(f"not a Formula node: {f!r}")


def format_formula(f: Formula) -> str:
    """Render a formula in canonical DSL text; ``parse(format_formula(f)) == f``."""
    return _fmt(f, 0)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def temporal_depth(f: Formula) -> int:
    """Nesting depth of temporal operators, where a single layer counts as 0.

    ``F``/``G`` contribute one level each along a path; ``U`` contributes two
    (its evaluation nests a window reduction inside an existential one).  The
    result is the maximum path total minus one, clamped at zero.
    """

    def walk(node: Formula) -> int:
        if not isinstance(node, Formula):
            raise TypeError(f"not a Formula node: {node!r}")
        own = 2 if isinstance(node, Until) else 1 if isinstance(node, (Eventually, Always)) else 0
        return own + max(map(walk, node.children()), default=0)

    return max(0, walk(f) - 1)


def variables(f: Formula) -> set[str]:
    """All predicate variable names appearing in the formula."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a Formula node: {f!r}")
    if isinstance(f, Pred):
        return {f.var}
    return set().union(*map(variables, f.children()))


def validate_against(f: Formula, signals: NamedSignals) -> list[str]:
    """Names of predicate variables not present in ``signals`` (empty = ok)."""
    return sorted(variables(f) - set(signals.names()))
