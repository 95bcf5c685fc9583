"""Terms for partial recursive functions on naturals, with fuel-bounded evaluation.

A term is a tree over six constructors: projection, constant zero,
successor, composition, primitive recursion, and unbounded minimization.
Each well-formed term has an arity p and denotes a partial function from
p-tuples of naturals to naturals.

Evaluation is total at the interface: it carries a fuel budget, charges
one unit per constructor application, and answers ``Diverged`` when the
budget runs out.  ``Diverged`` is a verdict about the budget, never a
claim that the denoted function is undefined.

Terms can be read from text, one term per file::

    proj p i | zero p | succ | (comp F G1 ... Gq) | (primrec F G) | (mu F)

with ``#`` starting a line comment; whitespace is insignificant and the
three leaf forms may optionally be parenthesized.  A small corpus of
classic programs (addition, multiplication, predecessor, truncated
subtraction, sign) ships with the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Union

from .encoding import Encoding, decode_rational, encode_rational
from .errors import ArityMismatchError, IllFormedError, ProgramParseError

RecFn = Union["Proj", "Zero", "Succ", "Comp", "PrimRec", "Mu"]


@dataclass(frozen=True)
class Proj:
    """x_1, ..., x_p -> x_i (1-based index)."""

    p: int
    i: int

    def __post_init__(self) -> None:
        if self.p < 1 or not 1 <= self.i <= self.p:
            raise IllFormedError(f"proj {self.p} {self.i}: index out of range")


@dataclass(frozen=True)
class Zero:
    """x_1, ..., x_p -> 0; p = 0 gives the zero constant."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise IllFormedError(f"zero {self.p}: negative arity")


@dataclass(frozen=True)
class Succ:
    """x -> x + 1."""


@dataclass(frozen=True)
class Comp:
    """x -> outer(inner_1(x), ..., inner_q(x)); arity is the inners' common arity."""

    outer: RecFn
    inner: tuple[RecFn, ...]
    _arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", tuple(self.inner))
        if not self.inner:
            raise IllFormedError("comp needs at least one inner term")
        if arity(self.outer) != len(self.inner):
            raise IllFormedError(
                f"comp: outer arity {arity(self.outer)} != {len(self.inner)} inner terms"
            )
        arities = {arity(g) for g in self.inner}
        if len(arities) != 1:
            raise IllFormedError(f"comp: inner terms disagree on arity: {sorted(arities)}")
        object.__setattr__(self, "_arity", arities.pop())


@dataclass(frozen=True)
class PrimRec:
    """h(x, 0) = base(x); h(x, y+1) = step(x, y, h(x, y))."""

    base: RecFn
    step: RecFn
    _arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if arity(self.step) != arity(self.base) + 2:
            raise IllFormedError(
                f"primrec: step arity {arity(self.step)} != base arity {arity(self.base)} + 2"
            )
        object.__setattr__(self, "_arity", arity(self.base) + 1)


@dataclass(frozen=True)
class Mu:
    """x -> least y with body(x, y) = 0, all smaller y giving nonzero."""

    body: RecFn
    _arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if arity(self.body) < 1:
            raise IllFormedError("mu: body must have arity >= 1")
        object.__setattr__(self, "_arity", arity(self.body) - 1)


def arity(term: RecFn) -> int:
    """Number of arguments the denoted partial function takes.

    Comp, PrimRec and Mu compute theirs once, when constructed.
    """
    t = type(term)
    if t is Proj or t is Zero:
        return term.p
    if t is Succ:
        return 1
    if t is Comp or t is PrimRec or t is Mu:
        return term._arity
    raise IllFormedError(f"not a term: {term!r}")


@dataclass(frozen=True)
class Value:
    value: int


@dataclass(frozen=True)
class Diverged:
    fuel_spent: int


EvalOutcome = Union[Value, Diverged]


class _OutOfFuel(Exception):
    pass


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, fuel: int) -> None:
        self.remaining = fuel


def evaluate(term: RecFn, args: tuple[int, ...] | list[int], fuel: int) -> EvalOutcome:
    """Run a term on a tuple of naturals under a fuel budget.

    Returns Value(v) when the computation finishes within the budget and
    Diverged(fuel) when the budget is exhausted.  Minimization probes
    y = 0, 1, 2, ... in order, so a returned witness is always least.
    """
    args = tuple(args)
    if len(args) != arity(term):
        raise ArityMismatchError(f"term of arity {arity(term)} applied to {len(args)} arguments")
    if any(a < 0 for a in args):
        raise ArityMismatchError("arguments must be non-negative")
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    budget = _Budget(fuel)
    try:
        return Value(_run(term, args, budget))
    except _OutOfFuel:
        return Diverged(fuel)


def _run(term: RecFn, args: tuple[int, ...], budget: _Budget) -> int:
    budget.remaining -= 1
    if budget.remaining < 0:
        raise _OutOfFuel
    t = type(term)
    if t is Proj:
        return args[term.i - 1]
    if t is Zero:
        return 0
    if t is Succ:
        return args[0] + 1
    if t is Comp:
        inner = tuple(_run(g, args, budget) for g in term.inner)
        return _run(term.outer, inner, budget)
    if t is PrimRec:
        xs, y = args[:-1], args[-1]
        acc = _run(term.base, xs, budget)
        for k in range(y):
            acc = _run(term.step, xs + (k, acc), budget)
        return acc
    # Mu: probe candidates in order; fuel bounds the search.
    y = 0
    while True:
        if _run(term.body, args + (y,), budget) == 0:
            return y
        y += 1


def conjugate_evaluate(
    term: RecFn, args: list[Fraction] | tuple[Fraction, ...], fuel: int
) -> Union[Fraction, Diverged]:
    """Run a term on rationals through the canonical numbering.

    Arguments are encoded, the term is evaluated on their codes, and the
    resulting natural is decoded; NotACodeError is raised when the result
    is not the code of any rational.  Diverged propagates as a value.
    """
    codes = tuple(encode_rational(q, Encoding.CANONICAL) for q in args)
    outcome = evaluate(term, codes, fuel)
    if isinstance(outcome, Diverged):
        return outcome
    return decode_rational(outcome.value, Encoding.CANONICAL)


# --- textual program format ---

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(text: str) -> list[str]:
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    return _TOKEN_RE.findall(" ".join(lines))


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ProgramParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ProgramParseError(f"expected {tok!r}, got {got!r}")

    def natural(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ProgramParseError(f"expected a natural number, got {tok!r}")
        return int(tok)

    def term(self) -> RecFn:
        tok = self.next()
        if tok == "(":
            head = self.next()
            node = self.form(head)
            self.expect(")")
            return node
        return self.form(tok, parenthesized=False)

    def form(self, head: str, parenthesized: bool = True) -> RecFn:
        if head == "proj":
            return Proj(self.natural(), self.natural())
        if head == "zero":
            return Zero(self.natural())
        if head == "succ":
            return Succ()
        if not parenthesized:
            raise ProgramParseError(f"unexpected token {head!r}")
        if head == "comp":
            outer = self.term()
            inner = []
            while self.peek() != ")":
                if self.peek() is None:
                    raise ProgramParseError("unterminated comp form")
                inner.append(self.term())
            return Comp(outer, tuple(inner))
        if head == "primrec":
            return PrimRec(self.term(), self.term())
        if head == "mu":
            return Mu(self.term())
        raise ProgramParseError(f"unknown form {head!r}")


def parse_program(text: str) -> RecFn:
    """Parse one term from program text; IllFormedError surfaces as-is."""
    parser = _Parser(_tokenize(text))
    if parser.peek() is None:
        raise ProgramParseError("empty program")
    term = parser.term()
    if parser.peek() is not None:
        raise ProgramParseError(f"trailing tokens starting at {parser.peek()!r}")
    return term


def format_program(term: RecFn) -> str:
    t = type(term)
    if t is Proj:
        return f"proj {term.p} {term.i}"
    if t is Zero:
        return f"zero {term.p}"
    if t is Succ:
        return "succ"
    if t is Comp:
        parts = " ".join(format_program(g) for g in (term.outer, *term.inner))
        return f"(comp {parts})"
    if t is PrimRec:
        return f"(primrec {format_program(term.base)} {format_program(term.step)})"
    return f"(mu {format_program(term.body)})"


def load_program(path: str) -> RecFn:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


BUILTIN_PROGRAMS = (
    "addition",
    "multiplication",
    "predecessor",
    "truncated_subtraction",
    "sign",
)


def builtin_program(name: str) -> RecFn:
    """Load one of the shipped corpus programs by name."""
    if name not in BUILTIN_PROGRAMS:
        raise ProgramParseError(f"unknown builtin {name!r}; choose from {BUILTIN_PROGRAMS}")
    text = resources.files(__package__).joinpath(f"programs/{name}.rec").read_text("utf-8")
    return parse_program(text)
