"""Terms for partial recursive functions on naturals, with fuel-bounded evaluation.

A term is a tree over six constructors: projection, constant zero,
successor, composition, primitive recursion, and unbounded minimization.
Each well-formed term has an arity p and denotes a partial function from
p-tuples of naturals to naturals.

Evaluation is total at the interface: it carries a fuel budget, charges
one unit per constructor application, and answers ``Value`` with the
fuel spent, which is the node-visit count, or ``Diverged`` when the
budget runs out.  ``Diverged`` is a verdict about the budget, never a
claim that the denoted function is undefined.

Each term is compiled on first evaluation into a closure, and carries the
fuel it is sure to spend once it starts: its own unit plus its parts' for
a composition, plus its base's for primitive recursion, one unit for the
other forms.  Whoever starts a term charges that fixed cost first:
``evaluate``, or the enclosing recursion step or minimization probe.
That moves the moment the budget runs out, never whether it does: every
charged amount is spent before a successful run ends, every increase of
the total is checked, and each loop iteration costs at least one unit,
so every budget gives the same outcome as counting one node at a time.

A loop-free term, built only from projection, zero, successor and
composition, computes ``x -> x_i + c`` or the constant ``c``, and runs
as one closure at any depth.  Primitive recursion over a loop-free step
charges its y steps' fuel at once and returns ``base + y*c``,
``y - 1 + c``, ``x_j + c`` or ``c`` (for y >= 1) as the step reads the
accumulator, the counter, a parameter or nothing.  Each level holding a
recursion or minimization still costs one or two Python frames, so
several hundred such levels can reach the recursion limit.

Terms can be read from text, one term per file::

    proj p i | zero p | succ | (comp F G1 ... Gq) | (primrec F G) | (mu F)

with ``#`` starting a line comment; whitespace is insignificant and the
three leaf forms may optionally be parenthesized.  Within one parse,
leaves are shared: each distinct leaf is built once.  A term compares,
hashes, prints and pickles as its canonical text, at any depth.  A small
corpus of classic programs (addition, multiplication, predecessor,
truncated subtraction, sign) ships with the package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Union

from . import BUILTIN_PROGRAMS
from .encoding import Encoding, decode_rational, encode_rational
from .errors import ArityMismatchError, IllFormedError, ProgramParseError

RecFn = Union["Proj", "Zero", "Succ", "Comp", "PrimRec", "Mu"]

# A compiled term runs as ``_run(args, budget)``, where ``budget`` is the
# one-item list [fuel remaining] of the current evaluation.  ``_cost`` is
# the fuel a term is sure to spend once it starts; whoever starts the term
# charges it first, so a closure touches the budget only before a later
# recursion step or minimization probe.  A node computes its arity, its
# cost and its ``Form`` when it is built: (i, c) for args[i] + c, (None, c)
# for the constant c, None when it holds a loop; its closure comes on
# first evaluation.
Run = Callable[[tuple[int, ...], list[int]], int]
Form = tuple[int | None, int] | None


class _OutOfFuel(Exception):
    pass


def _compile_comp(outer: RecFn, inner: tuple[RecFn, ...]) -> Run:
    f, gs = outer._run, tuple([g._run for g in inner])
    if len(gs) == 1:
        (g,) = gs
        return lambda args, budget: f((g(args, budget),), budget)
    return lambda args, budget: f(tuple([g(args, budget) for g in gs]), budget)


def _compile_primrec(base: RecFn, step: RecFn) -> Run:
    step_cost, run_base, run_step = step._cost, base._run, step._run
    if step._form is not None:  # a loop-free step: only the last step's result survives
        (i, c), k = step._form, arity(base)  # the step reads x_1..x_k, then the counter, then acc

        def closed(args: tuple[int, ...], budget: list[int]) -> int:
            xs, y = args[:-1], args[-1]
            acc = run_base(xs, budget)
            if y:
                budget[0] -= y * step_cost  # what the y step calls would charge
                if budget[0] < 0:
                    raise _OutOfFuel
                acc = c if i is None else acc + y * c if i > k else y - 1 + c if i == k else xs[i] + c
            return acc

        return closed

    def run(args: tuple[int, ...], budget: list[int]) -> int:
        xs = args[:-1]
        acc = run_base(xs, budget)
        for k in range(args[-1]):
            budget[0] -= step_cost
            if budget[0] < 0:
                raise _OutOfFuel
            acc = run_step(xs + (k, acc), budget)
        return acc

    return run


def _compile_mu(body: RecFn) -> Run:
    probe_cost, probe = body._cost, body._run

    def run(args: tuple[int, ...], budget: list[int]) -> int:
        # probe candidates in order; fuel bounds the search
        y = 0
        while True:
            budget[0] -= probe_cost
            if budget[0] < 0:
                raise _OutOfFuel
            if probe(args + (y,), budget) == 0:
                return y
            y += 1

    return run


class _Term:
    """A node, whose identity is its canonical program text; see ``format_program``."""

    _run: Run | None = None
    _form: Form = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Term):
            return NotImplemented
        return self is other or format_program(self) == format_program(other)

    def __hash__(self) -> int:
        return hash(format_program(self))

    def __repr__(self) -> str:
        return f"parse_program({format_program(self)!r})"

    def __reduce__(self) -> tuple:  # no closure: a copy compiles again on first evaluation
        return parse_program, (format_program(self),)


@dataclass(frozen=True, eq=False, repr=False)
class Proj(_Term):
    """x_1, ..., x_p -> x_i (1-based index)."""

    p: int
    i: int
    _cost = 1

    def __post_init__(self) -> None:
        if self.p < 1 or not 1 <= self.i <= self.p:
            raise IllFormedError(f"proj {self.p} {self.i}: index out of range")
        object.__setattr__(self, "_arity", self.p)
        object.__setattr__(self, "_form", (self.i - 1, 0))


@dataclass(frozen=True, eq=False, repr=False)
class Zero(_Term):
    """x_1, ..., x_p -> 0; p = 0 gives the zero constant."""

    p: int
    _cost, _form = 1, (None, 0)

    def __post_init__(self) -> None:
        if self.p < 0:
            raise IllFormedError(f"zero {self.p}: negative arity")
        object.__setattr__(self, "_arity", self.p)


@dataclass(frozen=True, eq=False, repr=False)
class Succ(_Term):
    """x -> x + 1."""

    _arity, _cost, _form = 1, 1, (0, 1)


@dataclass(frozen=True, eq=False, repr=False)
class Comp(_Term):
    """x -> outer(inner_1(x), ..., inner_q(x)); arity is the inners' common arity."""

    outer: RecFn
    inner: tuple[RecFn, ...]

    def __post_init__(self) -> None:
        outer, inner = self.outer, tuple(self.inner)
        if not inner:
            raise IllFormedError("comp needs at least one inner term")
        outer_arity = arity(outer)
        if outer_arity != len(inner):
            raise IllFormedError(f"comp: outer arity {outer_arity} != {len(inner)} inner terms")
        arities = set(map(arity, inner))
        if len(arities) != 1:
            raise IllFormedError(f"comp: inner terms disagree on arity: {sorted(arities)}")
        cost, form = 1 + outer._cost, outer._form
        for g in inner:
            cost += g._cost
            if g._form is None:  # loop-free only when every part is
                form = None
        if form is not None and form[0] is not None:  # the outer part adds c to part i's value
            j, d = inner[form[0]]._form
            form = (j, d + form[1])
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_arity", arities.pop())
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "_cost", cost)


@dataclass(frozen=True, eq=False, repr=False)
class PrimRec(_Term):
    """h(x, 0) = base(x); h(x, y+1) = step(x, y, h(x, y))."""

    base: RecFn
    step: RecFn

    def __post_init__(self) -> None:
        k = arity(self.base)
        if arity(self.step) != k + 2:
            raise IllFormedError(f"primrec: step arity {arity(self.step)} != base arity {k} + 2")
        object.__setattr__(self, "_arity", k + 1)
        object.__setattr__(self, "_cost", 1 + self.base._cost)


@dataclass(frozen=True, eq=False, repr=False)
class Mu(_Term):
    """x -> least y with body(x, y) = 0, all smaller y giving nonzero."""

    body: RecFn
    _cost = 1

    def __post_init__(self) -> None:
        if arity(self.body) < 1:
            raise IllFormedError("mu: body must have arity >= 1")
        object.__setattr__(self, "_arity", arity(self.body) - 1)


def arity(term: RecFn) -> int:
    """Number of arguments the denoted partial function takes, fixed when the term is built."""
    if not isinstance(term, _Term):
        raise IllFormedError(f"not a term: {term!r}")
    return term._arity


def _children(term: RecFn) -> tuple[RecFn, ...]:
    t = type(term)
    if t is Comp:
        return (term.outer, *term.inner)
    if t is PrimRec:
        return (term.base, term.step)
    if t is Mu:
        return (term.body,)
    return ()


_COMPILERS: dict[type, Callable[..., Run]] = {
    Comp: lambda t: _compile_comp(t.outer, t.inner),
    PrimRec: lambda t: _compile_primrec(t.base, t.step),
    Mu: lambda t: _compile_mu(t.body),
}


def _closure(node: RecFn) -> Run:
    if node._form is None:
        return _COMPILERS[type(node)](node)
    i, c = node._form
    return (lambda args, budget: c) if i is None else (lambda args, budget: args[i] + c)


def _compile(term: RecFn) -> Run:
    """Give the term, and each part a loop below it runs, a closure.

    It goes children first on an explicit stack, so no depth reaches the
    recursion limit; a loop-free node's parts never run, so get no closure.
    """
    todo = [term]
    while todo:
        node = todo[-1]
        waiting = [] if node._form else [part for part in _children(node) if part._run is None]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        if node._run is None:  # a shared node can wait on the stack twice
            object.__setattr__(node, "_run", _closure(node))
    return term._run


@dataclass(frozen=True)
class Value:
    value: int
    fuel_spent: int = field(default=0, compare=False)  # what the run charged; not part of equality


@dataclass(frozen=True)
class Diverged:
    fuel_spent: int


EvalOutcome = Union[Value, Diverged]


def evaluate(term: RecFn, args: tuple[int, ...] | list[int], fuel: int) -> EvalOutcome:
    """Run a term on a tuple of naturals under a fuel budget.

    Returns Value(v, spent) when the computation finishes having charged
    spent <= fuel, and Diverged(fuel) when the budget is exhausted.
    Minimization probes y = 0, 1, 2, ... in order, so a witness is least.

    The budget counts one unit per constructor application.  Each term's
    fixed cost is charged in one step when the term starts, the whole
    term's here and a loop body's before each call.  That moves the moment
    the budget runs out, never whether it does, so the outcome is the one
    a node-by-node count gives, for every term, argument tuple and budget.
    """
    args = tuple(args)
    if len(args) != arity(term):
        raise ArityMismatchError(f"term of arity {arity(term)} applied to {len(args)} arguments")
    if any(a < 0 for a in args):
        raise ArityMismatchError("arguments must be non-negative")
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    budget = [fuel - term._cost]
    if budget[0] < 0:
        return Diverged(fuel)
    run = term._run or _compile(term)
    try:
        return Value(run(args, budget), fuel - budget[0])
    except _OutOfFuel:
        return Diverged(fuel)


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

def _tokenize(text: str) -> list[str]:
    """Parentheses and the whitespace-separated runs between them, comments dropped."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return text.replace("(", " ( ").replace(")", " ) ").split()


# the tokens each leaf spans: its head and its numerals
_LEAF_WIDTH = {"succ": 1, "zero": 2, "proj": 3}


def _leaf(form: tuple[str, ...]) -> RecFn:
    """The leaf a head and its numerals spell; ``form`` is cut short at the end of input."""
    head, *numerals = form
    for tok in numerals:
        if not (tok.isascii() and tok.isdigit()):
            raise ProgramParseError(f"expected a natural number, got {tok!r}")
        if 0 < (limit := sys.get_int_max_str_digits()) < len(tok):  # past what int() reads
            raise ProgramParseError(f"numeral of {len(tok)} digits exceeds the {limit}-digit limit")
    if len(form) < _LEAF_WIDTH[head]:
        raise ProgramParseError("unexpected end of input")
    return (Proj if head == "proj" else Zero if head == "zero" else Succ)(*map(int, numerals))


def parse_program(text: str) -> RecFn:
    """Parse one term from program text; IllFormedError surfaces as-is.

    One loop reads the tokens.  Open forms wait on a stack, so nesting
    costs no recursion, and each distinct leaf is built once and shared.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ProgramParseError("empty program")
    count, pos = len(tokens), 0
    leaves: dict[tuple[str, ...], RecFn] = {}
    open_forms: list[tuple[str, list[RecFn]]] = []
    try:  # reading past the last token is reaching the end of input
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                tok = tokens[pos]
                pos += 1
                if tok in ("comp", "primrec", "mu"):
                    open_forms.append((tok, []))
                    continue
                if tok not in _LEAF_WIDTH:
                    raise ProgramParseError(f"unknown form {tok!r}")
                open_forms.append(("(", []))  # a parenthesized leaf, open until its ")"
            elif tok not in _LEAF_WIDTH:
                raise ProgramParseError(f"unexpected token {tok!r}")
            end = pos - 1 + _LEAF_WIDTH[tok]
            form = tuple(tokens[pos - 1:end])
            node = leaves.get(form)
            if node is None:
                node = leaves[form] = _leaf(form)
            pos = end
            # hand the finished term to the innermost open form, closing each form it completes
            while open_forms:
                head, parts = open_forms[-1]
                parts.append(node)
                if head == "comp":
                    if pos == count:
                        raise ProgramParseError("unterminated comp form")
                    if tokens[pos] != ")":
                        break
                    node = Comp(parts[0], tuple(parts[1:]))
                elif head == "primrec":
                    if len(parts) < 2:
                        break
                    node = PrimRec(*parts)
                elif head == "mu":
                    node = Mu(node)
                open_forms.pop()
                if tokens[pos] != ")":
                    raise ProgramParseError(f"expected ')', got {tokens[pos]!r}")
                pos += 1
            if not open_forms:
                break
    except IndexError:
        raise ProgramParseError("unexpected end of input") from None
    if pos < count:
        raise ProgramParseError(f"trailing tokens starting at {tokens[pos]!r}")
    return node


def format_program(term: RecFn) -> str:
    """Canonical program text of a term, built on an explicit stack and joined once."""
    out: list[str] = []
    todo: list[RecFn | str] = [term]
    while todo:
        item = todo.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Proj:
            out.append(f"proj {item.p} {item.i}")
        elif t is Zero:
            out.append(f"zero {item.p}")
        elif t is Succ:
            out.append("succ")
        else:
            out.append("(comp" if t is Comp else "(primrec" if t is PrimRec else "(mu")
            todo.append(")")
            for part in reversed(_children(item)):
                todo += (part, " ")
    return "".join(out)


def load_program(path: str) -> RecFn:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


def builtin_program(name: str) -> RecFn:
    """Load one of the shipped corpus programs by name."""
    if name not in BUILTIN_PROGRAMS:
        raise ProgramParseError(f"unknown builtin {name!r}; choose from {BUILTIN_PROGRAMS}")
    text = resources.files(__package__).joinpath(f"programs/{name}.rec").read_text("utf-8")
    return parse_program(text)
