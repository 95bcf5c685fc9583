from __future__ import annotations

import copy
import inspect
import os
import pickle
import random
import re
import subprocess
import sys
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

import pytest
from hypothesis import given, settings, strategies as st

from exactdyn import murec
from exactdyn.errors import ArityMismatchError, IllFormedError, ProgramParseError
from exactdyn.murec import Comp, Diverged, Mu, PrimRec, Proj, Succ, Value, Zero, arity, evaluate

if TYPE_CHECKING:
    from exactdyn.murec import RecFn

FUEL = 10**6

ADD = PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 3),)))
DIVERGENT = Mu(Comp(Succ(), (Proj(2, 2),)))  # succ is never 0


def test_arity_examples():
    assert arity(Succ()) == 1
    assert arity(Zero(3)) == 3
    assert arity(Proj(5, 2)) == 5
    assert arity(ADD) == 2
    assert arity(Mu(Proj(2, 2))) == 1
    with pytest.raises(IllFormedError, match="not a term"):
        arity(object())


@pytest.mark.parametrize(
    "build",
    [
        lambda: Proj(2, 3),
        lambda: Proj(0, 0),
        lambda: Zero(-1),
        lambda: Comp(Succ(), (Proj(2, 1), Proj(2, 2))),
        lambda: Comp(Succ(), ()),
        lambda: Comp(Zero(2), (Proj(1, 1), Proj(2, 1))),
        lambda: PrimRec(Proj(1, 1), Proj(2, 1)),
        lambda: Mu(Zero(0)),
    ],
)
def test_ill_formed_terms_rejected_at_construction(build):
    with pytest.raises(IllFormedError):
        build()


def test_eval_examples():
    assert evaluate(Mu(Proj(2, 2)), (5,), FUEL) == Value(0)
    # the fuel spent prints, but equality and hashing ignore it
    assert repr(evaluate(ADD, (3, 4), FUEL)) == "Value(value=7, fuel_spent=14)"
    assert repr(Value(7, 3)) == "Value(value=7, fuel_spent=3)" and repr(Diverged(5)) == "Diverged(fuel_spent=5)"
    assert Value(7, 3) == Value(7, 9) and hash(Value(7, 3)) == hash(Value(7, 9))
    assert Value(0) != Diverged(0) and Value(7) != Value(8) and Diverged(5) != Diverged(6)


@pytest.mark.parametrize(
    "built, name",
    [
        (Proj(2, 1), "i"),
        (Zero(3), "p"),
        (Succ(), "_arity"),
        (Comp(Succ(), (Proj(1, 1),)), "inner"),
        (ADD, "step"),
        (DIVERGENT, "body"),
        (Value(7, 3), "fuel_spent"),
        (Diverged(5), "fuel_spent"),
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_fields_cannot_be_assigned_or_deleted(built, name):
    shown = repr(built)
    with pytest.raises(AttributeError):
        setattr(built, name, 0)
    with pytest.raises(AttributeError):
        delattr(built, name)
    with pytest.raises(AttributeError):
        built.extra = 0
    assert repr(built) == shown


def test_eval_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        evaluate(ADD, (3,), FUEL)
    with pytest.raises(ArityMismatchError):
        evaluate(ADD, (3, -1), FUEL)
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        evaluate(ADD, (3, 4), -1)


# --- the compiled evaluator against the recursive one it replaced ---


class _OutOfFuel(Exception):
    pass


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, fuel: int) -> None:
        self.remaining = fuel


def _run(term: RecFn, args: tuple[int, ...], budget: _Budget) -> int:
    """Reference evaluator: walks the tree, charging one unit per node visit."""
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
    y = 0
    while True:
        if _run(term.body, args + (y,), budget) == 0:
            return y
        y += 1


def _reference(term: RecFn, args: tuple[int, ...], fuel: int) -> tuple[murec.EvalOutcome, int]:
    """The reference outcome and the fuel it spent."""
    budget = _Budget(fuel)
    try:
        return Value(_run(term, args, budget)), fuel - budget.remaining
    except _OutOfFuel:
        return Diverged(fuel), fuel


def _assert_every_budget_agrees(term: RecFn, args: tuple[int, ...], cap: int = 1000) -> None:
    """Same outcome and fuel spent for every budget from 0 to cost + 2 (to 100, and cap, when cap is not enough)."""
    outcome, cost = _reference(term, args, cap)
    budgets = range(cost + 3) if isinstance(outcome, Value) else [*range(100), cap]
    for fuel in budgets:
        got = evaluate(term, args, fuel)
        assert (got, got.fuel_spent) == _reference(term, args, fuel), (murec.format_program(term), args, fuel)


def _random_term(rng: random.Random, depth: int, n: int, loops: bool = True) -> RecFn:
    """A well-formed term of arity n nesting comp (and primrec and mu when loops) up to depth levels."""
    if depth == 0 or rng.random() < 0.25:
        leaves = [Zero(n)] + [Proj(n, i) for i in range(1, n + 1)] + [Succ()] * (n == 1)
        return rng.choice(leaves)
    move = rng.choice(("comp", "primrec", "mu") if n else ("comp", "mu")) if loops else "comp"
    if move == "comp":
        q = rng.randrange(1, 4)
        parts = [_random_term(rng, depth - 1, q, loops)] + [_random_term(rng, depth - 1, n, loops) for _ in range(q)]
        return Comp(parts[0], tuple(parts[1:]))
    if move == "primrec":
        return PrimRec(_random_term(rng, depth - 1, n - 1), _random_term(rng, depth - 1, n + 1))
    return Mu(_random_term(rng, depth - 1, n + 1))


@pytest.mark.parametrize("name", murec.BUILTIN_PROGRAMS)
def test_corpus_outcomes_match_the_reference_at_every_budget(name):
    term = murec.builtin_program(name)
    for args in ((0,), (1,), (3,)) if arity(term) == 1 else ((0, 0), (2, 3), (3, 2)):
        _assert_every_budget_agrees(term, args)


def test_random_terms_match_the_reference_at_every_budget():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(4)
        term = _random_term(rng, rng.randrange(1, 6), n)
        _assert_every_budget_agrees(term, tuple(rng.randrange(4) for _ in range(n)))


def test_loop_free_terms_have_the_reference_value_as_their_normal_form():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(4)
        term = _random_term(rng, rng.randrange(1, 7), n, loops=False)
        args = tuple(rng.randrange(100) for _ in range(n))
        i, c = term._form
        assert (c if i is None else args[i] + c) == _reference(term, args, FUEL)[0].value, murec.format_program(term)
    # an outer part still runs every inner one, so a loop below any of them leaves the composition without a form
    for held in (Comp(Zero(1), (DIVERGENT,)), Comp(Proj(2, 1), (Proj(1, 1), DIVERGENT))):
        assert held._form is None and evaluate(held, (0,), 10**3) == Diverged(10**3)


# a loop-free step over (x1, x2, k, acc) for each column of the closed form, with c = 0 and c > 0
_STEPS = {
    "acc": Proj(4, 4),
    "acc+2": Comp(Succ(), (Comp(Succ(), (Proj(4, 4),)),)),
    "counter": Proj(4, 3),
    "counter+1": Comp(Succ(), (Proj(4, 3),)),
    "x2": Proj(4, 2),
    "x2+1": Comp(Proj(2, 2), (Proj(4, 4), Comp(Succ(), (Proj(4, 2),)))),
    "zero": Zero(4),
    "one": Comp(Succ(), (Comp(Zero(1), (Proj(4, 4),)),)),
}


@pytest.mark.parametrize("step", _STEPS)
def test_recursion_over_a_loop_free_step_matches_the_reference_at_every_budget(step):
    for base in (Proj(2, 1), Comp(ADD, (Proj(2, 1), Proj(2, 2)))):  # loop-free, and a loop of its own
        for y in (0, 1, 2, 37):
            _assert_every_budget_agrees(PrimRec(base, _STEPS[step]), (3, 5, y))


def test_fixed_costs_are_charged_up_front_with_the_same_boundary():
    _assert_every_budget_agrees(DIVERGENT, (0,))
    two_up = Comp(Succ(), (Comp(Succ(), (Proj(1, 1),)),))  # loop-free, 5 nodes
    assert evaluate(two_up, (4,), 4) == Diverged(4)
    assert evaluate(two_up, (4,), 5) == Value(6)
    # ADD at (3, 2): its own unit, the base, then two steps of 3 nodes each
    assert _reference(ADD, (3, 2), FUEL) == (Value(5), 8)
    assert evaluate(ADD, (3, 2), 7) == Diverged(7)
    assert evaluate(ADD, (3, 2), 8) == Value(5)
    # a loop under a composition: its starter charges the loop's fixed cost with its own
    bumped = Comp(Succ(), (ADD,))
    assert evaluate(bumped, (3, 2), 9) == Diverged(9)
    assert evaluate(bumped, (3, 2), 10) == Value(6)


def _comp_chain(depth: int) -> RecFn:
    chain = Proj(1, 1)
    for _ in range(depth):
        chain = Comp(Succ(), (chain,))
    return chain


def _looped_chain(depth: int) -> RecFn:
    looped = Proj(1, 1)
    for level in range(depth):
        if level % 2:
            looped = Mu(Comp(looped, (Proj(2, 2),)))  # least y with looped(y) = 0
        else:
            looped = Comp(PrimRec(looped, Proj(3, 3)), (Proj(1, 1), Zero(1)))  # looped(x), by recursion to 0
    return looped


def test_depth_limits_at_the_default_recursion_limit():
    # a fresh interpreter, so that no test runner frames sit below evaluate; it gets the
    # two chain builders as source, so it needs the package alone
    probe = "\n".join([
        "from __future__ import annotations",
        "import sys",
        "from exactdyn.murec import Comp, Mu, PrimRec, Proj, Succ, Zero, evaluate",
        inspect.getsource(_comp_chain),
        inspect.getsource(_looped_chain),
        "assert sys.getrecursionlimit() == 1000",
        "print(evaluate(_comp_chain(100_000), (4,), 10**6).value, evaluate(_looped_chain(498), (4,), 10**6).value)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "100004 0\n"


def test_compiling_a_deep_chain_needs_no_recursion():
    depth = 5000
    looped = murec.parse_program("(mu (comp " * depth + "proj 1 1" + " proj 2 2))" * depth)
    murec._compile(looped)  # children first, on an explicit stack
    node = looped
    for _ in range(depth - 200):
        node = node.body.outer
    assert node._run is not None and evaluate(node, (4,), FUEL) == Value(0)
    # a loop-free chain runs as one closure, so its parts get none
    chain = murec.parse_program("(comp succ " * depth + "proj 1 1" + ")" * depth)
    murec._compile(chain)
    assert chain.inner[0]._run is None and evaluate(chain, (4,), FUEL) == Value(depth + 4)


def test_terms_pickle_before_and_after_evaluation():
    for name in murec.BUILTIN_PROGRAMS:
        term = murec.builtin_program(name)
        args = (3,) if arity(term) == 1 else (5, 3)
        before = pickle.loads(pickle.dumps(term))
        outcome = evaluate(term, args, FUEL)
        after = pickle.loads(pickle.dumps(term))
        assert before == term == after
        for clone in (before, after):
            got = evaluate(clone, args, FUEL)
            assert (got, got.fuel_spent) == (outcome, outcome.fuel_spent)
        for ended in (outcome, evaluate(term, args, 0)):  # a Value and a Diverged, with their fuel
            for clone in (pickle.loads(pickle.dumps(ended)), copy.deepcopy(ended)):
                assert clone is not ended and (type(clone), repr(clone)) == (type(ended), repr(ended))


def _package_as_zip(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    archive = tmp_path / "exactdyn.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted((src / "exactdyn").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(src).as_posix())
    return archive


@pytest.mark.parametrize("install", ["source tree", "zip archive"])
def test_loading_the_corpus_needs_neither_dataclasses_nor_the_numbering(install, tmp_path):
    # a fresh interpreter without site, so that only what murec and its corpus load is counted
    probe = (
        "import sys; from exactdyn import murec; "
        "[murec.builtin_program(name) for name in murec.BUILTIN_PROGRAMS]; "
        "print([m for m in ('dataclasses', 'inspect', 'importlib.resources', 'fractions', 'exactdyn.encoding', "
        "'typing') if m in sys.modules]); "
        "from fractions import Fraction; "
        "print(murec.conjugate_evaluate(murec.Proj(1, 1), (Fraction(-7, 9),), 10))"
    )
    where = Path(__file__).resolve().parents[1] / "src" if install == "source tree" else _package_as_zip(tmp_path)
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(where)})
    assert done.stdout == "[]\n-7/9\n"


@pytest.mark.parametrize("depth", [250, 1000, 100_000])
@pytest.mark.parametrize("chain", [_comp_chain, _looped_chain])
def test_deep_terms_compare_hash_print_and_copy_as_their_text(chain, depth):
    term = chain(depth)  # built bottom-up, through each constructor's bookkeeping
    shown, digest = repr(term), hash(term)
    # repr reads back through parse_program, as unpickling does
    assert arity(term) == 1 and shown == f"parse_program({murec.format_program(term)!r})"
    for clone in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert clone is not term and type(clone) is type(term)
        assert clone == term and hash(clone) == digest and repr(clone) == shown


def test_terms_are_equal_exactly_when_their_text_is():
    terms = [murec.builtin_program(name) for name in murec.BUILTIN_PROGRAMS]
    for term in terms + [DIVERGENT, Mu(Comp(ADD, (Proj(2, 1), Proj(2, 2)))), Zero(0)]:
        twin = murec.parse_program(murec.format_program(term))
        assert twin == term and hash(twin) == hash(term) and len({term, twin}) == 1
    for term, other in (
        (ADD, PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 2),)))),  # one numeral
        (Zero(0), Zero(1)),
        (Succ(), Proj(1, 1)),  # one head
        (DIVERGENT, Mu(Comp(Zero(1), (Proj(2, 2),)))),
        (Comp(Proj(2, 1), (Proj(1, 1), Zero(1))), Comp(Proj(2, 1), (Zero(1), Proj(1, 1)))),  # one part's order
        (_comp_chain(1000), _comp_chain(999)),
        (Succ(), "succ"),
    ):
        assert term != other and not term == other


# --- program text format ---


def test_parse_leaves_and_forms():
    assert murec.parse_program("succ") == Succ()
    assert murec.parse_program("zero 3") == Zero(3)
    assert murec.parse_program("proj 2 1") == Proj(2, 1)
    assert murec.parse_program("(proj 2 1)") == Proj(2, 1)
    assert murec.parse_program("(comp succ proj 2 2)") == Comp(Succ(), (Proj(2, 2),))
    assert murec.parse_program("(mu proj 2 2)") == Mu(Proj(2, 2))
    assert murec.parse_program("zero 1" + "0" * 4299) == Zero(10**4299)  # as long as int() reads


def test_parse_is_whitespace_and_comment_insensitive():
    text = """
    # addition, recursion on the second argument
    (primrec proj 1 1
             (comp succ   # bump the accumulator
                   proj 3 3))
    """
    assert murec.parse_program(text) == ADD


_PARSE_ERRORS = {
    "": "empty program",
    "(comp succ": "unterminated comp form",
    "proj 2": "unexpected end of input",
    "zero x": "expected a natural number, got 'x'",
    "(frob succ)": "unknown form 'frob'",
    "succ succ": "trailing tokens starting at 'succ'",
    "(mu)": "unexpected token ')'",
    "# only comment": "empty program",
    # an Arabic-Indic one and a superscript two, both digits to str.isdigit()
    "proj \u0661 \u0661": "expected a natural number, got '\u0661'",
    "proj \u00b2 1": "expected a natural number, got '\u00b2'",
    # past Python's int-text limit, which int() would refuse with its own ValueError
    "proj 1" + "0" * 5000 + " 1": "numeral of 5001 digits exceeds the 4300-digit limit",
}


@pytest.mark.parametrize("bad", _PARSE_ERRORS, ids=lambda bad: "5001-digit numeral" if len(bad) > 5000 else None)
def test_parse_errors(bad):
    with pytest.raises(ProgramParseError) as caught:
        murec.parse_program(bad)
    assert str(caught.value) == _PARSE_ERRORS[bad]


def test_parse_surfaces_ill_formed_terms():
    with pytest.raises(IllFormedError):
        murec.parse_program("(comp succ proj 2 1 proj 2 2)")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(0, 3))
def test_random_terms_round_trip_through_program_text(rng, depth, n):
    term = _random_term(rng, depth, n)
    assert murec.parse_program(murec.format_program(term)) == term


def test_leaves_are_shared_within_a_parse():
    term = murec.parse_program("(comp (comp succ proj 1 1) proj 1 1)")
    assert term.inner[0] is term.outer.inner[0]


# --- the one-pass parser against the method-per-token parser it replaced ---

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


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
        if not (tok.isascii() and tok.isdigit()):
            raise ProgramParseError(f"expected a natural number, got {tok!r}")
        return int(tok)

    def leaf(self, head: str) -> RecFn | None:
        if head == "proj":
            return Proj(self.natural(), self.natural())
        if head == "zero":
            return Zero(self.natural())
        if head == "succ":
            return Succ()
        return None

    def term(self) -> RecFn:
        """Read one term.  Open forms wait on a stack, so nesting costs no recursion."""
        open_forms: list[tuple[str, list[RecFn]]] = []
        while True:
            tok = self.next()
            if tok == "(":
                head = self.next()
                node = self.leaf(head)
                if node is None:
                    if head not in ("comp", "primrec", "mu"):
                        raise ProgramParseError(f"unknown form {head!r}")
                    open_forms.append((head, []))
                    continue
                self.expect(")")
            else:
                node = self.leaf(tok)
                if node is None:
                    raise ProgramParseError(f"unexpected token {tok!r}")
            # hand the finished term to the innermost open form, closing each form it completes
            while open_forms:
                head, parts = open_forms[-1]
                parts.append(node)
                if head == "comp":
                    ahead = self.peek()
                    if ahead is None:
                        raise ProgramParseError("unterminated comp form")
                    if ahead != ")":
                        break
                    node = Comp(parts[0], tuple(parts[1:]))
                elif head == "primrec":
                    if len(parts) < 2:
                        break
                    node = PrimRec(*parts)
                else:
                    node = Mu(*parts)
                open_forms.pop()
                self.expect(")")
            if not open_forms:
                return node


def _reference_parse(text: str) -> RecFn:
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    parser = _Parser(_TOKEN_RE.findall(" ".join(lines)))
    if parser.peek() is None:
        raise ProgramParseError("empty program")
    term = parser.term()
    if parser.peek() is not None:
        raise ProgramParseError(f"trailing tokens starting at {parser.peek()!r}")
    return term


def _assert_parses_agree(text: str) -> None:
    outcomes = []
    for parse in (murec.parse_program, _reference_parse):
        try:
            outcomes.append(parse(text))
        except (ProgramParseError, IllFormedError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], text


def test_parser_matches_the_reference_on_random_terms():
    for seed in range(300):
        rng = random.Random(seed)
        text = murec.format_program(_random_term(rng, rng.randrange(1, 6), rng.randrange(4)))
        _assert_parses_agree(text)
        _assert_parses_agree(text.replace("(", " ( ").replace(" ", "\n# note\n"))


_VOCABULARY = ("(", ")", "comp", "primrec", "mu", "proj", "zero", "succ", "0", "1", "2", "3", "01", "10",
               "x", "-1", "1.0", "#", "\n", "PROJ", "comp(", "))")
# mostly a space; sometimes none, or whitespace that also ends a comment line or is not ASCII
_SEPARATORS = (" ",) * 6 + ("", "\t", "\x1c", "\u2028", "\xa0")


def test_parser_matches_the_reference_on_random_token_strings():
    rng = random.Random(14)
    for k in range(20_000):
        if k % 2:
            tokens = rng.choices(_VOCABULARY, k=rng.randrange(14))
        else:  # a well-formed term with a token or two replaced or dropped
            tokens = _TOKEN_RE.findall(murec.format_program(_random_term(rng, rng.randrange(1, 4), rng.randrange(3))))
            for _ in range(rng.randrange(1, 3)):
                tokens[rng.randrange(len(tokens))] = rng.choice((*_VOCABULARY, ""))
        _assert_parses_agree("".join(tok + rng.choice(_SEPARATORS) for tok in tokens))


def test_builtin_corpus_complete():
    # each program's arity is checked by the murec check suite
    assert set(murec.BUILTIN_PROGRAMS) == {
        "addition", "multiplication", "predecessor", "truncated_subtraction", "sign"
    }
    with pytest.raises(ProgramParseError):
        murec.builtin_program("factorial")


def test_load_program(tmp_path):
    path = tmp_path / "double.rec"
    path.write_text("(comp (primrec proj 1 1 (comp succ proj 3 3)) proj 1 1 proj 1 1)\n")
    term = murec.load_program(str(path))
    assert evaluate(term, (21,), FUEL) == Value(42)
