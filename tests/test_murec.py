import random

import pytest
from hypothesis import given, settings, strategies as st

from exactdyn import murec
from exactdyn.errors import ArityMismatchError, IllFormedError, ProgramParseError
from exactdyn.murec import Comp, Diverged, Mu, PrimRec, Proj, RecFn, Succ, Value, Zero, arity, evaluate

FUEL = 10**6

ADD = PrimRec(Proj(1, 1), Comp(Succ(), (Proj(3, 3),)))
DIVERGENT = Mu(Comp(Succ(), (Proj(2, 2),)))  # succ is never 0


def test_arity_examples():
    assert arity(Succ()) == 1
    assert arity(Zero(3)) == 3
    assert arity(Proj(5, 2)) == 5
    assert arity(ADD) == 2
    assert arity(Mu(Proj(2, 2))) == 1


def test_arity_of_a_deep_chain():
    # built bottom-up, so only the constructors' arity bookkeeping is exercised
    term = Proj(1, 1)
    for _ in range(5000):
        term = Comp(Succ(), (term,))
    assert arity(term) == 1


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
    assert evaluate(ADD, (3, 4), FUEL) == Value(7)
    assert evaluate(Mu(Proj(2, 2)), (5,), FUEL) == Value(0)
    assert evaluate(DIVERGENT, (0,), 10**3) == Diverged(10**3)


def test_eval_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        evaluate(ADD, (3,), FUEL)
    with pytest.raises(ArityMismatchError):
        evaluate(ADD, (3, -1), FUEL)


def test_determinism():
    for args in ((0, 0), (7, 9), (50, 1)):
        outcomes = {evaluate(ADD, args, FUEL) for _ in range(5)}
        assert len(outcomes) == 1


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
    """Same outcome for every budget from 0 to cost + 2 (to 100, and cap, when cap is not enough)."""
    outcome, cost = _reference(term, args, cap)
    budgets = range(cost + 3) if isinstance(outcome, Value) else [*range(100), cap]
    for fuel in budgets:
        assert evaluate(term, args, fuel) == _reference(term, args, fuel)[0], (
            murec.format_program(term), args, fuel
        )


def _random_term(rng: random.Random, depth: int, n: int) -> RecFn:
    """A well-formed term of arity n nesting comp, primrec and mu up to depth levels."""
    if depth == 0 or rng.random() < 0.25:
        leaves = [Zero(n)] + [Proj(n, i) for i in range(1, n + 1)] + [Succ()] * (n == 1)
        return rng.choice(leaves)
    move = rng.choice(("comp", "primrec", "mu") if n else ("comp", "mu"))
    if move == "comp":
        q = rng.randrange(1, 4)
        return Comp(_random_term(rng, depth - 1, q), tuple(_random_term(rng, depth - 1, n) for _ in range(q)))
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


def test_deep_chains_evaluate_without_recursion_error():
    chain = Proj(1, 1)
    for _ in range(300):
        chain = Comp(Succ(), (chain,))
    assert evaluate(chain, (4,), FUEL) == Value(304)
    looped = Proj(1, 1)
    for level in range(300):
        if level % 2:
            looped = Mu(Comp(looped, (Proj(2, 2),)))  # least y with looped(y) = 0
        else:
            looped = Comp(PrimRec(looped, Proj(3, 3)), (Proj(1, 1), Zero(1)))  # looped(x), by recursion to 0
    assert evaluate(looped, (4,), FUEL) == Value(0)


# --- program text format ---


def test_parse_leaves_and_forms():
    assert murec.parse_program("succ") == Succ()
    assert murec.parse_program("zero 3") == Zero(3)
    assert murec.parse_program("proj 2 1") == Proj(2, 1)
    assert murec.parse_program("(proj 2 1)") == Proj(2, 1)
    assert murec.parse_program("(comp succ proj 2 2)") == Comp(Succ(), (Proj(2, 2),))
    assert murec.parse_program("(mu proj 2 2)") == Mu(Proj(2, 2))


def test_parse_is_whitespace_and_comment_insensitive():
    text = """
    # addition, recursion on the second argument
    (primrec proj 1 1
             (comp succ   # bump the accumulator
                   proj 3 3))
    """
    assert murec.parse_program(text) == ADD


@pytest.mark.parametrize(
    "bad",
    ["", "(comp succ", "proj 2", "zero x", "(frob succ)", "succ succ", "(mu)", "# only comment"],
)
def test_parse_errors(bad):
    with pytest.raises(ProgramParseError):
        murec.parse_program(bad)


def test_parse_surfaces_ill_formed_terms():
    with pytest.raises(IllFormedError):
        murec.parse_program("(comp succ proj 2 1 proj 2 2)")


def test_format_parse_round_trip():
    terms = [murec.builtin_program(name) for name in murec.BUILTIN_PROGRAMS]
    terms += [DIVERGENT, Mu(Comp(ADD, (Proj(2, 1), Proj(2, 2)))), Zero(0)]
    for term in terms:
        assert murec.parse_program(murec.format_program(term)) == term


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(0, 3))
def test_random_terms_round_trip_through_program_text(rng, depth, n):
    term = _random_term(rng, depth, n)
    assert murec.parse_program(murec.format_program(term)) == term


def test_deeply_nested_text_round_trips():
    for depth in (800, 5000):
        text = "(comp succ " * depth + "proj 1 1" + ")" * depth
        term = murec.parse_program(text)
        assert arity(term) == 1 and murec.format_program(term) == text


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
