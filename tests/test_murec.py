from fractions import Fraction

import pytest

from exactdyn import murec
from exactdyn.errors import ArityMismatchError, IllFormedError, ProgramParseError
from exactdyn.murec import Comp, Diverged, Mu, PrimRec, Proj, Succ, Value, Zero, arity, evaluate

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


def test_mu_returns_least_witness():
    sub = murec.builtin_program("truncated_subtraction")
    lookup = Mu(sub)  # least y with x - y = 0, i.e. y = x
    for x in (0, 1, 2, 9, 31):
        assert evaluate(lookup, (x,), FUEL) == Value(x)
        for z in range(x):
            probe = evaluate(sub, (x, z), FUEL)
            assert isinstance(probe, Value) and probe.value != 0


def test_conjugate_propagates_divergence():
    got = murec.conjugate_evaluate(DIVERGENT, (Fraction(0),), 10**3)
    assert got == Diverged(10**3)


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
