import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from distrev.errors import (
    BoundExceededError,
    FormulaParseError,
    UnknownAtomError,
)
from distrev.logic import (
    CLASSICAL,
    FALSE,
    TRUE,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    Valuation,
    canonical_dnf,
    definable_model_sets,
    enumerate_valuations,
    eval_formula,
    formula_extensions,
    formula_to_text,
    hamming_diff,
    models,
    parse_formula,
    satisfies,
)

SIG = ("p", "q", "r")


def test_parse_precedence():
    phi = parse_formula("!p & q | r -> p <-> q")
    assert phi == Iff(
        Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("p")),
        Atom("q"),
    )


def test_parse_right_associativity():
    assert parse_formula("p -> q -> r") == Implies(
        Atom("p"), Implies(Atom("q"), Atom("r"))
    )


def test_parse_parentheses_and_constants():
    phi = parse_formula("(p | false) & true")
    v = Valuation(("p",), ("1",))
    assert satisfies(v, phi)


def test_parse_errors_carry_position():
    cases = {
        "p & & q": ("expected a formula, found '&'", 4),
        "(p": ("expected ')', found 'end'", 2),
        "": ("expected a formula, found 'end'", 0),
    }
    for text, (message, offset) in cases.items():
        with pytest.raises(FormulaParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.position == offset


def test_parse_rejects_unknown_atom():
    with pytest.raises(UnknownAtomError) as exc:
        parse_formula("p & z", signature=("p", "q"))
    assert str(exc.value) == "unknown atom 'z' at offset 4"


def test_parse_rejects_trailing_garbage():
    with pytest.raises(FormulaParseError) as exc:
        parse_formula("p q")
    assert str(exc.value) == "trailing input 'name:q' (at offset 2)"


def test_roundtrip_through_text():
    texts = ["p & (q | !r)", "p -> q -> r", "!(p <-> q)", "true | false",
             "(p -> q) -> r", "(p <-> q) <-> r", "(p | q) -> r <-> !!p"]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(formula_to_text(phi)) == phi


@settings(max_examples=300)
@given(
    st.recursive(
        st.sampled_from([Atom("p"), Atom("q"), Atom("r"), TRUE, FALSE]),
        lambda c: st.one_of(
            st.builds(Not, c),
            *(st.builds(cls, c, c) for cls in (And, Or, Implies, Iff)),
        ),
        max_leaves=12,
    )
)
def test_printed_formulas_parse_back_to_the_same_truth_table(phi):
    # right-nested & and | chains print flat and parse back left-nested,
    # so the parsed formula may differ in shape but not in truth table or text
    text = formula_to_text(phi)
    back = parse_formula(text, SIG)
    for v in enumerate_valuations(SIG):
        assert satisfies(v, back) == satisfies(v, phi)
    assert formula_to_text(back) == text


def test_classical_truth_tables():
    vals = enumerate_valuations(("p", "q"))
    assert len(vals) == 4
    phi = parse_formula("p -> q")
    outcomes = {v.label(): satisfies(v, phi) for v in vals}
    assert outcomes == {"00": True, "01": True, "10": False, "11": True}


def test_enumeration_is_lexicographic_and_bounded():
    vals = enumerate_valuations(("p", "q"))
    assert [v.label() for v in vals] == ["00", "01", "10", "11"]
    with pytest.raises(BoundExceededError):
        enumerate_valuations(tuple(f"a{i}" for i in range(30)), bound=1000)


def test_formula_extensions_bound_counts_every_function():
    # three classical atoms define all 256 functions of their 8 valuations;
    # the closure refuses as soon as it holds more than ``bound`` of them
    with pytest.raises(BoundExceededError):
        formula_extensions(SIG, CLASSICAL, bound=255)
    _, codes = formula_extensions(SIG, CLASSICAL, bound=256)
    assert len(codes) == 256


def test_enumerations_share_valuations_but_not_lists():
    first = enumerate_valuations(("p", "q"))
    second = enumerate_valuations(["p", "q"])
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    assert len(second) == 4 and len(enumerate_valuations(("p", "q"))) == 4


def test_valuation_hash_follows_fields():
    a = Valuation(SIG, (1, 0, 0))
    b = Valuation(SIG, (1, 0, 0))
    c = Valuation(SIG, (0, 0, 0))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.atoms, a.values))
    assert a != c and len({a, b, c}) == 2
    assert repr(a) == "Valuation(100)"
    assert [f.name for f in dataclasses.fields(a)] == ["atoms", "values"]


def test_models_and_consistency():
    gamma = [parse_formula("p & q")]
    ms = models(gamma, ("p", "q"))
    assert [v.label() for v in ms] == ["11"]
    assert not models([parse_formula("p & !p")], ("p", "q"))


def test_hamming_diff():
    a = Valuation(SIG, ("1", "0", "0"))
    b = Valuation(SIG, ("0", "0", "1"))
    assert hamming_diff(a, b) == {"p", "r"}
    with pytest.raises(UnknownAtomError):
        hamming_diff(a, Valuation(("p",), ("1",)))


@given(st.sets(st.integers(min_value=0, max_value=7)))
def test_canonical_dnf_recovers_model_set(idx):
    sig = SIG
    vals = enumerate_valuations(sig)
    target = frozenset(vals[i] for i in idx)
    phi = canonical_dnf(target, sig)
    assert frozenset(models([phi], sig)) == target


def test_every_classical_subset_is_definable():
    sig = ("p", "q")
    definable = definable_model_sets(sig)
    assert len(definable) == 16


def _identity_matrix():
    # three values, one designated; the only connective is a no-op, so very
    # few model sets are definable
    from distrev.logic import Matrix

    vals = ("0", "1", "2")
    tables = {
        "not": {(x,): x for x in vals},
        "and": {(x, y): x for x in vals for y in vals},
        "or": {(x, y): x for x in vals for y in vals},
        "implies": {(x, y): x for x in vals for y in vals},
        "iff": {(x, y): x for x in vals for y in vals},
        "true": {(): "1"},
        "false": {(): "0"},
    }
    return Matrix(values=vals, designated=frozenset({"1"}), tables=tables)


def test_non_classical_matrix_has_undefinable_subsets():
    sig = ("p",)
    matrix = _identity_matrix()
    definable = definable_model_sets(sig, matrix)
    vals = enumerate_valuations(sig, matrix)
    assert len(definable) < 2 ** len(vals)


@given(
    st.recursive(
        st.sampled_from([Atom("p"), Atom("q")]),
        lambda c: st.one_of(
            st.builds(Not, c), st.builds(And, c, c), st.builds(Or, c, c)
        ),
        max_leaves=8,
    )
)
def test_de_morgan(phi):
    sig = ("p", "q")
    neg = Not(phi)
    for v in enumerate_valuations(sig):
        assert satisfies(v, neg) == (not satisfies(v, phi))
