"""Concrete syntax: parsing, printing, and their round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucut.corpus import random_formulas
from mucut.kernel import TOP, prime
from mucut.syntax import ParseError, parse_form, parse_formula, print_form


def test_parse_oracles():
    assert parse_formula("p0") == ("atom", 0)
    assert parse_formula("p12") == ("atom", 12)
    assert parse_formula("~p3") == ("natom", 3)
    assert parse_formula("top") == TOP
    assert parse_formula("(p1 & p2)") == ("and", ("atom", 1), ("atom", 2))
    assert parse_formula("(p1 | p2)") == ("or", ("atom", 1), ("atom", 2))
    assert parse_formula("[]p1") == ("box", ("atom", 1))
    assert parse_formula("<> <> p0") == ("dia", ("dia", ("atom", 0)))
    assert parse_formula("mu X . []( p3 & X )") == (
        "mu", ("box", ("and", ("atom", 3), ("var",)))
    )
    assert parse_formula("mu X . mu X . X") == ("mu", ("mu", ("var",)))
    assert parse_formula("nub X . X") == ("nub", ("var",))
    assert parse_formula("  mu X.(p1|X)  ") == (
        "mu", ("or", ("atom", 1), ("var",))
    )


def test_print_oracles():
    assert print_form(("atom", 0)) == "p0"
    assert print_form(("natom", 3)) == "~p3"
    assert print_form(TOP) == "(p0 | ~p0)"
    f = ("mu", ("box", ("and", ("atom", 3), ("var",))))
    assert print_form(f) == "mu X . [] (p3 & X)"
    n = ("nub", ("and", ("atom", 1),
                 ("box", ("mu", ("or", ("atom", 2), ("dia", ("var",)))))))
    assert print_form(n) == "nub X . (p1 & [] mu X . (p2 | <> X))"


def test_parse_form_allows_free_variable():
    assert parse_form("((X & mu X . X) | p2)") == (
        "or", ("and", ("var",), ("mu", ("var",))), ("atom", 2)
    )
    assert parse_form("X") == ("var",)


def test_parse_formula_requires_closed():
    with pytest.raises(ParseError) as e:
        parse_formula("X")
    assert "free variable X" in str(e.value)


def test_parse_errors():
    for text, frag in (
        ("", "unexpected end of input"),
        ("p1 )", "trailing input"),
        ("p1 & p2", "trailing input"),  # binary operators need parentheses
        ("~top", "'~' must be followed by an atom"),
        ("(p1 & )", ""),
        ("mu Y . p1", ""),
        ("frob", "unknown token"),
    ):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert frag in str(e.value)
        assert "at position" in str(e.value)


def test_round_trip_random():
    for f in random_formulas(seed=313, count=300):
        assert parse_formula(print_form(f)) == f
        pf = prime(f)
        assert parse_formula(print_form(pf)) == pf


def test_parse_formula_is_a_memo_that_keeps_no_error():
    # an equal text built anew gives the same formula object
    text = "mu X . (p1 | <> X)"
    assert parse_formula(text) is parse_formula(" ".join(text.split()))
    # a text that fails raises on every call: the memo keeps only values
    before = parse_formula.cache_info()
    for _ in range(3):
        with pytest.raises(ParseError, match="trailing input"):
            parse_formula("p1 & p2")
    after = parse_formula.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 3, before.currsize)


# Forms of every connective, open ones too (parse_formula rejects those
# for their free X as well).
_FORMS = st.recursive(
    st.builds(
        lambda i, positive: ("atom", i) if positive else ("natom", i),
        st.integers(0, 12),
        st.booleans(),
    )
    | st.just(("var",)),
    lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub)
    | st.tuples(st.sampled_from(["box", "dia", "mu", "nu", "nub"]), sub),
    max_leaves=10,
)


@settings(deadline=None, max_examples=150)
@given(_FORMS)
def test_parse_formula_rejects_a_double_quote_or_a_backslash_anywhere(f):
    # mucut.sexpr writes formulas between double quotes without escaping
    # and cuts a conclusion's members at the first '")' and at '" "'; both
    # rely on this
    text = print_form(f)
    for i in range(len(text) + 1):
        for c in '"\\':
            with pytest.raises(ParseError):
                parse_formula(text[:i] + c + text[i:])


# Arbitrary text, and text over the parser's own characters plus digits
# that str.isdigit takes but an atom index must not: superscript two and
# Arabic-Indic one.
_TEXTS = st.text() | st.text(alphabet="p~X().&|[]<> munbtop0123456789²١")


@settings(deadline=None, max_examples=1000)
@given(_TEXTS)
def test_parse_formula_raises_parse_error_or_reads_back(text):
    try:
        f = parse_formula(text)
    except ParseError:
        return
    assert parse_formula(print_form(f)) == f


def test_atom_indices_are_ascii_digits():
    for text in ("p²", "p١", "~p²", "~p١", "(p1 & p1١)"):
        with pytest.raises(ParseError):
            parse_formula(text)
