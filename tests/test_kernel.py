"""Formula kernel: exact oracles, the algebraic laws on seeded random
formulas, and the safety of its memos."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucut import kernel
from mucut.corpus import random_formulas
from mucut.sequents import Sequent, _check, is_k_positive, seq
from mucut.syntax import print_form


# One value: the fixture only keeps the test ids stable
# ("test_constructors[python]", ...).
@pytest.fixture(params=[kernel], ids=[kernel.KERNEL_BACKEND])
def k(request):
    return request.param


def test_constructors(k):
    assert k.atom(3) == ("atom", 3)
    assert k.natom(3) == ("natom", 3)
    assert k.and_(k.atom(0), k.atom(1)) == ("and", ("atom", 0), ("atom", 1))
    assert k.or_(k.atom(0), k.atom(1)) == ("or", ("atom", 0), ("atom", 1))
    assert k.box(k.atom(0)) == ("box", ("atom", 0))
    assert k.dia(k.atom(0)) == ("dia", ("atom", 0))
    assert k.mu(k.X) == ("mu", ("var",))
    assert k.nu(k.X) == ("nu", ("var",))
    assert k.nub(k.X) == ("nub", ("var",))
    assert k.X == ("var",)
    assert k.TOP == ("or", ("atom", 0), ("natom", 0))


def test_validate_rejects_malformed(k):
    for bad in (
        ("atom",),
        ("atom", -1),
        ("and", ("atom", 0)),
        ("mu", ("var",), ("var",)),
        ("frob", 1),
        "atom",
    ):
        with pytest.raises(ValueError):
            k.validate(bad)


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda k: k.validate(("or", k.atom(1), ("var", 1))), "bad var node: ('var', 1)"),
        (lambda k: k.negate(("imp", k.atom(1), k.atom(2))), "unknown formula tag: 'imp'"),
        (lambda k: k.prime(("box", ("imp", k.atom(1)))), "unknown formula tag: 'imp'"),
        (lambda k: k.substitute(("dia", ("imp",)), k.TOP), "unknown formula tag: 'imp'"),
        (lambda k: k.level(("and", k.atom(1), ("imp",))), "unknown formula tag: 'imp'"),
    ],
    ids=["validate-var", "negate", "prime", "substitute", "level"],
)
def test_each_kernel_guard_names_what_it_refuses(k, call, text):
    with pytest.raises(ValueError) as exc:
        call(k)
    assert str(exc.value) == text


def test_size_oracles(k):
    assert k.size(("atom", 1)) == 1
    assert k.size(("and", ("atom", 1), ("atom", 2))) == 3
    assert k.size(("mu", ("var",))) == 2
    assert k.size(("mu", ("or", ("atom", 1), ("var",)))) == 4
    assert k.size(k.TOP) == 3


def test_level_oracles(k):
    assert k.level(("atom", 1)) == 0
    assert k.level(k.TOP) == 0
    assert k.level(("mu", ("var",))) == 1
    # box/dia are transparent, and/or take the max, binders add one
    f = ("mu", ("box", ("and", ("atom", 3), ("var",))))
    assert k.level(f) == 1
    g = ("nu", ("and", ("atom", 1),
                ("box", ("mu", ("or", ("atom", 2), ("dia", ("var",)))))))
    assert k.level(g) == 2


def test_negate_oracles(k):
    m = ("mu", ("or", ("atom", 1), ("var",)))
    assert k.negate(m) == ("nu", ("and", ("natom", 1), ("var",)))
    n = ("nu", ("and", ("atom", 1), ("var",)))
    assert k.negate(n) == ("mu", ("or", ("natom", 1), ("var",)))
    # both greatest-fixed-point tags negate to a least fixed point
    assert k.negate(k.prime(n)) == k.negate(n)
    assert k.negate(k.TOP) == ("and", ("natom", 0), ("atom", 0))


def test_prime_oracles(k):
    n = ("nu", ("and", ("atom", 1), ("var",)))
    assert k.prime(n) == ("nub", ("and", ("atom", 1), ("var",)))
    g = ("nu", ("and", ("atom", 1),
                ("box", ("mu", ("or", ("atom", 2), ("dia", ("var",)))))))
    assert k.prime(g) == (
        "nub",
        ("and", ("atom", 1),
         ("box", ("mu", ("or", ("atom", 2), ("dia", ("var",)))))),
    )
    # priming is the identity on formulas without plain nu
    assert k.prime(("mu", ("var",))) == ("mu", ("var",))
    assert k.prime(k.TOP) == k.TOP


def test_substitute_respects_binders(k):
    # the inner binder shadows: only the free occurrence is replaced
    body = ("and", ("var",), ("mu", ("var",)))
    assert k.substitute(body, k.atom(3)) == (
        "and", ("atom", 3), ("mu", ("var",))
    )


def test_iterate_oracles(k):
    a = ("or", ("atom", 2), ("var",))
    assert k.iterate(a, k.TOP, 0) == k.TOP
    assert k.iterate(a, k.TOP, 1) == ("or", ("atom", 2), k.TOP)
    assert k.iterate(a, k.TOP, 2) == (
        "or", ("atom", 2), ("or", ("atom", 2), k.TOP)
    )


def test_variable_predicates(k):
    m = ("mu", ("or", ("atom", 1), ("var",)))
    assert k.has_free_var(("var",))
    assert not k.has_free_var(m)
    assert k.has_free_var(m[1])
    assert k.occurs(m[1], ("var",))
    assert not k.occurs(("var",), m[1])


def test_language_predicates(k):
    g = ("nu", ("and", ("atom", 1), ("var",)))
    assert k.is_l0(g)
    assert not k.is_l0(k.prime(g))
    assert k.is_fully_primed(k.prime(g))
    assert not k.is_fully_primed(g)
    assert k.is_fully_primed(("atom", 1))  # vacuously: no plain nu
    assert k.max_nubar_level(("atom", 1)) == -1
    assert k.max_nubar_level(k.prime(g)) == 1
    assert is_k_positive(k.prime(g), 2)
    assert not is_k_positive(k.prime(g), 1)
    assert is_k_positive(("atom", 1), 1)


def test_replace_subterm(k):
    m = ("mu", ("var",))
    f = ("and", m, ("atom", 1))
    assert k.replace_subterm(f, m, k.TOP) == ("and", k.TOP, ("atom", 1))
    assert k.replace_subterm(f, ("atom", 9), k.TOP) == f
    # replacement descends under binders
    g = ("nu", ("and", ("var",), m))
    assert k.replace_subterm(g, m, ("atom", 2)) == (
        "nu", ("and", ("var",), ("atom", 2))
    )


def test_sort_key_orders_tags(k):
    fams = [
        ("atom", 0),
        ("natom", 0),
        ("var",),
        ("and", ("atom", 0), ("atom", 0)),
        ("or", ("atom", 0), ("atom", 0)),
        ("box", ("atom", 0)),
        ("dia", ("atom", 0)),
        ("mu", ("var",)),
        ("nu", ("var",)),
        ("nub", ("var",)),
    ]
    codes = [k.sort_key(f)[0] for f in fams]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_laws_on_random_formulas(k):
    for f in random_formulas(seed=20240801, count=500):
        k.validate(f)
        nf = k.negate(f)
        assert k.negate(nf) == f  # involution on the base language
        assert k.level(nf) == k.level(f)
        pf = k.prime(f)
        assert k.prime(pf) == pf  # idempotent
        assert k.level(pf) == k.level(f)
        assert k.negate(pf) == nf  # negation ignores priming
        assert k.negate(k.negate(pf)) == f  # double negation un-primes
        assert k.is_l0(nf)
        assert k.size(nf) == k.size(f)
        assert k.size(pf) == k.size(f)


def _ref_is_l0(f):
    """The recursive definition is_l0 had: no annotated binder."""
    t = f[0]
    if t == "nub":
        return False
    if t == "atom" or t == "natom" or t == "var":
        return True
    if t == "and" or t == "or":
        return _ref_is_l0(f[1]) and _ref_is_l0(f[2])
    return _ref_is_l0(f[1])


def _ref_is_fully_primed(f):
    """The recursive definition is_fully_primed had: no plain nu binder."""
    t = f[0]
    if t == "nu":
        return False
    if t == "atom" or t == "natom" or t == "var":
        return True
    if t == "and" or t == "or":
        return _ref_is_fully_primed(f[1]) and _ref_is_fully_primed(f[2])
    return _ref_is_fully_primed(f[1])


def test_language_predicates_match_their_recursive_definitions():
    # read off max_nubar_level and prime, on A1's formulas and their primes
    assert not hasattr(kernel.is_l0, "cache_info")
    forms = random_formulas(101, 10_000)
    forms += [kernel.prime(f) for f in forms]
    seen = set()
    for f in forms:
        want = (_ref_is_l0(f), _ref_is_fully_primed(f))
        assert (kernel.is_l0(f), kernel.is_fully_primed(f)) == want, f
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, True)}


def test_negate_is_a_homomorphism(k):
    rng = random.Random(7)
    forms = random_formulas(seed=991, count=60, max_size=12, max_level=2)
    for _ in range(60):
        a, b = rng.choice(forms), rng.choice(forms)
        assert k.negate(("and", a, b)) == ("or", k.negate(a), k.negate(b))
        assert k.negate(("or", a, b)) == ("and", k.negate(a), k.negate(b))
        assert k.negate(("box", a)) == ("dia", k.negate(a))
        assert k.negate(("dia", a)) == ("box", k.negate(a))


DATA_MEMOS = (
    kernel.sort_key,
    kernel.has_free_var,
    kernel.level,
    kernel.max_nubar_level,
    print_form,
)
# The memos that answer with formulas, each with a query that reaches it
# on a formula holding the atom x.
FORMULA_MEMOS = {
    kernel.negate: lambda x: kernel.negate(("box", x)),
    kernel.prime: lambda x: kernel.prime(("box", x)),
    kernel.unfolding: lambda x: kernel.unfolding(("mu", ("or", x, kernel.X))),
    kernel._chain: lambda x: kernel.iterate(("or", x, kernel.X), kernel.TOP, 2),
}


def _atom_indices(f):
    if f[0] in ("atom", "natom"):
        return [f[1]]
    return [i for g in f[1:] for i in _atom_indices(g)]


@pytest.mark.parametrize("bad", [("atom", True), ("atom", 1.0)])
def test_memos_do_not_admit_bad_atoms(bad):
    # ("atom", True) == ("atom", 1) and both hash alike (as does
    # ("atom", 1.0)), so a memo keyed on the formula answers for both
    good = ("atom", 1)
    answers = [fn(good) for fn in DATA_MEMOS]
    formulas = [query(good) for query in FORMULA_MEMOS.values()]
    with pytest.raises(ValueError):
        kernel.validate(bad)
    with pytest.raises(ValueError):
        Sequent((bad,))
    other = seq(("atom", 2))
    with pytest.raises(ValueError):
        other.add(bad)
    with pytest.raises(ValueError):
        other.add(("or", bad, good))
    with pytest.raises(ValueError):
        other.union([bad])
    # seen first, a bad atom is refused by the memos that answer with
    # formulas, which cache nothing, and does not change the answers of
    # the others
    for fn in DATA_MEMOS + tuple(FORMULA_MEMOS):
        fn.cache_clear()
    for query in FORMULA_MEMOS.values():
        with pytest.raises(ValueError):
            query(bad)
    assert [fn.cache_info().currsize for fn in FORMULA_MEMOS] == [0] * len(FORMULA_MEMOS)
    assert [fn(bad) for fn in DATA_MEMOS] == answers
    for fn, want in zip(DATA_MEMOS, answers):
        assert fn(good) == want
    for query, want in zip(FORMULA_MEMOS.values(), formulas):
        got = query(good)
        assert got == want
        assert {type(i) for i in _atom_indices(got)} == {int}
    assert Sequent((kernel.negate(good),)).forms == (("natom", 1),)
    # seen after a good atom, a bad one may be answered from the cache,
    # but a chain it lengthens is lengthened with the validated body
    kernel._chain.cache_clear()
    body, bad_body = ("or", good, kernel.X), ("or", bad, kernel.X)
    kernel.iterate(body, kernel.TOP, 1)
    for got in (kernel.iterate(bad_body, kernel.TOP, 3), kernel.iterate(body, kernel.TOP, 3)):
        assert {type(i) for i in _atom_indices(got)} == {int}


# ---------------------------------------------------------------------------
# the closure facts behind embed's trusted sequents

_ATOMS = st.builds(
    lambda positive, i: ("atom" if positive else "natom", i),
    st.booleans(),
    st.integers(0, 3),
)


def _grow(inner, bodies):
    return st.one_of(
        st.tuples(st.sampled_from(("and", "or")), inner, inner),
        st.tuples(st.sampled_from(("box", "dia")), inner),
        st.tuples(st.sampled_from(("mu", "nu", "nub")), bodies),
    )


# There is one variable, so an operator is any formula (X free where no
# binder is above it); a closed formula has X under binders only.
_OPERATORS = st.recursive(
    _ATOMS | st.just(kernel.X), lambda inner: _grow(inner, inner), max_leaves=8
)
_CLOSED = st.recursive(
    _ATOMS, lambda inner: _grow(inner, _OPERATORS), max_leaves=8
)


@settings(deadline=None, max_examples=100)
@given(_CLOSED, _CLOSED, _OPERATORS)
def test_kernel_derived_formulas_are_closed_and_valid(b, c, a):
    # monotonicity builds its sequents from these without checking them
    _check(b)
    _check(c)
    kernel.validate(a)
    derived = [
        kernel.substitute(kernel.negate(a), b),
        kernel.prime(kernel.substitute(a, c)),
    ]
    derived += [kernel.iterate(a, b, i) for i in range(4)]
    for f in derived:
        _check(f)
    # the writer quotes printed formulas without escaping them
    for f in [a, b, c] + derived:
        text = print_form(f)
        assert '"' not in text and "\\" not in text
