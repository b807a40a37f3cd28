"""Sequents: canonical ordering and set operations."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucut.corpus import random_formulas
from mucut.kernel import atom, natom, prime, sort_key
from mucut import sequents
from mucut.proofs import Axiom, Observation
from mucut.sequents import (
    Sequent,
    from_checked,
    is_k_positive,
    seq,
)
from mucut.sexpr import observation_dumps
from mucut.syntax import parse_formula as pf
from mucut.syntax import print_form


def test_canonical_order_and_dedup():
    s = Sequent((pf("p1"), pf("~p0"), pf("p0"), pf("mu X . X"), pf("p1")))
    assert repr(s) == "{p0, p1, ~p0, mu X . X}"
    assert s.forms == (atom(0), atom(1), natom(0), ("mu", ("var",)))
    assert len(s) == 4
    # equal sets are equal sequents regardless of input order
    assert s == Sequent(reversed(s.forms))
    assert hash(s) == hash(Sequent(reversed(s.forms)))


def test_from_checked_orders_and_dedups_like_the_constructor():
    forms = random_formulas(seed=4242, count=40, max_size=8, max_level=2) * 2
    s = from_checked(reversed(forms))
    assert s.forms == Sequent(forms).forms
    assert set(s) == set(forms)
    assert from_checked(()) == Sequent()


def test_membership_and_iteration():
    s = seq(atom(1), natom(2))
    assert atom(1) in s
    assert atom(2) not in s
    assert list(s) == [atom(1), natom(2)]


def test_empty_sequent():
    s = Sequent()
    assert len(s) == 0
    assert s.level() == 0
    assert s.max_nubar_level() == -1


def test_immutability():
    s = seq(atom(1))
    with pytest.raises(AttributeError):
        s.forms = ()


@pytest.mark.parametrize("name", ["_forms", "other"])
def test_no_attribute_can_be_assigned(name):
    # the slot is set through its descriptor inside the module only
    for s in (seq(atom(1), natom(2)), from_checked([atom(1), natom(2)])):
        before = (frozenset(s), s._forms)
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        assert (frozenset(s), s._forms) == before


def test_a_copy_carries_the_kept_tuple():
    s = from_checked([natom(2), atom(1)])
    assert list(s) == [atom(1), natom(2)]
    assert s._forms == (atom(1), natom(2))
    assert Sequent(s) is s


def test_copies_and_pickles_rebuild_the_sequent_from_its_members():
    s = seq(pf("mu X . X"), natom(2), atom(1))
    assert list(s) == [atom(1), natom(2), pf("mu X . X")]
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is Sequent and twin == s and hash(twin) == hash(s)
        assert list(twin) == list(s)
    # rebuilt by the checking constructor from the members alone
    build, (members,) = s.__reduce__()
    assert build is Sequent and set(members) == set(s)
    with pytest.raises(ValueError):
        build(members + (("var",),))


def test_from_checked_sorts_once_on_first_iteration(monkeypatch):
    sorts = []

    def canonical(s):
        sorts.append(s)
        return tuple(sorted(frozenset.__iter__(s), key=sort_key))

    monkeypatch.setattr(sequents, "_canonical", canonical)
    s = from_checked([natom(2), atom(1), atom(1)])
    assert len(s) == 2 and atom(1) in s
    assert sorts == []
    assert list(s) == [atom(1), natom(2)]
    assert len(sorts) == 1 and sorts[0] is s
    assert list(s) == list(s.forms) == [atom(1), natom(2)]
    assert repr(s) == "{p1, ~p2}"
    assert len(sorts) == 1


def test_rejects_free_variables():
    # free variables, and malformed terms, through every entry point
    bad = (
        ("var",),
        ("or", ("atom", 1), ("var",)),
        ("foo",),
        ("and", ("atom", 0)),
        ("atom", -1),
        ("atom", True),
    )
    s = seq(atom(2), natom(3))
    for f in bad:
        with pytest.raises(ValueError):
            Sequent((atom(2), f))
        with pytest.raises(ValueError):
            s.add(f)
        with pytest.raises(ValueError):
            s.union((atom(2), f))


def test_set_operations():
    s = seq(atom(1), atom(2))
    assert s.add(atom(1)) is s
    assert s.add(atom(3)) == seq(atom(1), atom(2), atom(3))
    assert s.without(atom(1)) == seq(atom(2))
    assert s.without(atom(9)) is s
    assert s.union((atom(3), atom(1))) == seq(atom(1), atom(2), atom(3))
    assert s.difference((atom(1),)) == seq(atom(2))
    assert seq(atom(1)).issubset(s)
    assert not s.issubset(seq(atom(1)))
    assert s.dia() == seq(("dia", atom(1)), ("dia", atom(2)))


def test_levels():
    s = seq(atom(1), pf("mu X . X"), pf("nu X . mu X . X"))
    assert s.level() == 2
    assert s.max_nubar_level() == -1
    t = seq(prime(pf("nu X . (p1 & X)")), atom(0))
    assert t.max_nubar_level() == 1


def test_is_k_positive():
    n = prime(pf("nu X . (p1 & X)"))  # one nub at level 1
    assert is_k_positive(n, 2)
    assert not is_k_positive(n, 1)
    assert is_k_positive(seq(n, atom(1)), 2)
    assert not is_k_positive(seq(n, atom(1)), 1)
    assert is_k_positive(seq(atom(1)), 1)
    assert is_k_positive(Sequent(), 1)


def _rebuild(forms):
    """The reference: sort the distinct formulas from scratch."""
    return tuple(sorted(set(forms), key=sort_key))


@st.composite
def _two_draws(draw):
    """A small pool of closed formulas and two multisets drawn from it,
    so that the two often overlap."""
    pool = random_formulas(draw(st.integers(0, 2**32)), 10, max_size=8, max_level=2)
    index = st.integers(0, len(pool) - 1)
    a = [pool[i] for i in draw(st.lists(index, max_size=8))]
    b = [pool[i] for i in draw(st.lists(index, max_size=8))]
    return pool, a, b


@settings(deadline=None)
@given(_two_draws())
def test_fast_paths_match_rebuild(draws):
    pool, a, b = draws
    s, t = Sequent(a), Sequent(b)
    assert s.forms == _rebuild(a)
    results = [
        (Sequent(s), a),
        (s.union(t), a + b),
        (s.union(tuple(b)), a + b),
        (s.difference(b), [f for f in a if f not in b]),
        (s.difference(t), [f for f in a if f not in b]),
        (s.dia(), [("dia", f) for f in a]),
    ]
    for f in pool:
        results.append((s.add(f), a + [f]))
        results.append((s.without(f), [g for g in a if g != f]))
    for r, members in results:
        forms = _rebuild(members)
        want = Sequent(forms)
        assert r.forms == forms
        assert r == want and hash(r) == hash(want) and len(r) == len(forms)
        assert repr(r) == "{%s}" % ", ".join(map(print_form, forms))
        assert all((f in r) == (f in r.forms) for f in pool + [("dia", f) for f in pool])
    # a Sequent argument behaves as its set of members
    assert s & t == s.intersection(b) == set(a) & set(b)
    assert s.issuperset(t) == s.issuperset(frozenset(b)) == set(a).issuperset(b)
    assert s.issubset(t) == s.issubset(tuple(b)) == set(a).issubset(b)


_BAD = (("var",), ("atom", -1), ("frob", 1), ("or", ("atom", 0), ("var",)), 3)


@st.composite
def _good_and_bad(draw):
    """A list of closed formulas with some malformed ones mixed in."""
    good = random_formulas(draw(st.integers(0, 2**32)), 6, max_size=6, max_level=2)
    items = draw(st.lists(st.sampled_from(good + list(_BAD)), max_size=10))
    return good, items


def _first_error(f):
    with pytest.raises(ValueError) as exc:
        Sequent((f,))
    return str(exc.value)


@settings(deadline=None)
@given(_good_and_bad())
def test_first_bad_raw_member_is_reported_in_first_seen_order(draws):
    good, items = draws
    s = Sequent(good[:3])
    bad = [f for f in items if f in _BAD]
    if not bad:
        assert Sequent(items).forms == _rebuild(items)
        assert s.union(items).forms == _rebuild(good[:3] + items)
        return
    with pytest.raises(ValueError) as got:
        Sequent(items)
    assert str(got.value) == _first_error(bad[0])
    with pytest.raises(ValueError) as got:
        s.union(items)
    assert str(got.value) == _first_error(bad[0])


@st.composite
def _large_and_small(draw):
    """Up to 40 distinct formulas, and a list of up to six formulas new to
    them plus some of them again, so that union returns the sequent
    itself, inserts one new formula and sorts several."""
    pool = random_formulas(draw(st.integers(0, 2**32)), 48, max_size=8, max_level=2)
    order = draw(st.permutations(range(len(pool))))
    k = draw(st.integers(0, 40))
    a = [pool[i] for i in order[:k]]
    new = [pool[i] for i in order[k : k + draw(st.integers(0, 6))]]
    old = [pool[i] for i in draw(st.lists(st.sampled_from(order[:k] or [0])))]
    return pool, a, new + old


@settings(deadline=None)
@given(_large_and_small())
def test_union_and_membership_tests_match_rebuild(draws):
    pool, a, b = draws
    s, t = Sequent(a), Sequent(b)
    for u in (s.union(t), s.union(b), t.union(s), t.union(a)):
        assert u.forms == _rebuild(a + b)
        assert set(u) == set(a + b)
    assert s.issubset(t) == set(a).issubset(b) == s.issubset(tuple(b))
    assert s.issuperset(frozenset(b)) == set(a).issuperset(b)
    assert s.intersection(frozenset(b)) == set(a) & set(b)
    for f in pool[:8]:
        assert s.is_add(t, f) == (s == t.add(f))
        assert t.add(f).is_add(t, f)
        assert s.add(f).is_add(s, f)


def test_is_add_raises_as_add_does():
    s = seq(atom(1))
    for bad in (("var",), ("frob", 1)):
        with pytest.raises(ValueError) as want:
            s.add(bad)
        with pytest.raises(ValueError) as got:
            s.is_add(s, bad)
        assert str(got.value) == str(want.value)


def test_kept_text_is_ignored_by_equality_hashing_and_copies():
    s, t = seq(atom(1), natom(2)), seq(natom(2), atom(1))
    text = observation_dumps(Observation(s, Axiom(atom(1))))
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    same = Sequent(s)
    assert same == s == t and hash(same) == hash(t)
    assert observation_dumps(Observation(same, Axiom(atom(1)))) == text
    assert s.union(t) is s
