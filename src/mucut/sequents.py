"""Sequents: canonically ordered, duplicate-free finite sets of formulas.

A sequent holds closed formulas only.  The canonical order is the total
order on syntax trees given by kernel.sort_key (constructor tag, then
children), so equal sets always have identical printed and serialized
forms.

Invariant: every member of an existing Sequent is a valid, closed
formula, and its members are in canonical order.  Raw formulas are
checked where they enter (the constructor, and the members of add/union
arguments that are not yet in the sequent); members taken from an
existing Sequent are trusted, and so are the formulas given to
from_checked, whose caller has checked them already.  The derived
operations rely on this:

  * add inserts the one new formula at its place in the order;
  * union with a Sequent re-checks nothing, and sorts only when more
    than one formula is new;
  * without and difference keep a subsequence, which is still sorted;
  * dia maps in order, since sort_key(<>A) is the dia tag code followed
    by sort_key(A), and <>A is closed and valid when A is;
  * is_add answers s == g.add(f) by membership, building nothing when
    it holds, since a member f is already checked.
"""

from __future__ import annotations

from bisect import bisect

from mucut.kernel import (
    has_free_var,
    is_l0,
    level,
    max_nubar_level,
    replace_subterm,
    sort_key,
    validate,
)
from mucut.syntax import print_form


def _check(f):
    """Raise ValueError unless f is a valid closed formula."""
    validate(f)
    if has_free_var(f):
        raise ValueError("sequent formula has a free variable: %s" % print_form(f))


def _trusted(forms, members):
    """A Sequent from a canonical tuple of checked formulas and its set."""
    s = object.__new__(Sequent)
    object.__setattr__(s, "forms", forms)
    object.__setattr__(s, "_set", members)
    return s


class Sequent:
    """Immutable canonical set of closed formulas."""

    __slots__ = ("forms", "_set")

    def __init__(self, forms=()):
        if isinstance(forms, Sequent):
            canon, members = forms.forms, forms._set
        else:
            # dict keeps first-seen order, so the first bad member reported
            # does not depend on hash randomization
            distinct = dict.fromkeys(forms)
            for f in distinct:
                _check(f)
            canon = tuple(sorted(distinct, key=sort_key))
            members = frozenset(canon)
        object.__setattr__(self, "forms", canon)
        object.__setattr__(self, "_set", members)

    def __setattr__(self, name, value):
        raise AttributeError("Sequent is immutable")

    def __contains__(self, f):
        return f in self._set

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)

    def __eq__(self, other):
        return isinstance(other, Sequent) and self.forms == other.forms

    def __hash__(self):
        return hash(self.forms)

    def __repr__(self):
        return "{%s}" % ", ".join(print_form(f) for f in self.forms)

    def _insert(self, f):
        i = bisect(self.forms, sort_key(f), key=sort_key)
        return _trusted(self.forms[:i] + (f,) + self.forms[i:], self._set | {f})

    def union(self, other):
        """Union with another sequent or any iterable of formulas."""
        if isinstance(other, Sequent):
            new = [f for f in other.forms if f not in self._set]
        else:
            new = [f for f in dict.fromkeys(other) if f not in self._set]
            for f in new:
                _check(f)
        if not new:
            return self
        if len(new) == 1:
            return self._insert(new[0])
        forms = tuple(sorted(self.forms + tuple(new), key=sort_key))
        return _trusted(forms, self._set.union(new))

    def add(self, f):
        if f in self._set:
            return self
        _check(f)
        return self._insert(f)

    def is_add(self, g, f):
        """self == g.add(f), answered by membership when it holds: f is a
        member, g is a subset and the sizes agree.  Otherwise g.add(f) is
        built and compared, so an invalid f raises as add does."""
        grown = len(self._set) - len(g._set)
        if f in self._set and grown == (f not in g._set) and g._set <= self._set:
            return True
        return self == g.add(f)

    def without(self, f):
        """Remove f if present (no error when absent)."""
        if f not in self._set:
            return self
        i = self.forms.index(f)
        return _trusted(self.forms[:i] + self.forms[i + 1 :], self._set - {f})

    def difference(self, other):
        drop = self._set.intersection(other)
        if not drop:
            return self
        forms = tuple(g for g in self.forms if g not in drop)
        return _trusted(forms, self._set - drop)

    def issubset(self, other):
        if isinstance(other, Sequent):
            return self._set <= other._set
        return self._set <= frozenset(other)

    def issuperset(self, other):
        return self._set.issuperset(other)

    def members_in(self, other):
        """The members that are also in other, as a frozenset."""
        return self._set.intersection(other)

    def dia(self):
        """The sequent {<>A : A in self}."""
        forms = tuple(("dia", f) for f in self.forms)
        return _trusted(forms, frozenset(forms))

    def level(self):
        return max(map(level, self.forms), default=0)

    def is_l0(self):
        return all(map(is_l0, self.forms))

    def max_nubar_level(self):
        return max(map(max_nubar_level, self.forms), default=-1)


def from_checked(forms):
    """The Sequent of forms, each already known to be a valid closed
    formula (as parse_formula returns them): duplicates are dropped and
    the rest put in canonical order, but nothing is checked again."""
    members = frozenset(forms)
    return _trusted(tuple(sorted(members, key=sort_key)), members)


def seq(*forms):
    return Sequent(forms)


def is_k_positive(s, k):
    """True when every nub-rooted subformula (of a formula or of every
    formula in a sequent) has level strictly below k."""
    if isinstance(s, Sequent):
        return s.max_nubar_level() < k
    return max_nubar_level(s) < k


def replace_fixpoint(s, target, b):
    """Replace every occurrence of the subformula target by b, in every
    formula of s (descending under binders), renormalizing as a set."""
    return Sequent(replace_subterm(f, target, b) for f in s)
