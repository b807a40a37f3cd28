"""Sequents: duplicate-free finite sets of formulas, canonically ordered
when read.

A sequent holds closed formulas only.  The canonical order is the total
order on syntax trees given by kernel.sort_key (constructor tag, then
children), so equal sets always have identical printed and serialized
forms.

Invariant: every member of an existing Sequent is a valid, closed
formula.  Raw formulas are checked where they enter (the constructor,
and the members of add/union arguments that are not yet in the
sequent); members taken from an existing Sequent are trusted, and so are
the formulas given to from_checked, whose caller has checked them
already, or knows them to be kernel-derived parts of checked members.

A Sequent is a frozenset of its members.  Membership, length, equality,
hashing, the subset tests, intersection and the set operators are
frozenset's own, so a Sequent equals and hashes like the frozenset of
its members.  add, union, without, difference and dia return Sequents,
and union checks raw members, so set algebra that wants a plain set
calls frozenset's method by name, as frozenset.union(s, t).  No set
operation sorts: CPython reads a set argument's entries, never its
__iter__.  Iteration is in canonical order; the canonical tuple (_forms)
is computed the first time the sequent is iterated, printed or read
through forms, and then kept, so only the sequents something reads in
order are ever sorted.  It depends on the members alone: Sequent(s) of a
Sequent is s itself, equality and hashing ignore it, and a copy or a
pickle carries the members only, checked again when it is rebuilt.
"""

from __future__ import annotations

from mucut.kernel import (
    has_free_var,
    level,
    max_nubar_level,
    sort_key,
    validate,
)
from mucut.syntax import print_form


def _check(f):
    """Raise ValueError unless f is a valid closed formula."""
    validate(f)
    if has_free_var(f):
        raise ValueError("sequent formula has a free variable: %s" % print_form(f))


def _canonical(s):
    """The members of the sequent s in canonical order."""
    return tuple(sorted(frozenset.__iter__(s), key=sort_key))


class Sequent(frozenset):
    """Immutable set of closed formulas, iterated in canonical order."""

    __slots__ = ("_forms",)

    def __new__(cls, forms=()):
        if isinstance(forms, Sequent):
            return forms
        # dict keeps first-seen order, so the first bad member reported
        # does not depend on hash randomization
        distinct = dict.fromkeys(forms)
        for f in distinct:
            _check(f)
        return from_checked(distinct)

    def __setattr__(self, name, value):
        raise AttributeError("Sequent is immutable")

    def __reduce__(self):
        # the members alone: the __setattr__ guard refuses slot state
        return Sequent, (tuple(frozenset.__iter__(self)),)

    @property
    def forms(self):
        """The members as a tuple in canonical order."""
        canon = self._forms
        if canon is None:
            canon = _canonical(self)
            _set_forms(self, canon)
        return canon

    def __iter__(self):
        return iter(self.forms)

    def __repr__(self):
        return "{%s}" % ", ".join(print_form(f) for f in self.forms)

    def union(self, other):
        """Union with another sequent or any iterable of formulas."""
        if isinstance(other, Sequent):
            if other <= self:
                return self
            return from_checked(self | other)
        new = [f for f in dict.fromkeys(other) if f not in self]
        if not new:
            return self
        for f in new:
            _check(f)
        return from_checked(frozenset.union(self, new))

    def add(self, f):
        if f in self:
            return self
        _check(f)
        return from_checked(self | {f})

    def is_add(self, g, f):
        """self == g.add(f), answered by membership when it holds: f is a
        member, g is a subset and the sizes agree.  Otherwise g.add(f) is
        built and compared, so an invalid f raises as add does."""
        grown = len(self) - len(g)
        if f in self and grown == (f not in g) and g <= self:
            return True
        return self == g.add(f)

    def without(self, f):
        """Remove f if present (no error when absent)."""
        if f not in self:
            return self
        return from_checked(self - {f})

    def difference(self, other):
        drop = self.intersection(other)
        if not drop:
            return self
        return from_checked(self - drop)

    def dia(self):
        """The sequent {<>A : A in self}: <>A is closed and valid when A is."""
        return from_checked([("dia", f) for f in frozenset.__iter__(self)])

    def level(self):
        return max(map(level, frozenset.__iter__(self)), default=0)

    def max_nubar_level(self):
        return max(map(max_nubar_level, frozenset.__iter__(self)), default=-1)


# The slot setter: the descriptor's own, which the __setattr__ guard cannot see.
_set_forms = Sequent._forms.__set__


def from_checked(forms):
    """The Sequent of forms, each already known to be a valid closed
    formula (as parse_formula returns them, or as a kernel operation
    derives them from checked members): duplicates are dropped, but
    nothing is checked again.  A set or dict argument's entries are
    copied with their stored hashes, so no formula is hashed again."""
    s = frozenset.__new__(Sequent, forms)
    _set_forms(s, None)
    return s


def seq(*forms):
    return Sequent(forms)


def is_k_positive(s, k):
    """True when every nub-rooted subformula (of a formula or of every
    formula in a sequent) has level strictly below k."""
    if isinstance(s, Sequent):
        return s.max_nubar_level() < k
    return max_nubar_level(s) < k
