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

A Sequent is its frozenset of members.  Equality, hashing, length,
membership and every derived operation (add, union, without,
difference, dia, is_add and the subset tests) are set operations that
sort nothing; a Sequent argument is read through its set, never
iterated.  The canonical tuple is computed the first time the sequent
is iterated, printed or indexed through forms, and then kept, so only
the sequents something reads in order are ever sorted.

Besides its members a Sequent keeps two values derived from them, each
computed the first time it is asked for: the canonical tuple (_forms)
and the text the observation writer gives it (_text, set by
mucut.sexpr).  Both depend on the members alone, so a copy made with
Sequent(s) takes them along, and equality, hashing and repr ignore them.
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


def _canonical(members):
    """The members in canonical order."""
    return tuple(sorted(members, key=sort_key))


def _trusted(members):
    """A Sequent over a frozenset of checked formulas."""
    s = object.__new__(Sequent)
    _set_set(s, members)
    _set_forms(s, None)
    _set_text(s, None)
    return s


def _members(other):
    """The set behind a Sequent argument; any other argument as given."""
    return other._set if isinstance(other, Sequent) else other


class Sequent:
    """Immutable set of closed formulas, iterated in canonical order."""

    __slots__ = ("_set", "_forms", "_text")

    def __init__(self, forms=()):
        if isinstance(forms, Sequent):
            members, canon, text = forms._set, forms._forms, forms._text
        else:
            # dict keeps first-seen order, so the first bad member reported
            # does not depend on hash randomization
            distinct = dict.fromkeys(forms)
            for f in distinct:
                _check(f)
            members, canon, text = frozenset(distinct), None, None
        _set_set(self, members)
        _set_forms(self, canon)
        _set_text(self, text)

    def __setattr__(self, name, value):
        raise AttributeError("Sequent is immutable")

    @property
    def forms(self):
        """The members as a tuple in canonical order."""
        canon = self._forms
        if canon is None:
            canon = _canonical(self._set)
            _set_forms(self, canon)
        return canon

    def __contains__(self, f):
        return f in self._set

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self._set)

    def __eq__(self, other):
        return isinstance(other, Sequent) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __repr__(self):
        return "{%s}" % ", ".join(print_form(f) for f in self.forms)

    def union(self, other):
        """Union with another sequent or any iterable of formulas."""
        if isinstance(other, Sequent):
            if other._set <= self._set:
                return self
            return _trusted(self._set | other._set)
        new = [f for f in dict.fromkeys(other) if f not in self._set]
        if not new:
            return self
        for f in new:
            _check(f)
        return _trusted(self._set.union(new))

    def add(self, f):
        if f in self._set:
            return self
        _check(f)
        return _trusted(self._set | {f})

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
        return _trusted(self._set - {f})

    def difference(self, other):
        drop = self._set.intersection(_members(other))
        if not drop:
            return self
        return _trusted(self._set - drop)

    def issubset(self, other):
        return self._set.issubset(_members(other))

    def issuperset(self, other):
        return self._set.issuperset(_members(other))

    def members_in(self, other):
        """The members that are also in other, as a frozenset."""
        return self._set.intersection(_members(other))

    def dia(self):
        """The sequent {<>A : A in self}: <>A is closed and valid when A is."""
        return _trusted(frozenset([("dia", f) for f in self._set]))

    def level(self):
        return max(map(level, self._set), default=0)

    def max_nubar_level(self):
        return max(map(max_nubar_level, self._set), default=-1)


# Slot setters: the descriptors' own, which the __setattr__ guard cannot see.
_set_set = Sequent._set.__set__
_set_forms = Sequent._forms.__set__
_set_text = Sequent._text.__set__


def from_checked(forms):
    """The Sequent of forms, each already known to be a valid closed
    formula (as parse_formula returns them, or as a kernel operation
    derives them from checked members): duplicates are dropped, but
    nothing is checked again."""
    return _trusted(frozenset(forms))


def seq(*forms):
    return Sequent(forms)


def is_k_positive(s, k):
    """True when every nub-rooted subformula (of a formula or of every
    formula in a sequent) has level strictly below k."""
    if isinstance(s, Sequent):
        return s.max_nubar_level() < k
    return max_nubar_level(s) < k
