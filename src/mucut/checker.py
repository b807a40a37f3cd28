"""Proof checking.

The checker judges observation windows: check_observation reads a window
that proofs.observe made (each node's conclusion, rule, children, sampled
indices and probe deltas), forces nothing and keeps its report on the
window, per system and depth.  check_bounded judges the window observe
gives a proof; check_finite judges a finite proof's own nodes, keeps
its level bound on a pass, and rejects nu and replacement rules without
entering them.

One judge serves all three, in one given system.  A node's own
conditions are its rule's: the judge flags every text of the tag's
flaws(conclusion, k), the same conditions the node builders of
mucut.proofs refuse by, and in S and S-infinity a conclusion outside
the base language, each distinct formula tested once per judgement.
Its premise conditions are its rule class's premise function: it flags
what concerns the premises together (a box's diamond image, a cut's
pair, an omegabar's first premise) and says what each premise must
conclude.  A system is one value, System: its name, the rules it admits
and its index k, None for S and S-infinity, whose conclusions must be in
the base language.

One walk over an explicit stack, so that no window is too deep for it,
drives the judge and subformula_report's closure test, and reports in
one order: a node's violations, then its premises' first to last (what
each must conclude, or that it could not be produced), then each
premise's subtree in turn.  The judge flags a rule its system leaves
out at the depth bound too, and takes a spliced window, one that
windows hold more than once (proofs.observe), as one subtree: its own
report.  Only the judge and the writer read the flag; a window's facts
are read off its whole tree.
Paths are kept as (parent, label) pairs and made into text only when a
violation is flagged.  Resource limits (fuel, stack depth) propagate as
they do from observe.

A window judged in one system answers for a second when nothing in its
kept facts tells the two apart: no cut, omega or omegabar, whose
conditions depend on the index; no rule, even at the depth bound, that
either system leaves out; and no member outside the base language,
unless both systems or neither test for that.  Else it is judged afresh.

Premise shapes are read liberally: a node concluding C with principal
phi may present its context as C or as C minus phi (sequents are sets,
so both describe the same judgment; the wider reading is absorbed by
admissible weakening).  The box rule instead follows its recorded side
sequent exactly, and the induction rule allows no context at all.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial

from mucut.kernel import (
    TOP,
    iterate,
    level,
    max_nubar_level,
    negate,
    prime,
    substitute,
    unfolding,
)
from mucut.proofs import (
    _LIMITS,
    FINITE_TAGS,
    FIRST,
    SINF_TAGS,
    And,
    Axiom,
    Box,
    Clo,
    Cut,
    Ind,
    Nu,
    Omega,
    OmegaBar,
    Or,
    finite_nodes,
    observation_rules,
    observation_sequents,
    observe,
    omega_phi,
    premise_added,
)
from mucut.sequents import Sequent, from_checked
from mucut.syntax import print_form


# A proof system: its name, the rule classes it admits and its index k,
# which bounds cut and replacement levels and primes the sides of a cut.
# k is None for S and S-infinity, exactly the systems whose conclusions
# must be in the base language.  The rest of a node's well-formedness is
# its rule's own conditions.
System = namedtuple("System", "name admitted k")


SYSTEM_S = System("s", frozenset(FINITE_TAGS), None)
SYSTEM_SINF = System("sinf", frozenset(SINF_TAGS), None)
_OMEGA_TAGS = (Axiom, Or, And, Box, Clo, Nu, Cut)


def omega_system(k):
    """The intermediate system Omega_k; it admits the replacement rules
    from k = 1 on."""
    if k < 0:
        raise ValueError("system index must be at least 0")
    admitted = _OMEGA_TAGS + ((Omega, OmegaBar) if k >= 1 else ())
    return System("omega:%d" % k, frozenset(admitted), k)


# omega:K as omega_system names it (K in ASCII digits, no leading zero);
# a negative K is read too, so that omega_system words its error
_OMEGA_NAME = re.compile(r"omega:(0|-?[1-9][0-9]*)")


def parse_system(text):
    """The system whose name is text, spelled exactly as System.name gives
    it: s, sinf or omega:K."""
    for system in (SYSTEM_S, SYSTEM_SINF):
        if text == system.name:
            return system
    m = _OMEGA_NAME.fullmatch(text)
    if m is None:
        raise ValueError("unknown system %r (want s, sinf, or omega:K)" % (text,))
    return omega_system(int(m.group(1)))


CheckReport = namedtuple("CheckReport", "ok violations nodes_checked truncation_points")


class _State:
    """A judgement in progress; known holds the formulas found in L0."""

    __slots__ = ("violations", "nodes", "truncs", "known")

    def __init__(self):
        self.violations = []
        self.nodes = 0
        self.truncs = 0
        self.known = set()

    def flag(self, path, msg):
        self.violations.append((_path_text(path), msg))

    def report(self):
        return CheckReport(
            ok=not self.violations,
            violations=tuple(self.violations),
            nodes_checked=self.nodes,
            truncation_points=self.truncs,
        )


# The label of a walk's root, which begins the text of every path.
_ROOT = "root"


def _path_text(path):
    """The text of a path kept as nested (parent, label) pairs below "root":
    the labels joined by dots, as "root.0.w2"."""
    labels = []
    while type(path) is tuple:
        path, label = path
        labels.append(label)
    labels.append(path)
    return ".".join(map(str, reversed(labels)))


def _labels(o):
    """The path label of each child of an observed node: "w<i>" for the nu
    premise at sampled index i, "first" for an omegabar's first premise,
    "p<k>" for the family output on the k-th probe and j for finite
    premise j."""
    if o.sampled is not None:
        return ["w%d" % i for i in o.sampled]
    if o.probes is None:
        return range(len(o.children))
    labels = ["p%d" % k for k in range(len(o.probes))]
    if type(o.rule) is OmegaBar:
        labels.insert(0, FIRST)
    return labels


def outside_l0(sequents, known=frozenset()):
    """The members of the sequents outside the base language, those with a
    nub binder.  Each distinct formula is tested once.  Given known, a set
    of formulas already found inside, those are not tested again and
    known gains the ones found inside now."""
    forms = set().union(*sequents) - known
    out = {f for f in forms if max_nubar_level(f) >= 0}
    known |= forms - out
    return out


def in_l0(o):
    """Whether every conclusion in the window o is in the base language: a
    window fact, worked out once and kept on o."""
    return o.keep("l0", lambda: not outside_l0(observation_sequents(o)))


# The report label of finite premise j.
_PREMISE = ("premise 0", "premise 1")


# ---------------------------------------------------------------------------
# premises: one function per rule class.  Each flags what concerns the
# premises together, at the node's path, and returns what each premise in
# the window must conclude: None, or (context, principal, shapes, name).
# shapes[j] is what premise j adds to the context (None: nothing to test).
# name is None for a finite rule, whose violations are worded "premise j"
# and flagged at the node; otherwise it words the violation, flagged at the
# premise's own path.  Only _judge catches what they raise.


def _parts(c, tag, position, vouched):
    """What the premise at position adds to the context of an or, and, clo
    or nu node.  Unless the node had no flaws, which vouches for them, they
    are checked here, as adding them to a sequent would."""
    parts = premise_added(tag, position)
    if not vouched:
        c.without(tag.principal).union(parts)
    return parts


def _check_premise(st, at, got, c, principal, parts, what):
    """A premise that keeps the context c must conclude c plus the parts,
    with or without the principal (a principal of None must stay): if got
    does not, flag it at `at`.  The test is by set operations on the
    members, whose hashes the sets keep: got lies between c plus the
    parts and that set less the principal.  The expected sequents are
    built only to word a violation."""
    upper = frozenset.union(c, parts)
    if got <= upper:
        missing = len(upper) - len(got)
        if not missing:
            return
        if missing == 1:
            # only the principal may be missing, and only if it is no part
            (gone,) = upper - got
            if gone == principal and principal not in parts:
                return
    shapes = (c.union(parts),)
    if principal is not None:
        shapes = (c.without(principal).union(parts),) + shapes
    st.flag(at, "%s concludes %r, expected one of %s" % (
        what,
        got,
        " / ".join(repr(s) for s in shapes),
    ))


def _context_premises(st, path, o, system, vouched):
    """Or, and and clo premises, and the sampled premises of a nu node."""
    c, tag = o.conclusion, o.rule
    if o.sampled is None:
        positions, name = range(tag.arity), None
    else:
        positions, name = o.sampled, "premise"
    return c, tag.principal, [_parts(c, tag, i, vouched) for i in positions], name


def _ind_premise(st, path, o, system, vouched):
    # the premise must conclude exactly ~A(b), b, derived from the checked
    # members of a vouched node's conclusion
    tag = o.rule
    want = (negate(substitute(tag.mu[1], tag.b)), tag.b)
    return (from_checked if vouched else Sequent)(want), None, ((),), None


def _box_premise(st, path, o, system, vouched):
    c, principal = o.conclusion, o.rule.principal
    got = o.children[0].conclusion
    a = principal[1]
    if a not in got:
        st.flag(path, "box premise lacks the body %s" % print_form(a))
        return
    if principal not in c:
        Sequent((principal,))  # a malformed principal raises here
    # compare sets: the diamond image of the premise with or without its
    # body, the principal and the side
    rest = o.rule.side | {principal}
    image = got.dia()
    if c != image | rest and c != (image - {("dia", a)}) | rest:
        st.flag(
            path,
            "box conclusion %r does not match the diamond image of its premise %r"
            % (c, got),
        )


def _cut_premises(st, path, o, system, vouched):
    c, f = o.conclusion, o.rule.formula
    left, right = o.children[0].conclusion, o.children[1].conclusion
    if system.k is not None:
        pair = (prime(f), prime(negate(f)))
    else:
        pair = (f, negate(f))
    # tested by membership; the expected sequents are built only to word
    # a violation
    if left.is_add(c, pair[0]) and right.is_add(c, pair[1]):
        return
    if left.is_add(c, pair[1]) and right.is_add(c, pair[0]):
        return
    want = {c.add(pair[0]), c.add(pair[1])}
    st.flag(
        path,
        "cut premises conclude %s, expected %s (either order)"
        % (sorted(map(repr, {left, right})), sorted(map(repr, want))),
    )


def _family_premises(st, path, o, system, vouched):
    c, tag = o.conclusion, o.rule
    if type(tag) is Omega:
        return c, omega_phi(tag.target), o.probes, "family output"
    first = o.children[0].conclusion
    if first is None or not first.is_add(c, tag.target):
        want = c.add(tag.target)
        st.flag(path, "first premise concludes %r, expected %r" % (first, want))
    return c, None, (None,) + o.probes, "family output"


_UNTESTED = (None, None, (), None)  # no premise shapes: nothing to test

# Each rule class's premise function, and the words that flag what it raises.
_PREMISES = {
    Or: (_context_premises, "premise shapes undefined"),
    And: (_context_premises, "premise shapes undefined"),
    Clo: (_context_premises, "premise shapes undefined"),
    Nu: (_context_premises, "premise shapes undefined"),
    Ind: (_ind_premise, "premise shapes undefined"),
    Box: (_box_premise, "malformed box rule"),
    Cut: (_cut_premises, "malformed cut rule"),
    Omega: (_family_premises, "premise shapes undefined"),
    OmegaBar: (_family_premises, "premise shapes undefined"),
}

# The rules whose conditions depend on a system's index.
_INDEXED = frozenset((Cut, Omega, OmegaBar))

# The rules of infinitely many premises.
_INFINITARY = frozenset((Nu, Omega, OmegaBar))

_LEFT_OUT = "rule %s is not part of system %s"


# ---------------------------------------------------------------------------
# the walk and the judge


def _walk(root, depth, visit, system=None):
    """The judgement (_State) of a window walked to the given depth; a
    negative depth never reaches the bound, so a finite proof is walked
    whole as its own window.  A node at the bound is a truncation point
    and an error leaf a violation.  Any other node is counted and handed
    to visit(st, path, node), which checks it and returns what its
    premises must conclude, (context, principal, shapes, name), or None
    to enter none of them.  The premises are then tested first to last,
    each violation flagged at once, and those that could be produced are
    pushed, so that each premise's subtree is judged after all of them.
    Reading a premise's error forces a proof's premise: a proof's nodes
    are forced when their parent is judged, first to last.

    Given the system judged in, a truncation point that is no error leaf
    is flagged if the system leaves its rule out, and a spliced window
    below the root adds its kept report check_observation(window, system,
    depth): its counts, and its violations re-rooted at the window's path."""
    st = _State()
    todo = [(root, _ROOT, depth)]
    pop, insert = todo.pop, todo.insert
    while todo:
        o, path, depth = pop()
        if depth == 0:
            st.truncs += 1
            if system is not None and o.error is None and type(o.rule) not in system.admitted:
                st.flag(path, _LEFT_OUT % (o.rule.name, system.name))
            continue
        if o.spliced and system is not None and o is not root:
            report = check_observation(o, system, depth)
            st.nodes += report.nodes_checked
            st.truncs += report.truncation_points
            if report.violations:
                at, cut = _path_text(path), len(_ROOT)
                st.violations += [(at + v[cut:], msg) for v, msg in report.violations]
            continue
        error = o.error
        if error is not None:
            st.flag(path, "node evaluation failed: %s" % error)
            continue
        st.nodes += 1
        want = visit(st, path, o)
        if want is None:
            continue
        c, principal, shapes, name = want
        labels = None  # a finite premise's label is its position
        if o.sampled is not None or o.probes is not None:
            labels = _labels(o)
        top, tested, depth = len(todo), len(shapes), depth - 1
        for j, q in enumerate(o.children):
            qpath = (path, j if labels is None else labels[j])
            error = q.error
            got = q.conclusion
            if got is None:
                lost = "premise" if o.probes is None else "family"
                st.flag(qpath, "%s evaluation failed: %s" % (lost, error))
                continue
            if j < tested and shapes[j] is not None:
                if name is None:
                    _check_premise(st, path, got, c, principal, shapes[j], _PREMISE[j])
                else:
                    _check_premise(st, qpath, got, c, principal, shapes[j], name)
            insert(top, (q, qpath, depth))  # below the premises before it
    return st


def _judge(system, st, path, o):
    """The judge's check of one node that could be forced, in one system:
    its rule's conditions if the system admits the rule, then what
    concerns its premises together.  It returns what each premise must
    conclude, or None to enter none: for a rule tag its conditions raise
    on, where the system admits it, for a rule with no premise function,
    and for an infinitary rule read with neither samples nor probes, as a
    finite proof's own node is.  Resource limits propagate."""
    c, tag = o.conclusion, o.rule
    rule = type(tag)
    if rule in _INFINITARY and o.sampled is None and o.probes is None:
        st.flag(
            path,
            "rule %s has infinitely many premises and cannot occur in a "
            "finite proof" % tag.name,
        )
        return None
    vouched = False
    try:
        if rule not in system.admitted:
            st.flag(path, _LEFT_OUT % (tag.name, system.name))
        else:
            if (
                system.k is None
                and not c <= st.known
                and outside_l0((c,), st.known)
            ):
                st.flag(path, "conclusion uses the primed language outside omega systems")
            flaws = tag.flaws(c, system.k)
            for text in flaws:
                st.flag(path, text)
            vouched = not flaws
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed tags must reject
        st.flag(path, "malformed rule tag: %s" % exc)
        return None
    entry = _PREMISES.get(rule)
    if entry is None:
        return None
    try:
        want = entry[0](st, path, o, system, vouched) or _UNTESTED
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed premises must reject
        st.flag(path, "%s: %s" % (entry[1], exc))
        want = _UNTESTED
    if o.sampled is not None or o.probes is not None:
        st.truncs += 1
    return want


def _judge_window(o, system, depth):
    """The judgement (_State) of a window observed to the given depth; a
    spliced window below o adds the report it keeps for the system."""
    return _walk(o, depth, partial(_judge, system), system)


def check_observation(o, system, depth):
    """Judge a window that observe made to the given depth: every node
    above the depth bound is checked, with the premises the window holds,
    and at the bound only whether the system admits its rule.  Nodes at
    the bound, and nu and replacement rules, whose premises are only
    sampled, count as truncation points.  The window keeps the
    report per system and depth, so a repeated request returns it without
    judging again, and per depth the first system it was judged in: a
    system the window is neutral between (_neutral) gets that system's
    report.  A spliced window below o is judged as its own window, at the
    depth left there, and its report kept on it is added to o's."""
    return o.keep((system, depth), _report, o, system, depth)


def _report(o, system, depth):
    first = o.kept.get(depth)
    if first is not None and _neutral(o, first, system):
        return o.kept[first, depth]
    report = _judge_window(o, system, depth).report()
    o.kept.setdefault(depth, system)
    return report


def _neutral(o, a, b):
    """Whether the window o, judged in system a, judges the same in system
    b, read off its facts: no rule in it, at the depth bound too, where
    the judge reads it as well, depends on the index or is left out by
    either system (an error leaf's None is in none), and the base-language
    test is made in both systems or in neither, or finds none outside."""
    rules = set(map(type, observation_rules(o)))
    if not rules.isdisjoint(_INDEXED) or not rules <= a.admitted & b.admitted:
        return False
    return (a.k is None) == (b.k is None) or in_l0(o)


def check_bounded(p, system, depth, samples=(0, 1, 2), probe_budget=1):
    """Check every node reachable within the observation window; the
    window and its report are the ones observe and check_observation keep."""
    return check_observation(
        observe(p, depth, samples, probe_budget), system, depth
    )


def check_finite(p, system=SYSTEM_S):
    """Exhaustively check a finite proof: the judge reads it as its own
    window, walked whole, so a proof of finite rules reports as
    check_bounded does at any depth beyond its height, and no Observation
    is made.  Each node is forced once, when its parent is judged.  One judgement runs
    through every node, so the L0 test asks each distinct formula once
    per call, and on a pass in S or S-infinity p keeps the max level of
    those formulas as its level_bound.  Nu and replacement rules are
    rejected as they are met, so nothing below them is forced."""
    st = _walk(p, -1, partial(_judge, system))
    if system.k is None and not st.violations:
        p.kept()["level"] = max(map(level, st.known), default=0)
    return st.report()


def level_bound(p):
    """Max formula level over all sequents of a finite proof: the index of
    the intermediate system its embedding lands in.  p keeps it, from
    check_finite or from one walk that visits each node once."""
    kept = p.kept()
    if "level" not in kept:
        forms = set().union(*[q.conclusion for q in finite_nodes(p)])
        kept["level"] = max(map(level, forms), default=0)
    return kept["level"]


# ---------------------------------------------------------------------------
# approximant closure


def approximant_closure(s, max_index):
    """Least set containing the sequent's formulas, closed under immediate
    subformulas, mu unfolding, and nu approximants up to max_index."""
    todo = list(s)
    seen = set(todo)
    while todo:
        f = todo.pop()
        t = f[0]
        if t in ("and", "or"):
            new = (f[1], f[2])
        elif t in ("box", "dia"):
            new = (f[1],)
        elif t == "mu":
            new = (unfolding(f),)
        elif t == "nu":
            new = tuple(iterate(f[1], TOP, i) for i in range(max_index + 1))
        else:
            new = ()
        for g in new:
            if g not in seen:
                seen.add(g)
                todo.append(g)
    return seen


def subformula_report(p, depth, samples=(0, 1, 2), probe_budget=1):
    """Verify every observed sequent stays inside the approximant closure
    of the endsequent and mentions no nub anywhere.  The judge's walk
    goes over the whole window, so its error leaves are flagged as the
    judge flags them."""
    closure = approximant_closure(p.conclusion, max(samples, default=0))

    def visit(st, path, o):
        for f in o.conclusion:
            if max_nubar_level(f) >= 0:
                st.flag(path, "formula %s mentions nub" % print_form(f))
            if f not in closure:
                st.flag(
                    path, "formula %s outside the approximant closure" % print_form(f)
                )
        return _UNTESTED

    return _walk(observe(p, depth, samples, probe_budget), -1, visit).report()
