"""Proof checking.

The checker judges observation windows: check_observation reads a window
that proofs.observe made (each node's conclusion, rule, children, sampled
indices and probe deltas), forces nothing and keeps its report on the
window, per system and depth.  check_bounded judges the window observe
keeps on a proof; check_finite judges a finite proof node by node, each
in a one-step window that is kept nowhere, and rejects nu and
replacement rules without entering them.

One judge serves all three.  A node's own conditions are its rule's: the
judge flags every text of the tag's flaws(conclusion, k), the same
conditions the node builders of mucut.proofs refuse by.  Its premise
conditions are its rule class's premise function: it flags what concerns
the premises together (a box's diamond image, a cut's pair, an omegabar's
first premise) and says what each premise must conclude.  The judge alone
guards that function, and alone tests and pushes the premises, in one
loop.  A system is one value, System: its name, the rules it admits
and its index k, None for S and S-infinity, whose conclusions must be
in the base language.  The walk keeps an explicit stack, so no window is
too deep for it, and a premise's violation waits on the stack until the
subtree of the premise before it has been judged.  Paths are kept as
(parent, label) pairs and made into text only when a violation is
flagged.  Resource limits (fuel, stack depth) propagate as they do from
observe.

Premise shapes are read liberally: a node concluding C with principal
phi may present its context as C or as C minus phi (sequents are sets,
so both describe the same judgment; the wider reading is absorbed by
admissible weakening).  The box rule instead follows its recorded side
sequent exactly, and the induction rule allows no context at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from mucut.kernel import (
    TOP,
    iterate,
    level,
    max_nubar_level,
    negate,
    prime,
    substitute,
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
    Observation,
    Omega,
    OmegaBar,
    Or,
    _observe,
    observe,
    omega_phi,
    premise_added,
)
from mucut.sequents import Sequent
from mucut.syntax import print_form


@dataclass(frozen=True, slots=True)
class System:
    """A proof system: its name, the rule classes it admits and its index
    k, which bounds cut and replacement levels and primes the sides of a
    cut.  k is None for S and S-infinity, exactly the systems whose
    conclusions must be in the base language.  The rest of a node's
    well-formedness is its rule's own conditions."""

    name: str
    admitted: frozenset
    k: int | None


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


def parse_system(text):
    t = text.strip().lower()
    for system in (SYSTEM_S, SYSTEM_SINF):
        if t == system.name:
            return system
    for prefix in ("omega:", "omega-k="):
        if t.startswith(prefix):
            try:
                k = int(t[len(prefix) :])
            except ValueError:
                break
            return omega_system(k)
    raise ValueError("unknown system %r (want s, sinf, or omega:K)" % (text,))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple
    nodes_checked: int
    truncation_points: int


class _State:
    __slots__ = ("violations", "nodes", "truncs")

    def __init__(self):
        self.violations = []
        self.nodes = 0
        self.truncs = 0

    def flag(self, path, msg):
        self.violations.append((_path_text(path), msg))

    def report(self):
        return CheckReport(
            ok=not self.violations,
            violations=tuple(self.violations),
            nodes_checked=self.nodes,
            truncation_points=self.truncs,
        )


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


# The report label of finite premise j.
_PREMISE = ("premise 0", "premise 1")


# ---------------------------------------------------------------------------
# premises: one function per rule class.  Each flags what concerns the
# premises together, at the node's path, and returns what each premise in
# the window must conclude: None, or (context, principal, shapes, name).
# shapes[j] is what premise j adds to the context (None: nothing to test).
# name is None for a finite rule, whose violations are worded "premise j"
# and flagged at the node; otherwise it words the violation, flagged at the
# premise's own path.  Only _judge_node catches what they raise.


def _parts(c, tag, position, vouched):
    """What the premise at position adds to the context of an or, and, clo
    or nu node.  Unless the node had no flaws, which vouches for them, they
    are checked here, as adding them to a sequent would."""
    parts = premise_added(tag, position)
    if not vouched:
        c.without(tag.principal).union(parts)
    return parts


def _premise_violation(at, got, c, principal, parts, what):
    """A premise that keeps the context c must conclude c plus the parts,
    with or without the principal (a principal of None must stay): None
    if got does, else the violation, flagged at `at`.  The test is by set
    operations on the members, whose hashes the sets keep: got lies
    between c plus the parts and that set less the principal.  The
    expected sequents are built only to word a violation."""
    members = got._set
    upper = c._set.union(parts)
    if members <= upper:
        missing = len(upper) - len(members)
        if not missing:
            return None
        if missing == 1:
            # only the principal may be missing, and only if it is no part
            (gone,) = upper - members
            if gone == principal and principal not in parts:
                return None
    shapes = (c.union(parts),)
    if principal is not None:
        shapes = (c.without(principal).union(parts),) + shapes
    return at, "%s concludes %r, expected one of %s" % (
        what,
        got,
        " / ".join(repr(s) for s in shapes),
    )


def _context_premises(st, path, o, system, vouched):
    """Or, and and clo premises, and the sampled premises of a nu node."""
    c, tag = o.conclusion, o.rule
    if o.sampled is None:
        positions, name = range(tag.arity), None
    else:
        positions, name = o.sampled, "premise"
    return c, tag.principal, [_parts(c, tag, i, vouched) for i in positions], name


def _ind_premise(st, path, o, system, vouched):
    tag = o.rule  # the premise must conclude exactly ~A(b), b
    return Sequent((negate(substitute(tag.mu[1], tag.b)), tag.b)), None, ((),), None


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
    rest = o.rule.side._set | {principal}
    image = got.dia()._set
    if c._set != image | rest and c._set != (image - {("dia", a)}) | rest:
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
    want = c.add(tag.target)
    first = o.children[0].conclusion
    if first != want:
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


# ---------------------------------------------------------------------------
# the judge


def _judge_node(st, path, o, system, todo, depth):
    """Check one observed node that could be forced: its rule's conditions
    if the system admits the rule, then its premises, which go onto todo,
    last premise first, as (pending, child, path, depth) entries.  pending
    is None or the (path, text) of a violation in the premise's conclusion,
    flagged when the entry is popped, after the subtree of the premise
    before.  A premise that could not be produced has no child.  Resource
    limits propagate."""
    c, tag = o.conclusion, o.rule
    rule = type(tag)
    vouched = False
    try:
        if rule not in system.admitted:
            st.flag(path, "rule %s is not part of system %s" % (tag.name, system.name))
        else:
            if system.k is None and not c.is_l0():
                st.flag(path, "conclusion uses the primed language outside omega systems")
            flaws = tag.flaws(c, system.k)
            for text in flaws:
                st.flag(path, text)
            vouched = not flaws
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed tags must reject
        st.flag(path, "malformed rule tag: %s" % exc)
        return
    entry = _PREMISES.get(rule)
    if entry is None:
        return
    try:
        want = entry[0](st, path, o, system, vouched) or _UNTESTED
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed premises must reject
        st.flag(path, "%s: %s" % (entry[1], exc))
        want = _UNTESTED
    c, principal, shapes, name = want
    kids = o.children
    j = len(kids)
    labels = None  # a finite premise's label is its position
    if o.sampled is not None or o.probes is not None:
        st.truncs += 1
        labels = _labels(o)
    tested = len(shapes)
    while j:  # last premise first
        j -= 1
        q = kids[j]
        qpath = (path, j if labels is None else labels[j])
        got = q.conclusion
        pending = None
        if got is None:
            lost = "premise" if o.probes is None else "family"
            pending = (qpath, "%s evaluation failed: %s" % (lost, q.error))
            q = None
        elif j < tested and shapes[j] is not None:
            if name is None:
                at, what = path, _PREMISE[j]
            else:
                at, what = qpath, name
            pending = _premise_violation(at, got, c, principal, shapes[j], what)
        todo.append((pending, q, qpath, depth))


def check_observation(o, system, depth):
    """Judge a window that observe made to the given depth: every node
    above the depth bound is checked, with the premises the window holds.
    Nodes at the bound, and nu and replacement rules, whose premises are
    only sampled, count as truncation points.  The window keeps the
    report, so a repeated request returns it without judging again."""
    return o.keep((system, depth), _judge_window, o, system, depth)


def _judge_window(o, system, depth):
    st = _State()
    todo = [(None, o, "root", depth)]
    pop = todo.pop
    while todo:
        pending, o, path, depth = pop()
        if pending is not None:
            st.flag(*pending)
            if o is None:
                continue
        if depth == 0:
            st.truncs += 1
        elif o.error is not None:
            st.flag(path, "node evaluation failed: %s" % o.error)
        else:
            st.nodes += 1
            _judge_node(st, path, o, system, todo, depth - 1)
    return st.report()


def check_bounded(p, system, depth, samples=(0, 1, 2), probe_budget=1):
    """Check every node reachable within the observation window; the
    window and its report are the ones observe and check_observation keep."""
    return check_observation(
        observe(p, depth, samples, probe_budget), system, depth
    )


def check_finite(p, system=SYSTEM_S):
    """Exhaustively check a finite proof, node by node in preorder over an
    explicit stack.  Each node is judged in its own window: the node
    observed to depth 0, with its premises observed to depth 0 as
    children, so all its premise checks come before its subtrees.  A
    premise's depth-0 observation, made for its parent's window, is the
    root of its own.  Nu and replacement rules are rejected as they are
    met, so nothing below them is forced or observed."""
    st = _State()
    todo = [("root", p, _observe(p, 0, (), 0))]
    while todo:
        path, q, o = todo.pop()
        if o.error is not None:
            st.flag(path, "node evaluation failed: %s" % o.error)
            continue
        st.nodes += 1
        if not isinstance(o.rule.arity, int):
            st.flag(
                path,
                "rule %s has infinitely many premises and cannot occur in a "
                "finite proof" % o.rule.name,
            )
            continue
        premises = q.premises  # forced by its window already
        kids = tuple([_observe(r, 0, (), 0) for r in premises])
        window = []
        _judge_node(st, path, Observation(o.conclusion, o.rule, kids), system, window, 0)
        for pending, _, _, _ in reversed(window):
            if pending is not None:
                st.flag(*pending)
        for j in range(len(premises) - 1, -1, -1):
            todo.append(((path, j), premises[j], kids[j]))
    return st.report()


def level_bound(p):
    """Max formula level over all sequents of a finite proof: the index of
    the intermediate system its embedding lands in.  Each node is visited
    once, in preorder, and each distinct formula's level taken once."""
    forms = set()
    seen = set()  # proofs hash by identity
    todo = [p]
    while todo:
        q = todo.pop()
        if q in seen:
            continue
        seen.add(q)
        forms.update(q.conclusion._set)
        todo.extend(reversed(tuple(q.premises)))
    return max(map(level, forms), default=0)


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
            new = (substitute(f[1], f),)
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
    of the endsequent and mentions no nub anywhere."""
    max_index = max(samples, default=0)
    closure = approximant_closure(p.conclusion, max_index)
    st = _State()
    todo = [(observe(p, depth, samples, probe_budget), "root", "premise")]
    while todo:
        o, path, lost = todo.pop()
        if o.error is not None:
            # worded as the judge words it: a leaf with a conclusion is a
            # node that could not be forced, one without is a premise or
            # family output that could not be produced
            what = "node" if o.conclusion is not None else lost
            st.flag(path, "%s evaluation failed: %s" % (what, o.error))
            continue
        st.nodes += 1
        for f in o.conclusion:
            if max_nubar_level(f) >= 0:
                st.flag(path, "formula %s mentions nub" % print_form(f))
            if f not in closure:
                st.flag(
                    path, "formula %s outside the approximant closure" % print_form(f)
                )
        lost = "premise" if type(o.rule) is Nu else "family"
        todo.extend(
            reversed([(q, (path, label), lost) for label, q in zip(_labels(o), o.children)])
        )
    return st.report()
