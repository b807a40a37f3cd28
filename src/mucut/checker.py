"""Proof checking.

The checker judges observation windows: check_observation reads a window
that proofs.observe made (each node's conclusion, rule, children, sampled
indices and probe deltas) and forces nothing.  check_bounded observes any
proof to a depth and judges that window; check_finite judges a finite
proof node by node, each in its one-step window, and rejects nu and
replacement rules without entering them.

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
    is_fully_primed,
    is_l0,
    iterate,
    level,
    max_nubar_level,
    negate,
    prime,
    substitute,
)
from mucut.proofs import (
    FINITE_TAGS,
    FIRST,
    SINF_TAGS,
    And,
    Axiom,
    AxiomMu,
    Box,
    Clo,
    Cut,
    Ind,
    Nu,
    Observation,
    Omega,
    OmegaBar,
    Or,
    observe,
    omega_phi,
    parts_checked,
    premise_added,
)
from mucut.sequents import Sequent
from mucut.syntax import print_form

SYSTEM_S = ("s",)
SYSTEM_SINF = ("sinf",)


def omega_system(k):
    if k < 0:
        raise ValueError("system index must be at least 0")
    return ("omega", k)


def system_name(system):
    if system == SYSTEM_S:
        return "s"
    if system == SYSTEM_SINF:
        return "sinf"
    if system[0] == "omega":
        return "omega:%d" % system[1]
    raise ValueError("unknown system: %r" % (system,))


def parse_system(text):
    t = text.strip().lower()
    if t == "s":
        return SYSTEM_S
    if t == "sinf":
        return SYSTEM_SINF
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
        self.violations.append((path, msg))

    def report(self):
        return CheckReport(
            ok=not self.violations,
            violations=tuple(self.violations),
            nodes_checked=self.nodes,
            truncation_points=self.truncs,
        )


_OMEGA_TAGS = (Axiom, Or, And, Box, Clo, Nu, Cut, Omega, OmegaBar)


def _tag_allowed(tag, system):
    if system == SYSTEM_S:
        return isinstance(tag, FINITE_TAGS)
    if system == SYSTEM_SINF:
        return isinstance(tag, SINF_TAGS)
    if isinstance(tag, (Omega, OmegaBar)):
        return system[1] >= 1
    return isinstance(tag, _OMEGA_TAGS)


def _parts(c, tag, position):
    """What the premise at position adds to the context of an or, and, clo
    or nu node.  Unless proofs.parts_checked vouches for them, they are
    checked here, as adding them to a sequent would."""
    parts = premise_added(tag, position)
    if not parts_checked(tag, c):
        c.without(tag.principal).union(parts)
    return parts


def _check_premise(state, path, got, c, principal, parts, what):
    """A premise that keeps the context c must conclude c plus the parts,
    with or without the principal (a principal of None must stay).  The
    test is by set operations on the members, whose hashes the sets keep;
    the expected sequents are built only to word a violation."""
    added = frozenset(parts)
    members = got._set
    if (
        members.issuperset(added)
        and c._set.difference(members) <= {principal}
        and members.difference(c._set) <= added
    ):
        return
    shapes = (c.union(parts),)
    if principal is not None:
        shapes = (c.without(principal).union(parts),) + shapes
    state.flag(
        path,
        "%s concludes %r, expected one of %s"
        % (what, got, " / ".join(repr(s) for s in shapes)),
    )


def _node_checks(state, path, c, tag, system):
    """Conclusion-level checks of one node."""
    if not _tag_allowed(tag, system):
        state.flag(
            path,
            "rule %s is not part of system %s"
            % (type(tag).__name__.lower(), system_name(system)),
        )
        return
    if system in (SYSTEM_S, SYSTEM_SINF) and not c.is_l0():
        state.flag(path, "conclusion uses the primed language outside omega systems")

    if isinstance(tag, (Axiom, AxiomMu)):
        if isinstance(tag, Axiom):
            f, root, shape = tag.p, "atom", "atomic"
        else:
            f, root, shape = tag.mu, "mu", "mu-rooted"
        if f[0] != root:
            state.flag(
                path, "%s formula %s is not %s" % (tag.name, print_form(f), shape)
            )
        elif f not in c or negate(f) not in c:
            state.flag(
                path,
                "%s pair %s, %s not in conclusion"
                % (tag.name, print_form(f), print_form(negate(f))),
            )
    elif tag.root is not None:
        f, root = tag.principal, tag.root
        what = "%s principal" % tag.name if isinstance(tag, (Clo, Nu)) else "principal"
        if f[0] != root:
            state.flag(path, "%s %s is not %s-rooted" % (what, print_form(f), root))
        elif f not in c:
            state.flag(path, "%s %s not in conclusion" % (what, print_form(f)))
        if isinstance(tag, Box) and not tag.side.issubset(c):
            state.flag(path, "box side sequent is not part of the conclusion")
    elif isinstance(tag, Ind):
        m = tag.mu
        if m[0] != "mu":
            state.flag(path, "ind formula %s is not mu-rooted" % print_form(m))
        elif c != Sequent((negate(m), tag.b)):
            state.flag(
                path,
                "ind admits no context: conclusion must be exactly %s, %s"
                % (print_form(negate(m)), print_form(tag.b)),
            )
    elif isinstance(tag, Cut):
        f = tag.formula
        if not is_l0(f):
            state.flag(
                path, "cut formula %s is not in the base language" % print_form(f)
            )
        if system[0] == "omega" and level(f) > system[1]:
            state.flag(
                path,
                "cut formula %s has level %d, above the system bound %d"
                % (print_form(f), level(f), system[1]),
            )
    elif isinstance(tag, (Omega, OmegaBar)):
        t = tag.target
        if t[0] != "mu" or not is_fully_primed(t):
            state.flag(
                path, "replacement target %s must be a fully primed mu formula"
                % print_form(t)
            )
        if level(t) != tag.h:
            state.flag(
                path,
                "replacement target %s has level %d, rule says %d"
                % (print_form(t), level(t), tag.h),
            )
        if not 1 <= tag.h <= system[1]:
            state.flag(
                path,
                "replacement level %d outside 1..%d" % (tag.h, system[1]),
            )
        if isinstance(tag, Omega) and omega_phi(t) not in c:
            state.flag(
                path,
                "introduced formula %s not in conclusion" % print_form(omega_phi(t)),
            )


def _check_box_premise(state, path, c, tag, got):
    principal = tag.principal
    a = principal[1]
    if a not in got:
        state.flag(path, "box premise lacks the body %s" % print_form(a))
        return
    if principal not in c:
        Sequent((principal,))  # a malformed principal raises here
    # compare sets: the diamond image of the premise with or without its
    # body, the principal and the side
    rest = tag.side._set | {principal}
    image = got.dia()._set
    if c._set == image | rest or c._set == (image - {("dia", a)}) | rest:
        return
    state.flag(
        path,
        "box conclusion %r does not match the diamond image of its premise %r"
        % (c, got),
    )


def _check_cut_premises(state, path, c, tag, system, left, right):
    f = tag.formula
    if system[0] == "omega":
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
    got = {left, right}
    state.flag(
        path,
        "cut premises conclude %s, expected %s (either order)"
        % (sorted(map(repr, got)), sorted(map(repr, want))),
    )


def _child_paths(path, o):
    """(path, child) for each child of an observed node, labelled by the
    premise it shows: "w<i>" for the nu premise at sampled index i,
    "first" for an omegabar's first premise, "p<k>" for the family output
    on the k-th probe and "<j>" for finite premise j."""
    if o.sampled is not None:
        labels = ["w%d" % i for i in o.sampled]
    elif o.probes is not None:
        labels = ["p%d" % k for k in range(len(o.probes))]
        if isinstance(o.rule, OmegaBar):
            labels.insert(0, FIRST)
    else:
        return [("%s.%d" % (path, j), q) for j, q in enumerate(o.children)]
    return [("%s.%s" % (path, label), q) for label, q in zip(labels, o.children)]


def _judge_node(state, path, o, system):
    """Check one observed node; yield (path, child) for each premise to
    descend into, each after the checks of that premise's conclusion."""
    c, tag, kids = o.conclusion, o.rule, o.children
    try:
        _node_checks(state, path, c, tag, system)
    except Exception as exc:  # noqa: BLE001 - malformed tags must reject
        state.flag(path, "malformed rule tag: %s" % exc)
        return
    if isinstance(tag, Box):
        try:
            _check_box_premise(state, path, c, tag, kids[0].conclusion)
        except Exception as exc:  # noqa: BLE001
            state.flag(path, "malformed box rule: %s" % exc)
        yield _child_paths(path, o)[0]
    elif isinstance(tag, Cut):
        try:
            _check_cut_premises(
                state, path, c, tag, system, kids[0].conclusion, kids[1].conclusion
            )
        except Exception as exc:  # noqa: BLE001
            state.flag(path, "malformed cut rule: %s" % exc)
        yield from _child_paths(path, o)
    elif isinstance(tag, (Or, And, Clo, Ind)):
        try:
            if isinstance(tag, Ind):
                unfold = negate(substitute(tag.mu[1], tag.b))
                want = [(Sequent((unfold, tag.b)), None, ())]
            else:
                want = [(c, tag.principal, _parts(c, tag, j)) for j in range(tag.arity)]
        except Exception as exc:  # noqa: BLE001 - undefined premise shapes
            state.flag(path, "premise shapes undefined: %s" % exc)
            want = []
        for j, (cpath, q) in enumerate(_child_paths(path, o)):
            if j < len(want):
                _check_premise(state, path, q.conclusion, *want[j], "premise %d" % j)
            yield cpath, q
    elif isinstance(tag, Nu):
        state.truncs += 1
        for i, (cpath, q) in zip(o.sampled, _child_paths(path, o)):
            if q.conclusion is None:
                state.flag(cpath, "premise evaluation failed: %s" % q.error)
                continue
            parts = _parts(c, tag, i)
            got = q.conclusion
            _check_premise(state, cpath, got, c, tag.principal, parts, "premise")
            yield cpath, q
    elif isinstance(tag, (Omega, OmegaBar)):
        state.truncs += 1
        principal = omega_phi(tag.target) if isinstance(tag, Omega) else None
        outputs = _child_paths(path, o)
        if isinstance(tag, OmegaBar):
            (fpath, first), outputs = outputs[0], outputs[1:]
            want = c.add(tag.target)
            if first.conclusion != want:
                state.flag(
                    path,
                    "first premise concludes %r, expected %r"
                    % (first.conclusion, want),
                )
            yield fpath, first
        for delta, (cpath, q) in zip(o.probes, outputs):
            if q.conclusion is None:
                state.flag(cpath, "family evaluation failed: %s" % q.error)
                continue
            got = q.conclusion
            _check_premise(state, cpath, got, c, principal, delta, "family output")
            yield cpath, q


def _judge(state, path, o, system, depth):
    if depth == 0:
        state.truncs += 1
        return
    if o.error is not None:
        state.flag(path, "node evaluation failed: %s" % o.error)
        return
    state.nodes += 1
    for cpath, q in _judge_node(state, path, o, system):
        _judge(state, cpath, q, system, depth - 1)


def check_observation(o, system, depth):
    """Judge a window that observe made to the given depth: every node
    above the depth bound is checked, with the premises the window holds.
    Nodes at the bound, and nu and replacement rules, whose premises are
    only sampled, count as truncation points."""
    state = _State()
    _judge(state, "root", o, system, depth)
    return state.report()


def check_bounded(p, system, depth, samples=(0, 1, 2), probe_budget=1):
    """Check every node reachable within the observation window."""
    return check_observation(
        observe(p, depth, samples, probe_budget), system, depth
    )


def check_finite(p, system=SYSTEM_S):
    """Exhaustively check a finite proof, node by node in preorder over an
    explicit stack.  Each node is judged in its own window: the node
    observed to depth 0, with its premises observed to depth 0 as
    children.  A premise's depth-0 observation, made for its parent's
    window, is the root of its own.  Nu and replacement rules are rejected
    as they are met, so nothing below them is forced or observed."""
    state = _State()
    todo = [("root", p, observe(p, 0))]
    while todo:
        path, q, o = todo.pop()
        if o.error is not None:
            state.flag(path, "node evaluation failed: %s" % o.error)
            continue
        state.nodes += 1
        if not isinstance(o.rule.arity, int):
            state.flag(
                path,
                "rule %s has infinitely many premises and cannot occur in a "
                "finite proof" % type(o.rule).__name__.lower(),
            )
            continue
        premises = q.premises  # forced by observe already
        kids = tuple([observe(r, 0) for r in premises])
        window = Observation(o.conclusion, o.rule, kids)
        for _ in _judge_node(state, path, window, system):
            pass  # all of this node's checks come before its subtrees
        for j in range(len(premises) - 1, -1, -1):
            todo.append(("%s.%d" % (path, j), premises[j], kids[j]))
    return state.report()


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
    o = observe(p, depth, samples, probe_budget)
    state = _State()

    def scan(ob, path, lost="premise"):
        if ob.error is not None:
            # worded as the judge words it: a leaf with a conclusion is a
            # node that could not be forced, one without is a premise or
            # family output that could not be produced
            what = "node" if ob.conclusion is not None else lost
            state.flag(path, "%s evaluation failed: %s" % (what, ob.error))
            return
        state.nodes += 1
        for f in ob.conclusion:
            if max_nubar_level(f) >= 0:
                state.flag(path, "formula %s mentions nub" % print_form(f))
            if f not in closure:
                state.flag(
                    path, "formula %s outside the approximant closure" % print_form(f)
                )
        lost = "premise" if isinstance(ob.rule, Nu) else "family"
        for cpath, child in _child_paths(path, ob):
            scan(child, cpath, lost)

    scan(o, "root")
    return state.report()
