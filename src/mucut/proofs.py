"""Proof trees with finite and countably branching rules.

A Proof pairs a strict conclusion (a Sequent) with a lazily computed node:
the rule tag plus its premises.  Laziness lets rules with infinitely many
premises (the omega-indexed nu rule and the sequent-indexed replacement
rules) exist as ordinary values: premises are functions, forced on demand
and memoized so repeated exploration is deterministic.

Observation is the finite window onto such a proof: explore to a depth
bound, sample omega premises at chosen indices, and feed replacement-rule
families their canonical probe.  The checker judges these windows.  A
proof keeps its last window and its level bound, and a window its facts,
reports and text, so a repeated request is answered from these memos.
A window is a tree over the DAG of proofs it walks: a subwindow met
again under the settings it was made with is the same window, which the
judge and the writer read off once.
"""

from __future__ import annotations

from operator import attrgetter

from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import (
    TOP,
    atom,
    is_fully_primed,
    is_l0,
    iterate,
    level,
    memo,
    negate,
    prime,
    substitute,
    unfolding,
    validate,
)
from mucut.sequents import Sequent, from_checked, is_k_positive
from mucut.syntax import print_form

# ---------------------------------------------------------------------------
# premise containers


class OmegaFam:
    """Omega-indexed premises: fn(i) -> Proof, memoized."""

    __slots__ = ("fn", "_memo")

    def __init__(self, fn):
        self.fn = fn
        self._memo = {}

    def __call__(self, i):
        if i not in self._memo:
            self._memo[i] = self.fn(i)
        return self._memo[i]


class DeltaFam:
    """The premises of a replacement rule on target: fn(delta, witness) ->
    Proof for each pair in the domain its target fixes (admits).

    Every entry is checked against the domain, unless the memo holds its
    output: results are memoized per (delta, witness), and a proof hashes
    by identity.  A delta that is no Sequent, which could equal a key, and
    a witness that is no Proof are refused before the memo is read.
    """

    __slots__ = ("target", "fn", "_memo")

    def __init__(self, target, fn):
        self.target = target
        self.fn = fn
        self._memo = {}

    def __call__(self, delta, witness):
        if not (isinstance(delta, Sequent) and isinstance(witness, Proof)) or (
            (delta, witness) not in self._memo and not self.admits(delta, witness)
        ):
            raise InternalInvariantError(
                "replacement-rule family argument rejected: delta=%r" % (delta,)
            )
        return self.admitted(delta, witness)

    def admits(self, delta, witness):
        """The domain, for a Sequent delta and a Proof witness: delta is
        h-positive for h the target's level, and the witness concludes
        delta plus the target, cut-free as far as a bounded look can see
        (trusted beyond that bound)."""
        t = self.target
        return (
            is_k_positive(delta, level(t))
            and witness.conclusion.is_add(delta, t)
            and is_cut_free_observed(witness, ADMIT_DEPTH, (0,), 0)
        )

    def admitted(self, delta, witness):
        """The memoized output for an argument the caller has already
        checked with this family's domain."""
        key = (delta, witness)
        if key not in self._memo:
            self._memo[key] = self.fn(delta, witness)
        return self._memo[key]


class OmegaBarPrem:
    """First premise plus the replacement family."""

    __slots__ = ("first", "fam")

    def __init__(self, first, fam):
        self.first = first
        self.fam = fam


# ---------------------------------------------------------------------------
# rule conditions: a rule's flaws(conclusion, k=None) are the texts of what a
# node of it violates, () when nothing.  Whether a node is well formed
# depends on its rule alone; k, the index of an intermediate system, only
# bounds cut and replacement levels, and is None in S, in S-infinity and
# for the node builders.  Texts are formatted only on failure.


def _pair_flaws(field, root, shape):
    """The conditions of an axiom on the formula in its `field`: it has the
    root `root` (is `shape`) and is in the conclusion with its negation."""

    def flaws(tag, conclusion, k=None):
        f = getattr(tag, field)
        if f[0] != root:
            return ("%s formula %s is not %s" % (tag.name, print_form(f), shape),)
        if f in conclusion and negate(f) in conclusion:
            return ()
        return (
            "%s pair %s, %s not in conclusion"
            % (tag.name, print_form(f), print_form(negate(f))),
        )

    return flaws


def _principal_fits(tag, conclusion):
    """The condition on a rule's principal: it has the rule's root and is a
    member of the conclusion."""
    f = tag.principal
    return f[0] == tag.root and f in conclusion


def _principal_flaws(what):
    """The conditions of a rule whose principal, called `what` in a
    violation, must fit (_principal_fits)."""

    def flaws(tag, conclusion, k=None):
        if _principal_fits(tag, conclusion):
            return ()
        f, root = tag.principal, tag.root
        if f[0] != root:
            return ("%s %s is not %s-rooted" % (what, print_form(f), root),)
        return ("%s %s not in conclusion" % (what, print_form(f)),)

    return flaws


_principal = _principal_flaws("principal")


def _box_flaws(tag, conclusion, k=None):
    out = _principal(tag, conclusion)
    if not tag.side.issubset(conclusion):
        out += ("box side sequent is not part of the conclusion",)
    return out


def _ind_flaws(tag, conclusion, k=None):
    m, b = tag.mu, tag.b
    if m[0] != "mu":
        return ("ind formula %s is not mu-rooted" % print_form(m),)
    if conclusion != Sequent((negate(m), b)):
        return (
            "ind admits no context: conclusion must be exactly %s, %s"
            % (print_form(negate(m)), print_form(b)),
        )
    return ()


def _cut_flaws(tag, conclusion, k=None):
    f = tag.formula
    out = ()
    if not is_l0(f):
        out += ("cut formula %s is not in the base language" % print_form(f),)
    if k is not None and level(f) > k:
        out += (
            "cut formula %s has level %d, above the system bound %d"
            % (print_form(f), level(f), k),
        )
    return out


def _target_flaws(tag, conclusion, k=None):
    """The conditions of a replacement rule on its target and level."""
    t, h = tag.target, tag.h
    out = ()
    if t[0] != "mu" or not is_fully_primed(t):
        out += (
            "replacement target %s must be a fully primed mu formula" % print_form(t),
        )
    if level(t) != h:
        out += (
            "replacement target %s has level %d, rule says %d"
            % (print_form(t), level(t), h),
        )
    if k is not None and not 1 <= h <= k:
        out += ("replacement level %d outside 1..%d" % (h, k),)
    return out


def _omega_flaws(tag, conclusion, k=None):
    out = _target_flaws(tag, conclusion, k)
    phi = omega_phi(tag.target)
    if phi not in conclusion:
        out += ("introduced formula %s not in conclusion" % print_form(phi),)
    return out


# ---------------------------------------------------------------------------
# rule tags


_setattr = object.__setattr__


def _repr(value, names):
    """The repr of a value of the named fields: Or(principal=...)."""
    args = ("%s=%r" % (name, getattr(value, name)) for name in names)
    return "%s(%s)" % (type(value).__name__, ", ".join(args))


def _eq(value, other):
    """Whether other is of value's class with equal fields, as the
    class's `_values` getter gives them."""
    if other.__class__ is not value.__class__:
        return NotImplemented
    return value._values(value) == value._values(other)


class _Tag:
    """What every rule tag shares: a tag is a value of its fields (the
    rule's arguments, the parameters of its __init__), equal only to a tag
    of its own class with equal fields, hashed by them and written as
    Or(principal=...).  No field can be assigned, and a tag keeps nothing
    else."""

    __eq__ = _eq

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return _repr(self, [name for name, _ in self.fields])

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


def _rule(name, arity, root, flaws):
    """Make a class the one description of a rule: an immutable value of
    its arguments (formula tuples, a side Sequent, an int level), which
    its __init__ takes and `fields` lists as (name, type name) pairs, with
    `_values` their getter, its s-expression `name`, its `arity` (a
    premise count, or the container class of infinitely many), its
    principal's `root` (None if none) and its conditions, the method
    `flaws(conclusion, k=None)`."""

    def describe(cls):
        cls.name, cls.arity, cls.root, cls.flaws = name, arity, root, flaws
        cls.fields = tuple(cls.__init__.__annotations__.items())
        cls._values = attrgetter(*(n for n, _ in cls.fields))
        return cls

    return describe


@_rule("axiom", 0, None, _pair_flaws("p", "atom", "atomic"))
class Axiom(_Tag):
    """Gamma, P, ~P for atomic P (stored positive)."""

    def __init__(self, p: tuple):
        _setattr(self, "p", p)


@_rule("axmu", 0, None, _pair_flaws("mu", "mu", "mu-rooted"))
class AxiomMu(_Tag):
    """Gamma, mu X . A, ~(mu X . A)."""

    def __init__(self, mu: tuple):
        _setattr(self, "mu", mu)


@_rule("or", 1, "or", _principal)
class Or(_Tag):
    def __init__(self, principal: tuple):
        _setattr(self, "principal", principal)


@_rule("and", 2, "and", _principal)
class And(_Tag):
    def __init__(self, principal: tuple):
        _setattr(self, "principal", principal)


@_rule("box", 1, "box", _box_flaws)
class Box(_Tag):
    """<>Gamma, []A, Sigma from Gamma, A; side is the Sigma used."""

    def __init__(self, principal: tuple, side: Sequent):
        _setattr(self, "principal", principal)
        _setattr(self, "side", side)


@_rule("clo", 1, "mu", _principal_flaws("clo principal"))
class Clo(_Tag):
    """Gamma, mu X . A from Gamma, A(mu X . A)."""

    def __init__(self, principal: tuple):
        _setattr(self, "principal", principal)


@_rule("ind", 1, None, _ind_flaws)
class Ind(_Tag):
    """~(mu X . A), B from ~A(B), B (no extra context)."""

    def __init__(self, mu: tuple, b: tuple):
        _setattr(self, "mu", mu)
        _setattr(self, "b", b)


@_rule("cut", 2, None, _cut_flaws)
class Cut(_Tag):
    """Gamma from Gamma, A and Gamma, ~A (primed on both sides in the
    intermediate systems)."""

    def __init__(self, formula: tuple):
        _setattr(self, "formula", formula)


@_rule("nu", OmegaFam, "nu", _principal_flaws("nu principal"))
class Nu(_Tag):
    """Gamma, nu X . A from Gamma, A^i(top) for every i."""

    def __init__(self, principal: tuple):
        _setattr(self, "principal", principal)


@_rule("omega", DeltaFam, None, _omega_flaws)
class Omega(_Tag):
    """Gamma, phi from the family over (Delta, witness) pairs, where the
    target is a fully primed mu formula of level h and phi is the primed
    negation of the target."""

    def __init__(self, h: int, target: tuple):
        _setattr(self, "h", h)
        _setattr(self, "target", target)


@_rule("omegabar", OmegaBarPrem, None, _target_flaws)
class OmegaBar(_Tag):
    """Gamma from Gamma, target and the same family as Omega."""

    def __init__(self, h: int, target: tuple):
        _setattr(self, "h", h)
        _setattr(self, "target", target)


# The rules of the finitary system S, of S-infinity and of all systems.
FINITE_TAGS = (Axiom, AxiomMu, Or, And, Box, Clo, Ind, Cut)
SINF_TAGS = (Axiom, Or, And, Box, Clo, Nu)
ALL_TAGS = FINITE_TAGS + (Nu, Omega, OmegaBar)


def omega_phi(target):
    """The formula introduced by an Omega rule with the given target."""
    return prime(negate(target))


# ---------------------------------------------------------------------------
# proofs


class Proof:
    """Strict conclusion, lazy (rule, premises) node.  It keeps the last
    window observe made for it, under its settings, and kept() a finite
    proof's level bound and why it could not be forced.  A node reads as
    a full window, forced to read its error: so check_finite judges it.

    The mark plain says that every node at every depth has a rule of
    S-infinity (no cut, omega, omegabar, ind or axmu), so that neither cut
    elimination nor collapsing rewrites any node of it.  Only mark_plain
    sets it, and only builders whose output is plain by construction call
    it; a proof without the mark may still have only such rules."""

    # weakly referenceable so that embed can empty its memo of laws and
    # weakenings when the embedding is freed
    __slots__ = ("conclusion", "_node", "_thunk", "_window", "_kept", "plain",
                 "__weakref__")
    sampled = probes = None
    spliced = False  # the window walkers read proofs too: none is a spliced unit

    def __init__(self, conclusion, node, thunk):
        if not isinstance(conclusion, Sequent):
            raise InternalInvariantError("proof conclusion must be a Sequent")
        self.conclusion = conclusion
        self._node = node
        self._thunk = thunk
        self._window = None
        self._kept = None
        self.plain = False

    def kept(self):
        """What the proof keeps, made on first use: "level" and "error"."""
        if self._kept is None:
            self._kept = {}
        return self._kept

    @staticmethod
    def make(conclusion, tag, premises):
        return Proof(conclusion, (tag, premises), None)

    @staticmethod
    def defer(conclusion, thunk):
        """A proof of the given conclusion computed on demand; thunk()
        must return a Proof with the same conclusion."""
        return Proof(conclusion, None, thunk)

    def _force(self):
        node = self._node
        if node is None:
            inner = self._thunk()
            if inner.conclusion != self.conclusion:
                raise InternalInvariantError(
                    "deferred proof concluded %r, expected %r"
                    % (inner.conclusion, self.conclusion)
                )
            node = inner._force()
            self._node = node
            self._thunk = None
        return node

    @property
    def rule(self):
        return (self._node or self._force())[0]

    @property
    def premises(self):
        return (self._node or self._force())[1]

    children = premises  # a node's premises, read as a window's children

    @property
    def error(self):
        """None once the node is forced to a known rule, else the text of
        its unknown tag or of what forcing raised, kept so that the node is
        tried once.  Resource limits propagate."""
        if self._node is None and "error" not in self.kept():
            try:
                self._force()
            except _LIMITS:
                raise
            except Exception as exc:  # noqa: BLE001 - failures become text
                self._kept["error"] = str(exc)
        if self._node is None:
            return self._kept["error"]
        tag = self._node[0]
        return None if isinstance(tag, ALL_TAGS) else "unknown rule tag: %r" % (tag,)


def mark_plain(p):
    """p, marked plain: the caller has built it from rules of S-infinity
    alone, at every depth."""
    p.plain = True
    return p


def finite_nodes(p):
    """Each node of the finite proof p once, in preorder over an explicit
    stack; a premise shared by several nodes is met once."""
    seen, todo = set(), [p]  # proofs hash by identity
    while todo:
        q = todo.pop()
        if q not in seen:
            seen.add(q)
            yield q
            todo.extend(reversed(tuple(q.premises)))


def make_node(conclusion, tag, premises):
    """Build a proof node, validating tag/premise-container coherence."""
    rule = type(tag)
    if rule not in ALL_TAGS:
        raise ValueError("unknown rule tag: %r" % (tag,))
    want = rule.arity
    if isinstance(want, int):
        premises = tuple(premises)
        if len(premises) != want:
            raise ValueError(
                "%s rule takes %d premise(s), got %d" % (rule.name, want, len(premises))
            )
        for p in premises:
            if not isinstance(p, Proof):
                raise ValueError("premises must be Proof values")
    elif not isinstance(premises, want):
        raise ValueError("%s rule needs a %s" % (rule.name, want.__name__))
    elif rule in (Omega, OmegaBar):
        fam = premises.fam if rule is OmegaBar else premises
        if not isinstance(fam, DeltaFam) or fam.target != tag.target:
            raise ValueError("%s rule needs a DeltaFam on its target" % rule.name)
    return Proof.make(conclusion, tag, premises)


# ---------------------------------------------------------------------------
# premise traversal

# The position of an omegabar node's first premise.  Other positions are
# the index j of a finite premise, the index i of an omega-indexed premise,
# and the Delta argument of a family output.
FIRST = "first"


def map_premises(d, conclusion, fn, tag=None):
    """A node with d's rule and the given conclusion whose premises are
    fn(q, position) for each premise q of d.  Omega-indexed premises and
    family outputs are mapped only when forced; the family keeps d's
    target, so its domain.  A given tag replaces d's: the same rule kind
    with a rewritten principal, which must meet its rule's conditions."""
    old, prem = d._force()
    if tag is None:
        tag = old
    else:
        _require(type(tag) is type(old), "rewritten tag changes the rule kind")
        _flawless(tag, conclusion)
    if isinstance(tag, FINITE_TAGS):
        new = tuple(fn(q, j) for j, q in enumerate(prem))
    elif isinstance(tag, Nu):
        new = OmegaFam(lambda i: fn(prem(i), i))
    elif isinstance(tag, Omega):
        new = _map_family(prem, fn)
    elif isinstance(tag, OmegaBar):
        new = OmegaBarPrem(fn(prem.first, FIRST), _map_family(prem.fam, fn))
    else:
        raise InternalInvariantError("unknown rule tag: %r" % (tag,))
    return make_node(conclusion, tag, new)


def _map_family(fam, fn):
    # the mapped family's own call has already checked fam's domain
    return DeltaFam(fam.target, lambda dl, w: fn(fam.admitted(dl, w), dl))


def premise_added(tag, position):
    """The formulas the premise at position adds to the context of a rule
    that keeps its conclusion's context: the components of a disjunction,
    one conjunct, the unfolding of a closure, the i-th approximant of a nu
    rule, Delta for a family output and the target for a first premise."""
    if isinstance(tag, Or):
        return (tag.principal[1], tag.principal[2])
    if isinstance(tag, And):
        return (tag.principal[position + 1],)
    if isinstance(tag, Clo):
        return (unfolding(tag.principal),)
    if isinstance(tag, Nu):
        return (iterate(tag.principal[1], TOP, position),)
    if isinstance(tag, (Omega, OmegaBar)):
        return (tag.target,) if position == FIRST else position
    raise InternalInvariantError("rule %r has no context premises" % (tag,))


def parts_checked(tag, conclusion):
    """True when the parts premise_added gives for tag need no check: the
    principal meets its rule's condition (_principal_fits), so it is a
    member of conclusion, a checked formula, and has the rule's root, so
    the parts are its subformulas, its unfolding or one of its
    approximants, all closed and valid.  Rules without a principal answer
    False."""
    return tag.root is not None and _principal_fits(tag, conclusion)


def premise_label(tag, position):
    """The path label of a premise: "j" for a finite premise, "w<i>" for
    an omega-indexed one, "first" and "f" for the parts of a family rule."""
    if isinstance(tag, Nu):
        return "w%d" % position
    if isinstance(tag, (Omega, OmegaBar)):
        return FIRST if position == FIRST else "f"
    return "%d" % position


# ---------------------------------------------------------------------------
# node builders: each refuses a node that violates its rule's conditions with
# the first text the judge would flag, then checks the premise relation it
# knows of


def _require(cond, msg):
    if not cond:
        raise InternalInvariantError(msg)


def _flawless(tag, conclusion):
    """tag, once a node of it concluding conclusion meets its rule's
    conditions; else its first violation is raised."""
    flaws = tag.flaws(conclusion)
    if flaws:
        raise InternalInvariantError(flaws[0])
    return tag


def ax(conclusion, p):
    if p[0] == "natom":
        p = atom(p[1])
    return make_node(conclusion, _flawless(Axiom(p), conclusion), ())


def axmu_node(conclusion, mu):
    return make_node(conclusion, _flawless(AxiomMu(mu), conclusion), ())


def or_node(conclusion, principal, prem):
    return make_node(conclusion, _flawless(Or(principal), conclusion), (prem,))


def and_node(conclusion, principal, left, right):
    return make_node(conclusion, _flawless(And(principal), conclusion), (left, right))


def box_node(conclusion, principal, side, prem):
    return make_node(conclusion, _flawless(Box(principal, side), conclusion), (prem,))


def box_fit(conclusion, principal, prem):
    """A box node on principal over prem whose side is what the packet
    <>(prem - body), principal leaves of the conclusion."""
    packet = prem.conclusion.without(principal[1]).dia().add(principal)
    _require(packet.issubset(conclusion), "box packet escapes the conclusion")
    return box_node(conclusion, principal, conclusion.difference(packet), prem)


def clo_node(conclusion, principal, prem):
    return make_node(conclusion, _flawless(Clo(principal), conclusion), (prem,))


def ind_node(conclusion, mu, b, prem):
    tag = _flawless(Ind(mu, b), conclusion)
    _require(
        prem.conclusion == Sequent((negate(substitute(mu[1], b)), b)),
        "ind premise must be exactly ~A(B), B",
    )
    return make_node(conclusion, tag, (prem,))


def cut_node(conclusion, formula, left, right):
    validate(formula)
    return make_node(conclusion, _flawless(Cut(formula), conclusion), (left, right))


def nu_node(conclusion, principal, fn):
    return make_node(conclusion, _flawless(Nu(principal), conclusion), OmegaFam(fn))


def omega_node(conclusion, target, fn):
    """The replacement rule on target, of its level, over the family fn on
    the domain the target fixes (DeltaFam)."""
    tag = _flawless(Omega(level(target), target), conclusion)
    return make_node(conclusion, tag, DeltaFam(target, fn))


def omegabar_node(conclusion, target, first, fn):
    """The bar-replacement rule on target, of its level, over the first
    premise first and the family fn as omega_node builds it."""
    tag = _flawless(OmegaBar(level(target), target), conclusion)
    _require(
        first.conclusion.is_add(conclusion, target),
        "omegabar first premise must be the conclusion plus the target",
    )
    return make_node(conclusion, tag, OmegaBarPrem(first, DeltaFam(target, fn)))


# ---------------------------------------------------------------------------
# small standard derivations


_TOP = from_checked((TOP,))
_TOP_PARTS = from_checked(TOP[1:])


def top_intro(extra):
    """A two-node proof of {top} union extra, marked plain.  Only extra is
    checked."""
    extra = Sequent(extra)
    leaf = ax(extra.union(_TOP_PARTS), TOP[1])
    return mark_plain(or_node(extra.union(_TOP), TOP, leaf))


def canonical_probe(target):
    """The standard probe for a replacement family targeting a fully
    primed mu formula: delta = {top} with its two-node witness.  The
    witness is cut-free and valid in every system, in particular in the
    index-(k-1) intermediate system for any ambient k.

    Every call for one target answers with the same pair, so a family,
    whose memo is keyed on the witness's identity, computes its output on
    the probe once however often it is observed.  The target is validated
    on every call: a key equal to a valid one, such as ('atom', True) to
    ('atom', 1), is refused as building its witness would refuse it, and
    never gets the other's answer."""
    validate(target)
    return _probe(target)


@memo
def _probe(target):
    return _TOP, top_intro((target,))


# The number of probes a family has: the canonical one.
PROBES = 1

# The depth of a family's bounded look at a witness (DeltaFam.admits).
ADMIT_DEPTH = 2


# ---------------------------------------------------------------------------
# observation


class Observation:
    """A finite window onto a proof.  Nothing hashes a window or changes
    the fields observe gave it; `kept`, outside equality and repr, keeps
    its facts (observation_rules and its kin), whether they are in L0, the
    checker's reports per (system, depth) and per depth the first system
    judged, and the writer's text.  `spliced`, outside them too, marks a
    subwindow that windows hold more than once (observe): the judge and
    the writer of a window that holds it take its kept report and text as
    one unit.  observe makes one for every node it walks, so its fields
    are slots set by a plain __init__."""

    __slots__ = (
        "conclusion", "rule", "children", "truncated", "sampled", "probes", "error",
        "kept", "spliced",
    )

    def __init__(
        self, conclusion, rule, children=(), truncated=False, sampled=None,
        probes=None, error=None,
    ):
        self.conclusion = conclusion
        self.rule = rule
        self.children = children
        self.truncated = truncated
        self.sampled = sampled
        self.probes = probes
        self.error = error
        self.kept = None
        self.spliced = False

    # every field but kept and spliced, in order
    _values = attrgetter(*__slots__[:-2])
    __eq__ = _eq
    __hash__ = None

    def __repr__(self):
        return _repr(self, self.__slots__[:-2])

    def keep(self, key, make, *args):
        """make(*args), worked out on the first request for key and kept
        on the window for every later one."""
        if self.kept is None:
            self.kept = {}
        if key not in self.kept:
            self.kept[key] = make(*args)
        return self.kept[key]


def _error_leaf(exc, conclusion=None):
    """A leaf for a failure: a node that could not be forced keeps its
    declared conclusion; a premise or family output that could not be
    produced has none."""
    return Observation(conclusion=conclusion, rule=None, error=str(exc))


# Resource limits propagate out of an observation; every other failure
# becomes an error leaf.
_LIMITS = (FuelExhausted, RecursionError)


def observe(p, depth, samples=(0, 1, 2), probe_budget=1):
    """Explore p to the given depth.  Omega-indexed premises are sampled
    at the given indices; replacement families are fed the canonical probe
    when probe_budget is 1 and none when it is 0.  Failures to force a
    node, to build its probe, to produce a premise or family output, and
    unknown rule tags become error leaves; fuel exhaustion and running out
    of stack propagate.

    One sharing rule, hash-consing applied to windows: every proof the walk
    reaches keeps the last window made for it, with the settings left there
    (the remaining depth, the samples and the probe budget).  A request or
    step with those settings, in one window or another, gets that window,
    flagged spliced; other settings replace it.  So a proof holds one
    window, alive while the proof or a window that holds it is.  A marked
    proof with no marked proof above it in the walk is flagged when its
    window is made, since the other stage windows of its job meet it there.
    Only the judge and the writer read the flag: they take a spliced window
    below the root as one unit."""
    return _observe(p, *_settings(depth, samples, probe_budget), True)


def _settings(depth, samples, probe_budget):
    """observe's settings as the key of a window, the samples sorted and
    without repeats (settings that sample the same premises are one key).
    The one check of them: the depth and every sample are ints of 0 or
    more and the probe budget is 0 to PROBES, else ValueError.  A bool, which
    equals an int, and any other subclass of int are refused."""
    if type(depth) is not int or depth < 0:
        raise ValueError("observe depth %r: an int of 0 or more" % (depth,))
    samples = tuple(samples)
    for i in samples:
        if type(i) is not int or i < 0:
            raise ValueError("observe sample %r: an int of 0 or more" % (i,))
    if type(probe_budget) is not int or not 0 <= probe_budget <= PROBES:
        raise ValueError(
            "probe budget %r: 0 or 1, since each family has one probe" % (probe_budget,)
        )
    return depth, tuple(sorted(set(samples))), probe_budget


def _observe(p, depth, samples, probe_budget, splice):
    """observe's walk of p to the given depth, samples as _settings gives
    them, one frame per window level.  The window p keeps, if made under
    these settings, is returned, flagged spliced; else the window is made,
    kept on p in its place as it is returned, and flagged when p is marked
    and splice is true: the walk has entered no marked proof above p."""
    key, last = (depth, samples, probe_budget), p._window
    if last is not None and last[0] == key:
        last[1].spliced = True
        return last[1]
    born, splice = splice and p.plain, splice and not p.plain
    c = p.conclusion
    try:
        tag, prem = p._force()
        probe = ()
        if depth and probe_budget and isinstance(tag, (Omega, OmegaBar)):
            probe = canonical_probe(tag.target)
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - no node or no probe: a leaf
        o = _error_leaf(exc, c)
    else:
        if isinstance(tag, FINITE_TAGS):
            if depth == 0:
                o = Observation(c, tag, (), truncated=bool(prem))
            else:
                kids = []
                for q in prem:  # a loop, not a generator: one frame per level
                    kids.append(_observe(q, depth - 1, samples, probe_budget, splice))
                o = Observation(c, tag, tuple(kids))
        elif isinstance(tag, Nu):
            sampled = samples if depth else ()
            kids = [
                _premise(prem, (i,), depth, samples, probe_budget, splice) for i in sampled
            ]
            o = Observation(c, tag, tuple(kids), truncated=True, sampled=sampled)
        elif isinstance(tag, (Omega, OmegaBar)):
            kids, fam = [], prem
            if depth and isinstance(tag, OmegaBar):
                fam = prem.fam
                kids.append(_observe(prem.first, depth - 1, samples, probe_budget, splice))
            if probe:
                kids.append(_premise(fam, probe, depth, samples, probe_budget, splice))
            o = Observation(c, tag, tuple(kids), truncated=True, probes=probe[:1])
        else:
            o = _error_leaf("unknown rule tag: %r" % (tag,), c)
    o.spliced = born
    p._window = key, o
    return o


def _premise(get, args, depth, samples, probe_budget, splice):
    """The window below the premise get(*args) of a node at depth."""
    try:
        q = get(*args)
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001
        return _error_leaf(exc)
    return _observe(q, depth - 1, samples, probe_budget, splice)


def _facts(o):
    """A window's rule tags, non-error conclusions and error texts, in one
    preorder walk of its tree, spliced windows walked as any other.  The
    readers below keep them: callers must not change them."""
    rules, sequents, errors, stack = [], [], [], [o]
    while stack:
        node = stack.pop()
        rules.append(node.rule)
        if node.error is None:
            sequents.append(node.conclusion)
        else:
            errors.append(node.error)
        stack.extend(reversed(node.children))
    return rules, sequents, errors


def observation_rules(o):
    """All rule tags in an observation, preorder."""
    return o.keep("facts", _facts, o)[0]


def observation_sequents(o):
    """All conclusions in an observation, preorder (error leaves skipped)."""
    return o.keep("facts", _facts, o)[1]


def observation_errors(o):
    """All error messages in an observation, preorder."""
    return o.keep("facts", _facts, o)[2]


def is_cut_free_observed(p, depth, samples=(0, 1, 2), probe_budget=1):
    """True when no Cut node and no family failure shows up within the
    window observe gives p with these settings, read off its kept facts."""
    o = observe(p, depth, samples, probe_budget)
    rules, _, errors = o.keep("facts", _facts, o)
    return not errors and not any(isinstance(r, Cut) for r in rules)
