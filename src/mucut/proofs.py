"""Proof trees with finite and countably branching rules.

A Proof pairs a strict conclusion (a Sequent) with a lazily computed node:
the rule tag plus its premises.  Laziness lets rules with infinitely many
premises (the omega-indexed nu rule and the sequent-indexed replacement
rules) exist as ordinary values: premises are functions, forced on demand
and memoized so repeated exploration is deterministic.

Observation is the finite window onto such a proof: explore to a depth
bound, sample omega premises at chosen indices, and feed replacement-rule
families their canonical probe.  The checker judges these windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import (
    TOP,
    atom,
    is_fully_primed,
    iterate,
    memo,
    negate,
    prime,
    substitute,
    validate,
)
from mucut.sequents import Sequent, from_checked, is_k_positive

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
    """Sequent-indexed premises: fn(delta, witness) -> Proof.

    admits(delta, witness) is the domain predicate, checked on every entry
    (boundedly for the witness); results are memoized per (delta, witness
    identity) with the witness pinned so memo keys stay valid.
    """

    __slots__ = ("admits", "fn", "_memo")

    def __init__(self, admits, fn):
        self.admits = admits
        self.fn = fn
        self._memo = {}

    def __call__(self, delta, witness):
        if (delta, id(witness)) not in self._memo and not self.admits(
            delta, witness
        ):
            raise InternalInvariantError(
                "replacement-rule family argument rejected: delta=%r" % (delta,)
            )
        return self.admitted(delta, witness)

    def admitted(self, delta, witness):
        """The memoized output for an argument the caller has already
        checked with this family's domain predicate."""
        key = (delta, id(witness))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        out = self.fn(delta, witness)
        self._memo[key] = (witness, out)
        return out


class OmegaBarPrem:
    """First premise plus the replacement family."""

    __slots__ = ("first", "fam")

    def __init__(self, first, fam):
        self.first = first
        self.fam = fam


# ---------------------------------------------------------------------------
# rule tags


def _rule(name, arity, root):
    """Make a class the one description of a rule: a frozen dataclass of its
    arguments (formula tuples, a side Sequent, an int level) with its
    s-expression `name`, its `arity` (a premise count, or the container
    class of infinitely many) and its principal's `root` (None if none).

    A tag also keeps the text the observation writer gives it, in `_text`
    (None until mucut.sexpr sets it on the instance).  It is a class
    attribute, not a field, so equality, hashing, repr and every table
    built from fields() leave it out."""

    def describe(cls):
        cls.name, cls.arity, cls.root, cls._text = name, arity, root, None
        return dataclass(frozen=True)(cls)

    return describe


@_rule("axiom", 0, None)
class Axiom:
    """Gamma, P, ~P for atomic P (stored positive)."""

    p: tuple


@_rule("axmu", 0, None)
class AxiomMu:
    """Gamma, mu X . A, ~(mu X . A)."""

    mu: tuple


@_rule("or", 1, "or")
class Or:
    principal: tuple


@_rule("and", 2, "and")
class And:
    principal: tuple


@_rule("box", 1, "box")
class Box:
    """<>Gamma, []A, Sigma from Gamma, A; side is the Sigma used."""

    principal: tuple
    side: Sequent


@_rule("clo", 1, "mu")
class Clo:
    """Gamma, mu X . A from Gamma, A(mu X . A)."""

    principal: tuple


@_rule("ind", 1, None)
class Ind:
    """~(mu X . A), B from ~A(B), B (no extra context)."""

    mu: tuple
    b: tuple


@_rule("cut", 2, None)
class Cut:
    """Gamma from Gamma, A and Gamma, ~A (primed on both sides in the
    intermediate systems)."""

    formula: tuple


@_rule("nu", OmegaFam, "nu")
class Nu:
    """Gamma, nu X . A from Gamma, A^i(top) for every i."""

    principal: tuple


@_rule("omega", DeltaFam, None)
class Omega:
    """Gamma, phi from the family over (Delta, witness) pairs, where the
    target is a fully primed mu formula of level h and phi is the primed
    negation of the target."""

    h: int
    target: tuple


@_rule("omegabar", OmegaBarPrem, None)
class OmegaBar:
    """Gamma from Gamma, target and the same family as Omega."""

    h: int
    target: tuple


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
    """Strict conclusion, lazy (rule, premises) node."""

    # weakly referenceable so that embed can empty its identity-law memo
    # when the embedding is freed
    __slots__ = ("conclusion", "_node", "_thunk", "__weakref__")

    def __init__(self, conclusion, node, thunk):
        if not isinstance(conclusion, Sequent):
            raise InternalInvariantError("proof conclusion must be a Sequent")
        self.conclusion = conclusion
        self._node = node
        self._thunk = thunk

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
        return self._force()[0]

    @property
    def premises(self):
        return self._force()[1]


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
                "%s rule takes %d premise(s), got %d"
                % (rule.__name__.lower(), want, len(premises))
            )
        for p in premises:
            if not isinstance(p, Proof):
                raise ValueError("premises must be Proof values")
    elif not isinstance(premises, want):
        raise ValueError("%s rule needs a %s" % (rule.name, want.__name__))
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
    domain predicate.  A given tag replaces d's: the same rule kind with a
    rewritten principal, which must be in the conclusion."""
    old, prem = d._force()
    if tag is None:
        tag = old
    else:
        _require(type(tag) is type(old), "rewritten tag changes the rule kind")
        _require(tag.principal in conclusion, "principal not in conclusion")
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
    # the mapped family's own call has already run fam's predicate
    return DeltaFam(fam.admits, lambda dl, w: fn(fam.admitted(dl, w), dl))


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
        f = tag.principal
        return (substitute(f[1], f),)
    if isinstance(tag, Nu):
        return (iterate(tag.principal[1], TOP, position),)
    if isinstance(tag, (Omega, OmegaBar)):
        return (tag.target,) if position == FIRST else position
    raise InternalInvariantError("rule %r has no context premises" % (tag,))


def parts_checked(tag, conclusion):
    """True when the parts premise_added gives for tag need no check: the
    principal is a member of conclusion, so a checked formula, and has
    the rule's root, so the parts are its subformulas, its unfolding or
    one of its approximants, all closed and valid.  Rules without a
    principal answer False."""
    root = tag.root
    if root is None:
        return False
    f = tag.principal
    return f[0] == root and f in conclusion


def premise_label(tag, position):
    """The path label of a premise: "j" for a finite premise, "w<i>" for
    an omega-indexed one, "first" and "f" for the parts of a family rule."""
    if isinstance(tag, Nu):
        return "w%d" % position
    if isinstance(tag, (Omega, OmegaBar)):
        return FIRST if position == FIRST else "f"
    return "%d" % position


# ---------------------------------------------------------------------------
# node builders (cheap structural sanity only; legality is the checker's job)


def _require(cond, msg):
    if not cond:
        raise InternalInvariantError(msg)


def ax(conclusion, p):
    if p[0] == "natom":
        p = atom(p[1])
    _require(p[0] == "atom", "axiom formula must be atomic")
    if p not in conclusion or negate(p) not in conclusion:
        # formatted only on failure: printing sorts the whole conclusion
        raise InternalInvariantError(
            "axiom pair not in conclusion: %r" % (conclusion,)
        )
    return make_node(conclusion, Axiom(p), ())


def axmu_node(conclusion, mu):
    _require(mu[0] == "mu", "axmu formula must be mu-rooted")
    if mu not in conclusion or negate(mu) not in conclusion:
        # formatted only on failure: printing sorts the whole conclusion
        raise InternalInvariantError(
            "axmu pair not in conclusion: %r" % (conclusion,)
        )
    return make_node(conclusion, AxiomMu(mu), ())


def _fits(tag, conclusion):
    """tag, once its principal has its rule's root and is in conclusion."""
    f = tag.principal
    if f[0] == tag.root and f in conclusion:
        return tag
    raise InternalInvariantError(
        "%s principal must be %s-rooted and in the conclusion" % (tag.name, tag.root)
    )


def or_node(conclusion, principal, prem):
    return make_node(conclusion, _fits(Or(principal), conclusion), (prem,))


def and_node(conclusion, principal, left, right):
    return make_node(conclusion, _fits(And(principal), conclusion), (left, right))


def box_node(conclusion, principal, side, prem):
    tag = _fits(Box(principal, side), conclusion)
    _require(side.issubset(conclusion), "box side not in conclusion")
    return make_node(conclusion, tag, (prem,))


def box_fit(conclusion, principal, prem):
    """A box node on principal over prem whose side is what the packet
    <>(prem - body), principal leaves of the conclusion."""
    packet = prem.conclusion.without(principal[1]).dia().add(principal)
    _require(packet.issubset(conclusion), "box packet escapes the conclusion")
    return box_node(conclusion, principal, conclusion.difference(packet), prem)


def clo_node(conclusion, principal, prem):
    return make_node(conclusion, _fits(Clo(principal), conclusion), (prem,))


def ind_node(conclusion, mu, b, prem):
    _require(mu[0] == "mu", "ind formula must be mu-rooted")
    unfold_b = substitute(mu[1], b)
    _require(
        conclusion == Sequent((negate(mu), b)),
        "ind conclusion must be exactly the negated mu with b",
    )
    _require(
        prem.conclusion == Sequent((negate(unfold_b), b)),
        "ind premise must be exactly ~A(B), B",
    )
    return make_node(conclusion, Ind(mu, b), (prem,))


def cut_node(conclusion, formula, left, right):
    validate(formula)
    return make_node(conclusion, Cut(formula), (left, right))


def nu_node(conclusion, principal, fn):
    return make_node(conclusion, _fits(Nu(principal), conclusion), OmegaFam(fn))


def _check_replacement_target(h, target):
    _require(target[0] == "mu", "replacement target must be mu-rooted")
    _require(is_fully_primed(target), "replacement target must be fully primed")
    _require(h >= 1, "replacement level must be at least 1")


def omega_node(conclusion, h, target, admits, fn):
    _check_replacement_target(h, target)
    _require(omega_phi(target) in conclusion, "omega formula not in conclusion")
    return make_node(conclusion, Omega(h, target), DeltaFam(admits, fn))


def omegabar_node(conclusion, h, target, first, admits, fn):
    _check_replacement_target(h, target)
    _require(
        first.conclusion.is_add(conclusion, target),
        "omegabar first premise must be the conclusion plus the target",
    )
    return make_node(
        conclusion, OmegaBar(h, target), OmegaBarPrem(first, DeltaFam(admits, fn))
    )


# ---------------------------------------------------------------------------
# small standard derivations


_TOP = from_checked((TOP,))
_TOP_PARTS = from_checked(TOP[1:])


def top_intro(extra):
    """A two-node proof of {top} union extra.  Only extra is checked."""
    extra = Sequent(extra)
    leaf = ax(extra.union(_TOP_PARTS), TOP[1])
    return or_node(extra.union(_TOP), TOP, leaf)


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


ADMIT_DEPTH = 2


def standard_admits(h, target):
    """Domain predicate for replacement families: delta is h-positive and
    the witness concludes delta plus the target, cut-free as far as a
    bounded look can see (trusted beyond that bound)."""

    def admits(delta, witness):
        if not isinstance(delta, Sequent) or not isinstance(witness, Proof):
            return False
        if not is_k_positive(delta, h):
            return False
        if not witness.conclusion.is_add(delta, target):
            return False
        return is_cut_free_observed(witness, ADMIT_DEPTH, (0,), 0)

    return admits


# ---------------------------------------------------------------------------
# observation


@dataclass(slots=True)
class Observation:
    """A finite window onto a proof.  Nothing hashes or mutates a window
    once observe has built it; it is not frozen because a frozen
    dataclass's __init__ costs three times as much, and check_finite
    observes a one-step window at every node of its proof."""

    conclusion: object
    rule: object
    children: tuple = ()
    truncated: bool = False
    sampled: tuple = None
    probes: tuple = None
    error: str = None


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
    when probe_budget is at least 1.  Failures to force a node, to produce
    a premise or family output, and unknown rule tags become error leaves;
    fuel exhaustion and running out of stack propagate."""
    try:
        tag, prem = p._force()
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001 - failures become leaves
        return _error_leaf(exc, p.conclusion)
    c = p.conclusion
    if isinstance(tag, FINITE_TAGS):
        if depth == 0:
            return Observation(c, tag, (), truncated=bool(prem))
        kids = []
        for q in prem:  # a loop, not a generator: one frame per level
            kids.append(observe(q, depth - 1, samples, probe_budget))
        return Observation(c, tag, tuple(kids))
    if isinstance(tag, Nu):
        if depth == 0:
            return Observation(c, tag, (), truncated=True, sampled=())
        idx = tuple(sorted(set(samples)))
        kids = tuple(_premise(prem, (i,), depth, samples, probe_budget) for i in idx)
        return Observation(c, tag, kids, truncated=True, sampled=idx)
    if isinstance(tag, (Omega, OmegaBar)):
        if depth == 0:
            return Observation(c, tag, (), truncated=True, probes=())
        kids, probes, fam = [], (), prem
        if isinstance(tag, OmegaBar):
            fam = prem.fam
            kids.append(observe(prem.first, depth - 1, samples, probe_budget))
        if probe_budget >= 1:
            delta, witness = canonical_probe(tag.target)
            probes = (delta,)
            kids.append(_premise(fam, (delta, witness), depth, samples, probe_budget))
        return Observation(c, tag, tuple(kids), truncated=True, probes=probes)
    return _error_leaf("unknown rule tag: %r" % (tag,), c)


def _premise(get, args, depth, samples, probe_budget):
    """The window below the premise get(*args) of a node at depth."""
    try:
        q = get(*args)
    except _LIMITS:
        raise
    except Exception as exc:  # noqa: BLE001
        return _error_leaf(exc)
    return observe(q, depth - 1, samples, probe_budget)


def _preorder(o):
    """The nodes of an observation in preorder, over an explicit stack."""
    stack = [o]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def observation_rules(o):
    """All rule tags in an observation, preorder."""
    return [node.rule for node in _preorder(o)]


def observation_sequents(o):
    """All conclusions in an observation, preorder (error leaves skipped)."""
    return [node.conclusion for node in _preorder(o) if node.error is None]


def observation_errors(o):
    """All error messages in an observation, preorder."""
    return [node.error for node in _preorder(o) if node.error is not None]


def is_cut_free_observed(p, depth, samples=(0, 1, 2), probe_budget=1):
    """True when no Cut node and no family failure shows up within the
    observation window."""
    o = observe(p, depth, samples, probe_budget)
    if observation_errors(o):
        return False
    return not any(isinstance(r, Cut) for r in observation_rules(o) if r)
