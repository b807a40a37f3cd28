"""The guards of the builders and transformations.

Each `InternalInvariantError` guard that some input can trip is tripped
here through a public entry, or with a node that breaks its rule's
conditions, built as the mutation harness builds its mutants (with
`make_node` or `Proof.make`, which skip them), and the error's type and
whole text are checked.  Where a guard was deleted because a check that
stays on the same path refuses the same fault, that check's refusal is
checked instead; where a kernel law makes a guard's condition
impossible, the law is.  The handlers that turn a failure into text let
the resource limits through, so a limit hit inside one propagates.
"""

from __future__ import annotations

import re
import sys

import pytest

from test_small_scope import formulas_of_size
from mucut.checker import check_finite, omega_system
from mucut.collapse import collapse
from mucut.corpus import cut_chain, top_induction_cut
from mucut.cutelim import eliminate, reduce_head
from mucut.embed import (
    deprime,
    embed,
    identity_mu_primed,
    ind_to_omega,
    monotone,
    subst_context,
)
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import (
    TOP,
    atom,
    has_free_var,
    level,
    natom,
    negate,
    prime,
    substitute,
    unfolding,
)
from mucut.proofs import (
    Axiom,
    Box,
    Clo,
    DeltaFam,
    Omega,
    Proof,
    ax,
    axmu_node,
    box_node,
    clo_node,
    cut_node,
    ind_node,
    make_node,
    nu_node,
    omega_node,
    omegabar_node,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, from_checked

P1, N1, P2, N2 = atom(1), natom(1), atom(2), natom(2)
VAR = ("var",)
MU = ("mu", ("or", P1, VAR))  # mu X . (p1 | X): fully primed, level 1
MU_X = ("mu", VAR)  # mu X . X
BOX_TOP = ("box", TOP)


def seq(*forms):
    return Sequent(forms)


def _unused(delta, witness):
    raise AssertionError("the family is never called")


def _mutant_omega(conclusion, target, h=None):
    """An omega node on target at level h (target's own by default), built
    with make_node, so its rule's conditions are not checked."""
    h = level(target) if h is None else h
    return make_node(conclusion, Omega(h, target), DeltaFam(target, _unused))


# ---------------------------------------------------------------------------
# cutelim and proofs


def _omega_cut(fn):
    """A cut on MU between a closure on MU and a replacement rule whose
    family is fn: reduction replaces the rule with its bar variant."""
    mu_side = clo_node(seq(MU, TOP), MU, top_intro((unfolding(MU),)))
    om_side = omega_node(seq(TOP, prime(negate(MU))), MU, fn)
    return cut_node(seq(TOP), MU, mu_side, om_side)


def _modal_cut(body_side):
    """A cut on []p1 whose box side has the premise body_side, against a
    box node on []top whose premise carries <>~p1's body: box_node does not
    compare a premise with its conclusion, so the box side may lack p1 or
    carry a formula whose diamond the conclusion lacks."""
    dia_side = box_node(seq(BOX_TOP, ("dia", N1)), BOX_TOP, seq(), top_intro((N1,)))
    box_side = box_node(seq(BOX_TOP, ("box", P1)), ("box", P1), seq(BOX_TOP), body_side)
    return cut_node(seq(BOX_TOP), ("box", P1), box_side, dia_side)


def _ind_cut():
    """An S proof that cuts p1 between two induction nodes: neither root
    can be commuted, and no other case applies."""
    left = ind_node(seq(negate(MU_X), P1), MU_X, P1, ax(seq(N1, P1), P1))
    right = ind_node(seq(negate(MU_X), N1), MU_X, N1, ax(seq(P1, N1), P1))
    return cut_node(seq(negate(MU_X)), P1, left, right)


def _axmu_cut():
    """An S proof that cuts p1 between two axmu leaves."""
    pair = (MU, negate(MU))
    return cut_node(seq(*pair), P1, axmu_node(seq(P1, *pair), MU), axmu_node(seq(N1, *pair), MU))


# ---------------------------------------------------------------------------
# embed's un-priming and context substitution

_NUB_NU = ("nu", ("or", ("nub", VAR), VAR))  # a nub and a plain nu


def _deprimed_mutant(a):
    """a un-primed in the replacement rule that introduces a', whose
    target is ~a, built as a mutant since ~a need not be fully primed."""
    return deprime(_mutant_omega(seq(prime(a)), negate(a)), a)


# the context substitution: t = MU' = MU, b = top


_CF = substitute(MU[1], TOP)  # p1 | top, the unfolding of MU at b
_ASM = top_intro((prime(negate(_CF)),))  # concludes (~A(b))', b and b'
_SIGMA = frozenset(("s1",))


def _substituted(d, rho):
    return subst_context(d, rho, _ASM, _ASM, MU, TOP)


def _two_images():
    phi = ("or", MU, P2)
    d = or_node(seq(phi, TOP), phi, top_intro((MU, P2)))
    return _substituted(d, {phi: frozenset(("d", "s1"))})


def _moded_replacement():
    # the target holds a nub whose negation is MU, so the formula the rule
    # introduces holds MU
    target = ("mu", ("or", ("nub", ("and", N1, VAR)), VAR))
    phi = prime(negate(target))
    return _substituted(omega_node(seq(phi), target, _unused), {phi: _SIGMA})


def _wrong_level():
    member = ("or", MU, P2)
    d = _mutant_omega(seq(prime(negate(MU)), member), MU, h=7)
    return _substituted(d, {member: _SIGMA})


def _binder_principal():
    outer = ("mu", ("or", MU, VAR))
    d = clo_node(seq(outer, TOP), outer, top_intro((unfolding(outer),)))
    return _substituted(d, {outer: _SIGMA})


def _dropped_member():
    # the conclusion holds f* = (p1 | top), the image of MU's unfolding
    # that the cut against _ASM removes, so the cut drops it from the
    # context too: the construction does not reach the image sequent
    u = unfolding(MU)
    premise = or_node(seq(u, _CF), _CF, top_intro((P1, u)))
    return _substituted(clo_node(seq(MU, _CF), MU, premise), {MU: _SIGMA})


# A guard's name (module, function, what trips it) -> the call that trips
# it, forcing the root of what it builds, and the error's whole text.
TRIPS = {
    "cutelim.reduce_head: no cut at the root": (
        lambda: reduce_head(top_intro(())),
        "reduce_head needs a cut at the root",
    ),
    "cutelim.reduce_head: a cut whose negated side holds a plain nu": (
        lambda: reduce_head(top_induction_cut(MU)),
        "cut premises do not match the cut formula's primed sides",
    ),
    "cutelim.reduce_head: an axmu premise": (
        lambda: reduce_head(_axmu_cut()),
        "axmu node inside an intermediate-system proof",
    ),
    "cutelim.reduce_head: a family output of another conclusion": (
        lambda: collapse(eliminate(_omega_cut(lambda delta, w: top_intro((P2,))))).rule,
        "replacement family output has unexpected shape",
    ),
    "cutelim.reduce_head: a box premise without its body": (
        lambda: reduce_head(_modal_cut(top_intro(()))),
        "box premises lack the bodies of the modal cut pair",
    ),
    "cutelim.reduce_head: a box packet outside the conclusion": (
        lambda: reduce_head(_modal_cut(top_intro((P1,)))),
        "box packet escapes the cut conclusion in the modal case",
    ),
    "cutelim.reduce_head: induction premises": (
        lambda: reduce_head(_ind_cut()),
        "no reduction case applies at root (cut on ('atom', 1))",
    ),
    "proofs.map_premises: an unknown rule tag": (
        lambda: eliminate(Proof.make(seq(P1, N1), "junk", ())).rule,
        "unknown rule tag: 'junk'",
    ),
    "proofs.ind_node: a wrong premise": (
        lambda: ind_node(seq(negate(MU_X), P1), MU_X, P1, top_intro(())),
        "ind premise must be exactly ~A(B), B",
    ),
    "embed.embed: a nu node": (
        lambda: embed(nu_node(seq(("nu", P1)), ("nu", P1), _unused)).rule,
        "rule not part of the finitary system: Nu(principal=('nu', ('atom', 1)))",
    ),
    "embed.embed: cut premises without the cut formula": (
        lambda: embed(cut_node(seq(P2, N2), P1, ax(seq(P2, N2), P2), ax(seq(P2, N2), P2))).rule,
        "cut premises do not match the cut formula",
    ),
    "embed.identity_mu_primed: a formula that is not mu-rooted": (
        lambda: identity_mu_primed(P1),
        "identity law needs a mu-rooted formula",
    ),
    "embed.monotone: a nub operator holding a plain nu": (
        lambda: monotone(ax(seq(P1, N1), P1), ("nub", ("nu", VAR)), P1, N1).rule,
        "annotated binder subterm must be fully primed",
    ),
    "embed.deprime: a target outside the base language": (
        lambda: deprime(top_intro((prime(_NUB_NU),)), _NUB_NU).rule,
        "un-priming target must be a base-language formula",
    ),
    "embed.deprime: a replacement rule on a target that is not mu-rooted": (
        lambda: _deprimed_mutant(("or", P1, ("nu", VAR))).rule,
        "replacement formula must prime a nu formula",
    ),
    "embed.deprime: a replacement target that is not fully primed": (
        lambda: _deprimed_mutant(("nu", ("and", MU, VAR))).rule,
        "replacement target disagrees with the un-priming target",
    ),
    "embed.subst_context: a principal with two images": (
        lambda: _two_images().rule,
        "principal formula with several substitution images",
    ),
    "embed.subst_context: a replacement formula with a substitution mode": (
        lambda: _moded_replacement().rule,
        "replacement formula carries a substitution mode",
    ),
    "embed.subst_context: a replacement rule of the wrong level": (
        lambda: _wrong_level().rule,
        "replacement target mu X . (p1 | X) has level 1, rule says 7",
    ),
    "embed.subst_context: a binder principal that holds the target": (
        lambda: _binder_principal().rule,
        "binder-rooted substitution image other than the target",
    ),
    "embed.subst_context: a context member the cut drops": (
        lambda: _dropped_member().rule,
        "substitution stack does not reach the image sequent",
    ),
    "embed.ind_to_omega: a wrong second embedding": (
        lambda: ind_to_omega(_ASM, top_intro(()), MU, TOP),
        "second induction embedding has the wrong conclusion",
    ),
}


@pytest.mark.parametrize("name", sorted(TRIPS))
def test_each_guard_an_input_can_trip_is_tripped(name):
    call, text = TRIPS[name]
    with pytest.raises(InternalInvariantError, match="^%s$" % re.escape(text)):
        call()


# ---------------------------------------------------------------------------
# deleted guards: the check that stays refuses the same fault, or a kernel
# law rules it out


def test_a_replacement_target_that_is_not_fully_primed_is_refused_by_its_bar_rule():
    # case (vi) met a target other than the mu side's cut formula only when
    # the target is not fully primed; the bar rule's own condition refuses it
    target = ("mu", ("or", ("nu", VAR), VAR))
    t = prime(target)
    mu_side = clo_node(seq(t, TOP), t, top_intro((unfolding(t),)))
    om_side = _mutant_omega(seq(TOP, prime(negate(target))), target)
    text = "replacement target mu X . (nu X . X | X) must be a fully primed mu formula"
    with pytest.raises(InternalInvariantError, match="^%s$" % re.escape(text)):
        reduce_head(cut_node(seq(TOP), target, mu_side, om_side))


def test_a_plug_that_changes_the_conclusion_is_refused_where_collapse_is_forced():
    first = clo_node(seq(MU, TOP), MU, top_intro((unfolding(MU),)))
    bar = omegabar_node(seq(TOP), MU, first, lambda delta, w: top_intro((P2,)))
    text = "deferred proof concluded {p2, (p0 | ~p0)}, expected {(p0 | ~p0)}"
    with pytest.raises(InternalInvariantError, match="^%s$" % re.escape(text)):
        collapse(bar).rule  # noqa: B018 - forcing the root plugs it


def test_the_kernel_laws_that_replace_guards():
    # prime never gives a nu root (a primed cut side is never plain nu),
    # and a binder-rooted formula is closed (an identity law's mu-rooted
    # formula needs no closedness check)
    forms = [f for n in range(1, 6) for f in formulas_of_size(n)]
    forms += [prime(f) for f in forms]
    assert any(f[0] == "nub" for f in forms)
    for f in forms:
        assert prime(f)[0] != "nu"
        if f[0] in ("mu", "nu", "nub"):
            assert not has_free_var(f)


# ---------------------------------------------------------------------------
# resource limits propagate through the handlers that turn failures into text


def _deep_mu(i):
    """A mu formula nested deeper than the recursion limit, made anew on
    each call: closed at its root, so it enters a sequent, and two calls
    give equal objects whose comparison recurses to the bottom."""
    body = VAR
    for _ in range(sys.getrecursionlimit() + 50):
        body = ("or", atom(i), body)
    return ("mu", body)


def _raised_in(call, where):
    with pytest.raises(RecursionError) as got:
        call()
    assert where in [entry.name for entry in got.traceback]


def test_a_recursion_error_in_a_rule_condition_propagates():
    # the clo principal is looked up in a conclusion that holds its copy
    p = Proof.make(seq(_deep_mu(11)), Clo(_deep_mu(11)), (top_intro(()),))
    _raised_in(lambda: check_finite(p, omega_system(1)), "_principal_fits")


def test_a_recursion_error_in_a_premise_check_propagates():
    # the box principal is the conclusion's own member, and its body is
    # looked up in a premise that holds its copy, unchecked, since the
    # kernel's memos would compare the two
    principal = ("box", _deep_mu(12))
    premise = Proof.make(from_checked((_deep_mu(12),)), Axiom(P1), ())
    p = Proof.make(seq(principal), Box(principal, seq()), (premise,))
    _raised_in(lambda: check_finite(p, omega_system(1)), "_box_premise")


def test_fuel_exhaustion_while_forcing_a_node_propagates():
    # the judge reads a proof node's error, which forcing it would give
    eliminated = eliminate(embed(cut_chain([P1, P2])), fuel=0)
    with pytest.raises(FuelExhausted, match="^reduction budget exhausted at root$"):
        check_finite(eliminated, omega_system(1))
