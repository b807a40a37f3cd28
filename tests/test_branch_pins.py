"""Pinned outputs of rule cases that neither the corpus, the rest of the
suite nor the benchmark workloads reach.

Each case below drives one branch of embed, context substitution,
un-priming, cut commutation or cut elimination's modal reduction: the
Box cases (which fit the premise into a box packet), the replacement-rule
and non-target closure cases, and a box cut against its diamond dual.  A
finite S proof is pushed through `pipeline` and all four stages are
pinned; a direct `subst_context` or `deprime` call pins its one result.
Each digest is the sha256 of `observation_dumps` at the default
observation flags, taken before these walks were moved onto
`map_premises` (the modal case: before the formula kernel was memoized),
so a refactor of those walks must keep the bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from mucut.checker import check_bounded, omega_system
from mucut.cli import DEFAULT_DEPTH, DEFAULT_PROBES, DEFAULT_SAMPLES
from mucut.collapse import pipeline
from mucut.cutelim import reduce_head, weaken
from mucut.embed import deprime, ind_to_omega, identity_mu_primed, subst_context
from mucut.kernel import TOP, atom, box, dia, natom, negate, prime, substitute
from mucut.proofs import (
    Box,
    Clo,
    Omega,
    OmegaBar,
    ax,
    box_node,
    clo_node,
    cut_node,
    ind_node,
    observation_errors,
    observe,
    omega_phi,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent
from mucut.sexpr import observation_dumps
from mucut.syntax import parse_formula as pf

STAGES = ("embedded", "eliminated", "collapsed", "sinf")

# M1 is the substitution target; M3 carries the replacement rules.
M1 = pf("mu X . (p1 | X)")
M3 = pf("mu X . (p2 | X)")
PHI1 = omega_phi(prime(M1))
BOX_TOP = box(TOP)


def _digest(p):
    o = observe(p, DEFAULT_DEPTH, DEFAULT_SAMPLES, DEFAULT_PROBES)
    assert observation_errors(o) == []
    return hashlib.sha256(observation_dumps(o).encode("utf-8")).hexdigest()


def _asm(mu, b):
    """The induction-premise embedding for invariant top: ~A(top)', top."""
    assert b == TOP
    return top_intro((prime(negate(substitute(mu[1], b))),))


def _omegabar(context):
    """A bar-replacement node on M3 concluding {top} plus context, made by
    one head reduction of a cut on M3 against an Omega node."""
    o1, _ = ind_to_omega(_asm(M3, TOP), _asm(M3, TOP), M3, TOP)
    g = Sequent((TOP,) + tuple(context))
    mu_side = weaken(top_intro((M3,)), context)
    d = reduce_head(cut_node(g, M3, mu_side, weaken(o1, context)))
    assert isinstance(d.rule, OmegaBar)
    return d


# --- finite S proofs, all four pipeline stages -----------------------------


def _embed_box():
    # the Box case of embed
    return box_node(Sequent((BOX_TOP,)), BOX_TOP, Sequent(), top_intro(()))


def _subst_box():
    # a cut on mu X . [](p0 | ~p0): the mu side unfolds by clo over a box
    # whose side is {top, mu}, so the collapse plug substitutes into a Box
    mu = ("mu", BOX_TOP)
    mu_side = clo_node(
        Sequent((mu, TOP)),
        mu,
        box_node(
            Sequent((BOX_TOP, TOP, mu)), BOX_TOP, Sequent((TOP, mu)), top_intro(())
        ),
    )
    ind_side = ind_node(
        Sequent((negate(mu), TOP)),
        mu,
        TOP,
        top_intro((negate(substitute(mu[1], TOP)),)),
    )
    return cut_node(Sequent((TOP,)), mu, mu_side, ind_side)


def _commute_box():
    # a cut on p1 between two box nodes that carry it in their sides: cut
    # elimination commutes the cut into the Box side
    def side(lit):
        return box_node(
            Sequent((BOX_TOP, lit)), BOX_TOP, Sequent((lit,)), top_intro(())
        )

    return cut_node(Sequent((BOX_TOP,)), atom(1), side(atom(1)), side(natom(1)))


def _modal():
    # a cut on [](p0 | ~p0) against a box whose diamond part holds its
    # dual: the modal reduction, then a commute into an axiom context
    b0, b1, d = pf("[](p0 | ~p0)"), pf("[](p1 | ~p1)"), pf("<>(~p0 & p0)")
    left = box_node(Sequent((b0, b1)), b0, Sequent((b1,)), top_intro(()))
    right = box_node(
        Sequent((b1, d)),
        b1,
        Sequent(),
        or_node(
            Sequent((b1[1], d[1])),
            b1[1],
            ax(Sequent((atom(1), natom(1), d[1])), atom(1)),
        ),
    )
    return cut_node(Sequent((b1,)), b0, left, right)


PIPELINE_CASES = {
    "embed-box": (_embed_box, {
        "embedded": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
        "eliminated": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
        "collapsed": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
        "sinf": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
    }),
    "subst-box": (_subst_box, {
        "embedded": "552754d3bf267e92f321807a9ad280ea94be3ab1b081f19e786f75226a3da149",
        "eliminated": "46383dac852e6fea0559ac631afa369c19596b01d47d1b372df096a0b215ce71",
        "collapsed": "4edb4d5d85c49848e53aeed9a26c330287c750948db37b5079547d5bf57c15f4",
        "sinf": "4edb4d5d85c49848e53aeed9a26c330287c750948db37b5079547d5bf57c15f4",
    }),
    "commute-box": (_commute_box, {
        "embedded": "e3756d6e3ed6774c5b9c55808b530f5d777738fa87c451600d26c92fe4aaa934",
        "eliminated": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
        "collapsed": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
        "sinf": "9138ab161c4576a59731fda3b955043a216f843ef176c996d1fcfc3326767452",
    }),
    "modal": (_modal, {
        "embedded": "402ec10c0fb5ad92b48162988d8cba5bb51a4fc39938edcf29e9a75e119d7aa8",
        "eliminated": "c1f0d975945fd5665e537e1ad01bebb03250a69e653d39f15f3767c913d0e56e",
        "collapsed": "c1f0d975945fd5665e537e1ad01bebb03250a69e653d39f15f3767c913d0e56e",
        "sinf": "c1f0d975945fd5665e537e1ad01bebb03250a69e653d39f15f3767c913d0e56e",
    }),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_pipeline_case_matches_pinned_digests(name):
    build, want = PIPELINE_CASES[name]
    stages = pipeline(build())
    assert {s: _digest(stages[s]) for s in STAGES} == want


def test_modal_case_takes_the_modal_reduction():
    steps = []
    stages = pipeline(_modal(), trace=lambda path, case, rank: steps.append((path, case)))
    _digest(stages["eliminated"])
    assert steps == [
        ("root", "modal"),
        ("root.0", "commute"),
        ("root.0.0", "axiom-context"),
    ]


# --- direct calls ------------------------------------------------------------


def _subst(d):
    """Substitute top for every occurrence of M1 in d."""
    return subst_context(d, {M1: frozenset(("s1",))}, _asm(M1, TOP), _asm(M1, TOP), M1, TOP)


def _subst_clo():
    # a closure on M3 beside the substituted M1
    d = clo_node(
        Sequent((M3, M1, TOP)), M3, top_intro((substitute(M3[1], M3), M1))
    )
    assert isinstance(d.rule, Clo)
    return _subst(d)


def _subst_omega():
    d = weaken(identity_mu_primed(M3), (M1,))
    assert isinstance(d.rule, Omega)
    return _subst(d)


def _subst_omegabar():
    return _subst(_omegabar((M1,)))


def _deprime_box():
    # a box whose principal is the prime of the un-priming target
    d = box_node(
        Sequent((dia(M1), box(PHI1))),
        box(PHI1),
        Sequent(),
        identity_mu_primed(M1),
    )
    assert isinstance(d.rule, Box)
    return deprime(d, box(negate(M1)))


def _deprime_omega():
    # an Omega node on M3 carrying the primed target in its context
    d = weaken(identity_mu_primed(M3), (PHI1,))
    assert isinstance(d.rule, Omega)
    return deprime(d, negate(M1))


def _deprime_omegabar():
    return deprime(_omegabar((PHI1,)), negate(M1))


DIRECT_CASES = {
    "subst-clo": (
        _subst_clo,
        "204f107ba3a7761921003a93ff6ce5d82161f6dcd57bac9bc53dd95be7e948a0",
    ),
    "subst-omega": (
        _subst_omega,
        "1e2194435fadb9fe4191a291bcec3a771d99e190ea6de01fb2dbe21b69867773",
    ),
    "subst-omegabar": (
        _subst_omegabar,
        "1a4c22bd8de66931815bce76d8a7aa091ea31bb4c40c3cde02620012fd756091",
    ),
    "deprime-box": (
        _deprime_box,
        "4637d3769f76c5c02dd007fa7b7d8ed99a6ac3d453364fc1b1e16ed4bb09c0e4",
    ),
    "deprime-omega": (
        _deprime_omega,
        "fa9e3ed6869e0941b8d592b73e100b99db67be9f572feac0b774a75c9bae98c3",
    ),
    "deprime-omegabar": (
        _deprime_omegabar,
        "9a09dfa1e0a7914464ee411ce7ab173ec3a7b39483a3f1d2b7eef024c520db88",
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT_CASES))
def test_direct_case_matches_pinned_digest(name):
    build, want = DIRECT_CASES[name]
    out = build()
    assert check_bounded(out, omega_system(1), DEFAULT_DEPTH).ok
    assert _digest(out) == want
