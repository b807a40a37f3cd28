"""Collapsing replacement rules and reading off the plain infinitary
proof."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_pipeline_passes, random_formulas
from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
    subformula_report,
)
from mucut.collapse import STAGES, collapse, pipeline, verdict
from mucut.corpus import CORPUS
from mucut.cutelim import eliminate
from mucut.embed import embed, identity_mu_primed
from mucut.errors import InternalInvariantError
from mucut.kernel import TOP, atom, natom, negate, prime, substitute
from mucut.proofs import (
    Axiom,
    And,
    Box,
    Clo,
    Cut,
    Nu,
    Omega,
    OmegaBar,
    Or,
    Proof,
    and_node,
    axmu_node,
    box_fit,
    clo_node,
    cut_node,
    ind_node,
    observation_errors,
    observation_rules,
    observation_sequents,
    observe,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent
from mucut.sexpr import observation_dumps
from mucut.syntax import parse_formula as pf, print_form

PLAIN = (Axiom, Or, And, Box, Clo, Nu)


def test_collapse_leaves_plain_proofs_alone():
    p = top_intro(())
    c = collapse(p, 0)
    assert c.conclusion == p.conclusion
    o = observe(c, 4)
    assert all(isinstance(t, PLAIN) for t in observation_rules(o))


def test_collapse_level_gate():
    m = pf("mu X . (p1 | X)")
    p = identity_mu_primed(m, 1)  # starts with a replacement rule
    assert isinstance(p.rule, Omega)
    # collapsing to h=1 keeps the level-1 rule
    kept = collapse(p, 1)
    assert isinstance(kept.rule, Omega)
    # collapsing to h=0 cannot remove a plain (non-bar) introduction whose
    # formula is pinned in the conclusion
    with pytest.raises(InternalInvariantError):
        collapse(p, 0).rule


def test_collapse_rejects_cuts():
    e2 = CORPUS["top-cut"]()
    emb = embed(e2, (), 0)
    c = collapse(emb, 0)
    with pytest.raises(InternalInvariantError):
        c.rule


def test_sinf_judge_rejects_foreign_rules():
    m = pf("mu X . (p1 | X)")
    report = check_bounded(identity_mu_primed(m, 1), SYSTEM_SINF, 1)
    assert ("root", "rule omega is not part of system sinf") in report.violations


def test_pipeline_stages():
    for name in ("ind-top", "nested"):
        p = CORPUS[name]()
        stages = pipeline(p)
        assert set(stages) == {"embedded", "eliminated", "collapsed", "sinf"}
        for stage in stages.values():
            assert stage.conclusion == p.conclusion
        final = observe(stages["sinf"], 6)
        tags = observation_rules(final)
        assert all(isinstance(t, PLAIN) for t in tags), name
        assert not any(isinstance(t, (Cut, Omega, OmegaBar)) for t in tags)
        for s in observation_sequents(final):
            assert s.max_nubar_level() < 0
        assert check_bounded(stages["sinf"], SYSTEM_SINF, 6).ok, name
        assert subformula_report(stages["sinf"], 6).ok, name


def test_collapsed_stage_has_no_replacement_rules():
    p = CORPUS["nested"]()
    stages = pipeline(p)
    o = observe(stages["collapsed"], 6)
    assert not any(
        isinstance(t, (Omega, OmegaBar)) for t in observation_rules(o)
    )


def test_nu_sampling_in_the_final_proof():
    # the final proof introduces greatest fixed points by the omega rule,
    # whose premises are sampled at the requested indices
    p = CORPUS["ind-top"]()
    stages = pipeline(p)
    o = observe(stages["sinf"], 3, samples=(0, 1))

    def find_nu(ob):
        if isinstance(ob.rule, Nu):
            return ob
        for child in ob.children:
            hit = find_nu(child)
            if hit is not None:
                return hit
        return None

    nu_ob = find_nu(o)
    assert nu_ob is not None
    assert nu_ob.sampled == (0, 1)
    assert len(nu_ob.children) == 2


def test_collapse_preserves_endsequent_of_eliminated_proof():
    e4 = CORPUS["nested"]()
    elim = eliminate(embed(e4, (), 2))
    col = collapse(elim, 0)
    assert col.conclusion == elim.conclusion == e4.conclusion


# ---------------------------------------------------------------------------
# stages that pass through


@pytest.mark.parametrize(
    "name, passes",
    [("ind-top", False), ("top-cut", False), ("axmu", True), ("nested", False)],
)
def test_pipeline_passes_through_only_proofs_without_cuts_and_inductions(
    name, passes
):
    stages = pipeline(CORPUS[name]())
    assert (stages["eliminated"] is stages["embedded"]) is passes
    assert (stages["collapsed"] is stages["embedded"]) is passes
    assert stages["sinf"] is stages["collapsed"]


def test_a_primed_identity_axiom_takes_the_long_path():
    # its identity law unprimes a nub subformula by a replacement rule,
    # which collapse has to see
    m = prime(pf("mu X . ((nu X . (p1 & X)) | X)"))
    stages = pipeline(axmu_node(Sequent((m, negate(m))), m))
    assert stages["eliminated"] is not stages["embedded"]
    assert stages["collapsed"] is not stages["eliminated"]


# mu formulas for generated identity axioms, their unfoldings (so that a
# closure step can introduce them) and side formulas
_MUS = [f for f in random_formulas(14, 300, max_size=9, max_level=2) if f[0] == "mu"][:10]
_UNFOLDED = {substitute(m[1], m): m for m in _MUS}
_SIDES = [atom(1), natom(2), TOP, *_UNFOLDED]


def _member(draw, s):
    return draw(st.sampled_from(sorted(s, key=print_form)))


@st.composite
def _plain_proofs(draw, depth=4):
    """Cut-free, induction-free S proofs: identity axioms on generated mu
    formulas, in a context, under or, and, box and closure steps.  Each
    step keeps the context S asks for: or and and join two members of the
    premise's conclusion, and has the same premise twice."""
    kind = draw(st.integers(0, 4)) if depth else 0
    if kind == 0:
        m = draw(st.sampled_from(_MUS))
        extra = draw(st.lists(st.sampled_from(_SIDES), max_size=2))
        return axmu_node(Sequent((m, negate(m), *extra)), m)
    p = draw(_plain_proofs(depth - 1))
    c = p.conclusion
    a = _member(draw, c)
    if kind == 1:
        b = _member(draw, c)
        f = ("or", a, b)
        return or_node(c.without(a).without(b).add(f), f, p)
    if kind == 2:
        f = ("and", a, _member(draw, c))
        return and_node(c.add(f), f, p, p)
    if kind == 3:
        f = ("box", a)
        return box_fit(c.without(a).dia().add(f), f, p)
    unfolded = [g for g in c if g in _UNFOLDED]
    if not unfolded:
        return p
    g = unfolded[0]
    return clo_node(c.without(g).add(_UNFOLDED[g]), _UNFOLDED[g], p)


@settings(deadline=None, max_examples=60)
@given(_plain_proofs())
def test_passed_stages_equal_the_long_path(p):
    assert check_finite(p, SYSTEM_S).ok
    stages = pipeline(p)
    embedded = stages["embedded"]
    assert all(stages[name] is embedded for name in ("eliminated", "collapsed", "sinf"))
    long_embedded = embed(p, frozenset(), level_bound(p))
    long_collapsed = collapse(eliminate(long_embedded), 0)
    o = observe(embedded, 8)
    assert observation_errors(o) == []
    # the window of the sinf stage is an S-infinity window, the bound included
    assert check_observation(o, SYSTEM_SINF, 8).ok
    assert all(isinstance(t, PLAIN) for t in observation_rules(o))
    for long in (long_embedded, long_collapsed):
        assert observation_dumps(o) == observation_dumps(observe(long, 8))


def test_top_induction_cut_over_trivial_mu():
    # {top} by a cut on mu X . X: the mu side by clo over a truth
    # introduction, the negated side by induction with invariant top.
    # The unfolding of mu X . X under the invariant is the invariant
    # itself, top, which is its own prime, so the closure step of context
    # substitution adds as its image the very formula it then cuts away.
    mu = pf("mu X . X")
    mu_side = clo_node(Sequent((mu, TOP)), mu, top_intro((mu,)))
    ind_side = ind_node(
        Sequent((negate(mu), TOP)), mu, TOP, top_intro((negate(TOP),))
    )
    assert_pipeline_passes(cut_node(Sequent((TOP,)), mu, mu_side, ind_side))


def test_induction_cut_over_trivial_mu_with_a_nu_invariant():
    # {nu X . X} by a cut on mu X . X against an induction whose invariant
    # is nu X . X: the invariant differs from its prime nub X . X, so only
    # the b' image of context substitution meets the formula cut away
    mu = pf("mu X . X")
    nu = negate(mu)
    assert prime(nu) != nu
    axiom = axmu_node(Sequent((mu, nu)), mu)
    mu_side = clo_node(Sequent((mu, nu)), mu, axiom)
    ind_side = ind_node(Sequent((nu,)), mu, nu, axiom)
    assert_pipeline_passes(cut_node(Sequent((nu,)), mu, mu_side, ind_side))


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_verdict_passes_the_corpus(depth):
    for name, build in CORPUS.items():
        p = build()
        v = verdict(p, pipeline(p), depth)
        assert v.passed, (name, v.error, [stage.failure for stage in v.stages])
        assert v.k == level_bound(p)
        assert [stage.name for stage in v.stages] == list(STAGES)
        omega = "omega:%d" % v.k
        assert [stage.system for stage in v.stages] == [omega, omega, "sinf", "sinf"]


def test_verdict_names_the_stage_of_the_first_error_leaf_and_judges_nothing():
    # the embedded stage is clean; the eliminated and sinf stages cannot
    # be forced, and the first of them in stage order is reported
    p = CORPUS["nested"]()
    stages = pipeline(p)

    def planted(text):
        def fail():
            raise InternalInvariantError(text)
        return Proof.defer(p.conclusion, fail)

    stages["eliminated"], stages["sinf"] = planted("first"), planted("second")
    v = verdict(p, stages, 6)
    assert v.error == ("eliminated", "first")
    assert not v.passed
    judged = {(omega_system(v.k), 6), (SYSTEM_SINF, 6)}
    for stage in v.stages:
        assert (stage.report, stage.failure) == (None, None), stage.name
        assert not judged & set(stage.window.kept or ()), stage.name


def test_verdict_fails_only_the_sinf_stage_on_a_foreign_rule_at_the_bound():
    # the judge counts the axmu node at the bound as a truncation point;
    # the scan of the final window fails the sinf stage, in the CLI's words
    p = CORPUS["axmu"]()
    stages = pipeline(p)
    a, b = p.conclusion
    stages["sinf"] = or_node(Sequent((("or", a, b),)), ("or", a, b), CORPUS["axmu"]())
    v = verdict(p, stages, 1)
    assert v.error is None
    assert [stage.failure for stage in v.stages] == [
        None, None, None, "rule axmu at the depth bound is not part of system sinf",
    ]
    assert all(stage.report.ok for stage in v.stages)
    assert (v.cut_free, v.nubar_free, v.passed) == (True, True, False)
    # one level deeper the judge itself sees the rule, and the scan adds nothing
    v = verdict(p, stages, 2)
    assert v.stages[-1].failure == "root.0: rule axmu is not part of system sinf"
