"""Collapsing replacement rules and reading off the plain infinitary
proof."""

from __future__ import annotations

import gc
import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_pipeline_passes,
    forget_windows,
    plain_marks_off,
    splicing_off,
)
from mucut import kernel, proofs
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
from mucut.corpus import CORPUS, axmu, nested, random_formulas, top_induction_cut
from mucut.cutelim import eliminate, weaken
from mucut.embed import embed, identity_mu, identity_mu_primed
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import TOP, atom, level, natom, negate, prime, substitute
from mucut.proofs import (
    ADMIT_DEPTH,
    Axiom,
    And,
    Box,
    Clo,
    Cut,
    Nu,
    Observation,
    Omega,
    OmegaBar,
    Or,
    Proof,
    and_node,
    axmu_node,
    box_fit,
    canonical_probe,
    clo_node,
    cut_node,
    ind_node,
    mark_plain,
    observation_errors,
    observation_rules,
    observation_sequents,
    observe,
    omega_phi,
    omegabar_node,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, seq
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
    p = identity_mu_primed(m)  # starts with a replacement rule
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
    emb = embed(e2)
    c = collapse(emb, 0)
    with pytest.raises(InternalInvariantError):
        c.rule


def test_sinf_judge_rejects_foreign_rules():
    m = pf("mu X . (p1 | X)")
    report = check_bounded(identity_mu_primed(m), SYSTEM_SINF, 1)
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
    elim = eliminate(embed(e4))
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
    assert embedded.plain
    assert all(stages[name] is embedded for name in ("eliminated", "collapsed", "sinf"))
    o = observe(embedded, 8)
    assert observation_errors(o) == []
    # the window of the sinf stage is an S-infinity window, the bound included
    assert check_observation(o, SYSTEM_SINF, 8).ok
    assert all(isinstance(t, PLAIN) for t in observation_rules(o))
    # unmarked, the embedding goes through elimination and collapsing
    with plain_marks_off():
        long_embedded = embed(p)
        long_collapsed = collapse(eliminate(long_embedded), 0)
        assert long_collapsed is not long_embedded
        for long in (long_embedded, long_collapsed):
            assert observation_dumps(o) == observation_dumps(observe(long, 8))


# ---------------------------------------------------------------------------
# plain proofs pass through


def _outcome(p, depth=8):
    """The four stage texts of p at the depth, the trace steps and the
    verdict (each stage's name, system, failure and violations)."""
    steps = []
    stages = pipeline(p, trace=lambda *step: steps.append(step))
    texts = [observation_dumps(observe(stages[s], depth)) for s in STAGES]
    v = verdict(p, stages, depth)
    judged = [(s.name, s.system, s.failure, s.report.violations) for s in v.stages]
    return stages, (texts, steps, (v.k, v.error, judged, v.cut_free, v.nubar_free, v.passed))


def _same_unmarked(p):
    """p's outcome, which must not change when no proof is marked plain;
    returns the stages of the marked run."""
    stages, marked = _outcome(p)
    with plain_marks_off():
        unmarked_stages, unmarked = _outcome(p)
    assert not any(q.plain for q in unmarked_stages.values())
    assert marked == unmarked
    assert marked[2][-1], "the verdict fails"
    return stages


_TOP_MUS = [
    f for f in random_formulas(23, 200, max_size=12) if f[0] == "mu" and 1 <= level(f) <= 3
][:12]


_PASSED = dict(CORPUS)
_PASSED.update({"nested(%d)" % n: partial(nested, n) for n in range(2, 6)})
_PASSED.update({"ind-cut(%s)" % print_form(m): partial(top_induction_cut, m) for m in _TOP_MUS})


@pytest.mark.parametrize("name", _PASSED)
def test_the_plain_mark_changes_no_stage_text_step_or_verdict(name):
    stages = _same_unmarked(_PASSED[name]())
    passes = name == "axmu"
    assert stages["embedded"].plain is passes
    assert (stages["eliminated"] is stages["embedded"]) is passes


@settings(deadline=None, max_examples=25)
@given(_plain_proofs())
def test_the_plain_mark_changes_nothing_on_plain_proofs(p):
    stages = _same_unmarked(p)
    assert stages["embedded"].plain


def test_the_top_induction_cuts_cover_every_level():
    assert {level(m) for m in _TOP_MUS} == {1, 2, 3}


# ---------------------------------------------------------------------------
# a subwindow that windows meet more than once is spliced into them: a
# (proof, depth) pair that a walk meets again, or the window of a marked
# proof with no marked proof above it, flagged when it is made


def _spliced_below(o):
    """The spliced windows below the window o, preorder, each without the
    windows inside it."""
    found, todo = [], list(reversed(o.children))
    while todo:
        w = todo.pop()
        if w.spliced:
            found.append(w)
        else:
            todo.extend(reversed(w.children))
    return found


def _read_off(p, depth=8):
    """p's _outcome, with the four stage windows at the depth, their facts
    and every stage's whole report (violations with their paths, and
    counts)."""
    stages, outcome = _outcome(p, depth)
    windows = [observe(stages[s], depth) for s in STAGES]
    facts = [
        (observation_rules(o), observation_sequents(o), observation_errors(o))
        for o in windows
    ]
    reports = [stage.report for stage in verdict(p, stages, depth).stages]
    return windows, (outcome, facts, reports)


def _same_unspliced(p):
    """The stage windows of p, whose texts, facts, reports, trace steps
    and verdict must not change when no window is spliced."""
    windows, spliced = _read_off(p)
    with splicing_off():
        whole_windows, whole = _read_off(p)
    assert not any(map(_spliced_below, whole_windows))
    assert windows == whole_windows
    assert spliced == whole
    assert spliced[0][2][-1], "the verdict fails"
    return windows


@pytest.mark.parametrize("name", _PASSED)
def test_splicing_changes_no_stage_text_fact_report_or_verdict(name):
    windows = _same_unspliced(_PASSED[name]())
    # the embedded and eliminated stages of the nested proofs and every
    # stage of ind-top reach marked proofs below their roots at depth 8,
    # and every stage of axmu meets its law's one derivation of the closed
    # part ~p1 again at each approximant step
    shares = any(map(_spliced_below, windows))
    assert shares is (name in ("ind-top", "axmu") or name.startswith("nested"))


def _below_root(o):
    """Every node the tree of the window o holds below its root, as often
    as it holds it, inside spliced windows too."""
    found, todo = [], list(o.children)
    while todo:
        w = todo.pop()
        found.append(w)
        todo.extend(w.children)
    return found


@settings(deadline=None, max_examples=25)
@given(_plain_proofs())
def test_splicing_changes_nothing_on_plain_proofs(p):
    # every stage is the marked embedding, walked once; an and step takes
    # one premise twice, so its window splices what it meets again, and a
    # subwindow met only once is never spliced
    windows = _same_unspliced(p)
    assert all(o is windows[0] for o in windows)
    nodes = _below_root(windows[0])
    met = Counter(map(id, nodes))
    assert all(met[id(w)] >= 2 for w in nodes if w.spliced)


# A level-3 mu formula: a greatest fixed point and a least one nested in
# a least one.
_LEVEL_3 = pf("mu X . (p1 | <> nu X . ([] X & mu X . (<> X | p2)))")


def _walked(p, depth):
    """The walk of p's window at the depth: the (proof, settings left
    there) pairs it reaches, one per _observe call, and the number of
    window nodes (Observations) it makes."""
    reached, made, walk = [], [], proofs._observe

    class Counted(Observation):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    def counting(q, depth, samples, probe_budget, splice):
        reached.append((id(q), depth, samples, probe_budget))
        return walk(q, depth, samples, probe_budget, splice)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proofs, "_observe", counting)
        mp.setattr(proofs, "Observation", Counted)
        observe(p, depth)
    return set(reached), len(made)


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize(
    "build", [partial(axmu, _LEVEL_3), partial(nested, 3)], ids=["axmu", "nested(3)"]
)
def test_a_window_observes_each_pair_it_reaches_once(build, stage):
    # the whole window makes a node each time it reaches a (proof,
    # remaining depth) pair, and the shared one makes one node per
    # distinct pair; the identity laws of the level-3 formula are met
    # more than once at one depth, nested(3) repeats no pair.  A pair
    # whose window an earlier walk made is not made again: the walks of
    # the other stages make a node only for the pairs no walk reached
    # before.  The probe witnesses, whose windows the family domain
    # predicate asks for, are made afresh for each pipeline.
    assert level(_LEVEL_3) == 3
    proofs._probe.cache_clear()
    with splicing_off():
        whole, made_whole = _walked(pipeline(build())[stage], 12)
    proofs._probe.cache_clear()
    stages = pipeline(build())
    shared, made = _walked(stages[stage], 12)
    assert made == len(shared) == len(whole)
    assert (made_whole > made) is (build.func is axmu)
    for other in STAGES:
        reached, made = _walked(stages[other], 12)
        assert made == len(reached - shared)
        shared |= reached


def test_a_spliced_report_is_rerooted_where_the_walk_meets_it():
    # an and node over a marked or node whose premise cannot be forced,
    # and over an unmarked or node whose marked premise cannot be forced:
    # each marked proof's window is spliced with its violation, which its
    # own report flags below "root" and the whole report at its path, in
    # the order of a walk that meets them
    p1 = pf("(p1 | ~p1)")
    body, x = seq(pf("p1"), pf("~p1"), pf("p2")), pf("p2")

    def failing(text):
        def thunk():
            raise ValueError(text)
        return Proof.defer(body, thunk)

    left = mark_plain(or_node(seq(p1, x), p1, failing("left")))
    right = or_node(seq(p1, x), p1, mark_plain(failing("right")))
    both = pf("((p1 | ~p1) & (p1 | ~p1))")
    root = and_node(seq(both, x), both, left, right)
    want = (
        ("root.0.0", "node evaluation failed: left"),
        ("root.1.0", "node evaluation failed: right"),
    )
    o = observe(root, 4)
    report = check_bounded(root, SYSTEM_SINF, 4)
    assert report.violations == want
    assert report.nodes_checked == 3 and report.truncation_points == 0
    inner = _spliced_below(o)
    assert [w.error for w in inner] == [None, "right"]
    assert check_observation(inner[0], SYSTEM_SINF, 3).violations == (
        ("root.0", "node evaluation failed: left"),
    )
    text = observation_dumps(o)
    with splicing_off():
        for q in (root, left, right):
            q._kept = None
        whole = observe(root, 4)
        assert not _spliced_below(whole)
        assert check_bounded(root, SYSTEM_SINF, 4) == report
        assert observation_dumps(whole) == text


def _marked():
    m = pf("mu X . (p1 | <> X)")
    law = identity_mu(m)
    return [law, top_intro((m,)), weaken(law, (atom(2),)), pipeline(CORPUS["axmu"]())["embedded"]]


@pytest.mark.parametrize("h", [0, 1, 2])
def test_a_marked_proof_is_its_own_elimination_and_collapse(h):
    for q in _marked():
        assert q.plain
        assert eliminate(q) is q
        assert collapse(q, h) is q


def test_top_induction_cut_over_trivial_mu():
    # {top} by a cut on mu X . X: the mu side by clo over a truth
    # introduction, the negated side by induction with invariant top.
    # The unfolding of mu X . X under the invariant is the invariant
    # itself, top, which is its own prime, so the closure step of context
    # substitution adds as its image the very formula it then cuts away.
    assert_pipeline_passes(top_induction_cut(pf("mu X . X")))


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nested_passes_at_its_level(n):
    # the cuts on C_n and F replace rules at levels n and 1; the verdict
    # runs at the benchmark's `induction` settings
    p = nested(n)
    assert check_finite(p).ok
    assert level_bound(p) == n
    v = verdict(p, pipeline(p), 14, (0, 1, 2, 3))
    assert v.passed, (v.error, [stage.failure for stage in v.stages])


def _kernel_calls(samples):
    """[substitute, validate]: the calls of each, recursive ones included,
    that pipeline and verdict make on the corpus axmu proof at depth 6
    over samples, with the kernel memos emptied first."""
    for fn in vars(kernel).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    slots = {kernel.substitute.__code__: 0, kernel.validate.__code__: 1}
    calls = [0, 0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code in slots:
            calls[slots[frame.f_code]] += 1

    p = CORPUS["axmu"]()
    sys.setprofile(count)
    try:
        v = verdict(p, pipeline(p), 6, samples)
    finally:
        sys.setprofile(None)
    assert v.passed
    return calls


def test_far_samples_cost_linear_kernel_work():
    # each approximant is built once, one substitute step from the one
    # before it: doubling the far sample index at most doubles the kernel
    # work (rebuilding every approximant from top would quadruple it)
    calls = {k: _kernel_calls((0, k)) for k in (100, 200, 400)}
    assert min(calls[100]) > 0, calls
    for k in (100, 200):
        for near, far in zip(calls[k], calls[2 * k]):
            assert far <= 2.2 * near, (k, calls)


@pytest.mark.parametrize(
    "build", list(CORPUS.values()) + [partial(nested, n) for n in range(2, 6)],
    ids=list(CORPUS) + ["nested(%d)" % n for n in range(2, 6)],
)
def test_a_verdict_that_passes_at_a_depth_passes_below_it(build):
    # the judge is local.  Depths go down on one pipeline, so each verdict
    # reads windows of stages that deeper ones forced, and it must agree
    # with the verdict on a fresh pipeline
    p = build()
    stages = pipeline(p)
    passed = {d: verdict(p, stages, d).passed for d in range(8, 0, -1)}
    for d in range(1, 8):
        assert passed[d] or not passed[d + 1], d
        assert verdict(p, pipeline(p), d).passed == passed[d], d


def test_collapse_stops_at_its_plug_budget(monkeypatch):
    # the family answers its own omegabar node, so plugging never reaches
    # an ordinary rule, and collapse stops after MAX_PLUGS plugs
    t = prime(pf("mu X . (p1 | X)"))
    c, calls = seq(TOP, atom(3)), []

    def again(delta, witness):
        calls.append(delta)
        return bar

    bar = omegabar_node(c, t, top_intro((atom(3), t)), again)
    # the package's own collapse, the function, hides the module
    monkeypatch.setattr(sys.modules["mucut.collapse"], "MAX_PLUGS", 3)
    with pytest.raises(FuelExhausted, match="^collapse plug budget exhausted$"):
        collapse(bar, 0).rule
    assert calls == [c]  # the family's memo answers the repeated plugs


def test_collapse_refuses_a_conclusion_not_positive_enough_before_the_plug():
    # the family's domain is the one check of a plug's argument: a
    # conclusion holding a nub of the target's level is refused before
    # the family runs and before the witness, its first premise collapsed,
    # is forced
    t = prime(pf("mu X . (p1 | X)"))
    c, ran = seq(TOP, omega_phi(t)), []

    def first():
        ran.append("first")
        return top_intro((omega_phi(t), t))

    def fam(delta, witness):
        ran.append("family")
        return top_intro(delta.difference((TOP,)))

    bar = omegabar_node(c, t, Proof.defer(c.add(t), first), fam)
    assert bar.rule == OmegaBar(1, t)
    with pytest.raises(InternalInvariantError, match="family argument rejected"):
        collapse(bar, 0).rule
    assert ran == []


def test_nested_needs_two_levels():
    with pytest.raises(ValueError, match="nested needs n >= 2"):
        nested(1)


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


def _foreign_at_the_bound():
    # the axmu pipeline with an or node over the axmu axiom as its sinf
    # stage: at depth 1 the axmu node, a rule S-infinity leaves out, sits
    # at the bound
    p = CORPUS["axmu"]()
    stages = pipeline(p)
    a, b = p.conclusion
    stages["sinf"] = or_node(Sequent((("or", a, b),)), ("or", a, b), CORPUS["axmu"]())
    return p, stages


def test_verdict_fails_only_the_sinf_stage_on_a_foreign_rule_at_the_bound():
    # the judge reads the rule of the axmu node at the bound and fails the
    # sinf stage in the words and path it uses one level deeper
    p, stages = _foreign_at_the_bound()
    for depth in (1, 2):
        v = verdict(p, stages, depth)
        assert v.error is None
        assert [stage.failure for stage in v.stages] == [
            None, None, None, "root.0: rule axmu is not part of system sinf",
        ]
        assert [stage.report.ok for stage in v.stages] == [True, True, True, False]
        assert (v.cut_free, v.nubar_free, v.passed) == (True, True, False)


def _piped(build):
    p = build()
    return p, pipeline(p)


_VERDICT_RUNS = {
    name: partial(_piped, build)
    for name, build in _PASSED.items() if not name.startswith("ind-cut")
} | {"foreign-at-the-bound": _foreign_at_the_bound}


@pytest.mark.parametrize("name", _VERDICT_RUNS)
def test_a_stage_fails_with_its_reports_first_violation(name):
    # verdict reads the judge's reports and adds no check of its own: a
    # stage fails exactly when its report does, with its first violation
    p, stages = _VERDICT_RUNS[name]()
    for depth in range(4):
        for stage in verdict(p, stages, depth).stages:
            report = stage.report
            want = None if report.ok else "%s: %s" % report.violations[0]
            assert stage.failure == want, (depth, stage.name)


def test_check_bounded_flags_a_foreign_rule_at_the_bound():
    # the call the benchmark's worker makes on its sinf stage
    _, stages = _foreign_at_the_bound()
    report = check_bounded(stages["sinf"], SYSTEM_SINF, 1)
    assert report.violations == (("root.0", "rule axmu is not part of system sinf"),)
    assert (report.nodes_checked, report.truncation_points) == (1, 1)


def _met(p, o, depth):
    """Each (proof, window, remaining depth, marked above) the walk that
    made p's window o to the depth met, preorder, with whether a marked
    proof lies above it in the walk."""
    found, todo = [], [(p, o, depth, False)]
    while todo:
        q, w, d, above = todo.pop()
        found.append((q, w, d, above))
        if not w.children:
            continue
        tag, prem = q._force()
        shown = prem
        if isinstance(tag, Nu):
            shown = [prem(i) for i in w.sampled]
        elif isinstance(tag, (Omega, OmegaBar)):
            bar = isinstance(tag, OmegaBar)
            shown = [prem.first] if bar else []
            fam = prem.fam if bar else prem
            shown += [fam(*canonical_probe(tag.target)) for _ in w.probes]
        todo.extend((r, v, d - 1, above or q.plain) for r, v in zip(shown, w.children))
    return found


# The corpus, and the level-3 identity law, which meets (proof, depth)
# pairs again inside its marked window.
_KEEPERS = dict(CORPUS, **{"axmu-level-3": partial(axmu, _LEVEL_3)})


@pytest.mark.parametrize("name", sorted(_KEEPERS))
def test_only_the_stage_roots_keep_a_window(name):
    # only the stage roots keep a window of the stage settings.  Every
    # proof a stage walk reaches keeps one window, the last one made for
    # it: one the walks met it with, under the settings left there, or a
    # witness window that the family domain predicate made under its own
    # settings; a proof met at two depths keeps one of them.  A marked
    # proof with no marked proof above it is spliced from birth, before
    # any other walk meets it.  No witness window is spliced into a
    # stage, though the family's memo keeps the witness alive.
    forget_windows()
    p = _KEEPERS[name]()
    stages = pipeline(p)
    first = _met(stages["embedded"], observe(stages["embedded"], 6), 6)
    assert all(w.spliced for q, w, _, above in first if q.plain and not above)
    v = verdict(p, stages, 6)
    stage_key, admit_key = (6, (0, 1, 2), 1), (ADMIT_DEPTH, (0,), 0)
    keepers = [q for q in gc.get_objects() if isinstance(q, Proof) and q._window]
    roots = {id(stages[stage.name]): id(stage.window) for stage in v.stages}
    assert {id(q): id(q._window[1]) for q in keepers if q._window[0] == stage_key} == roots
    witnesses = [q._window[1] for q in keepers if q._window[0] == admit_key]
    admitted = {id(w) for o in witnesses for w in [o, *_below_root(o)]}
    met = [m for stage in v.stages for m in _met(stages[stage.name], stage.window, 6)]
    stood = {(id(q), (depth, (0, 1, 2), 1), id(w)) for q, w, depth, _ in met}
    depths = {}
    for q, w, depth, above in met:
        key, kept = q._window
        assert (id(q), key, id(kept)) in stood or id(kept) in admitted
        assert w.spliced or above or not q.plain
        depths.setdefault(q, set()).add(depth)
    assert any(len(d) > 1 for d in depths.values()) is (name == "ind-top")
    held = {id(w) for stage in v.stages for w in _below_root(stage.window)}
    assert bool(witnesses) is any(w.probes for _, w, _, _ in met)
    assert held.isdisjoint(map(id, witnesses))
    # the windows of the outermost marked proofs, below the stage roots in
    # two cases, and the pairs met again inside them in the two identity
    # laws, whose closed monotonicity derivations stand at every step
    marked = [(q, w) for q, w, _, above in met if q.plain and not above]
    assert any(id(q) not in roots for q, _ in marked) is (name in ("ind-top", "nested"))
    assert any(_spliced_below(w) for _, w in marked) is (name in ("axmu", "axmu-level-3"))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verdict_walks_each_window_once(monkeypatch, name):
    # every reader of a window's facts reads them off one walk: the error
    # scan of each stage, the judge's reuse rule, the cut and L0 tests of
    # the final window; the walked windows are held, so no id is reused
    walk, walked = proofs._facts, []

    def counting_walk(o):
        walked.append(o)
        return walk(o)

    monkeypatch.setattr(proofs, "_facts", counting_walk)
    p = CORPUS[name]()
    v = verdict(p, pipeline(p), 6)
    assert v.passed
    ids = [id(o) for o in walked]
    assert len(ids) == len(set(ids))
    assert {id(stage.window) for stage in v.stages} <= set(ids)
    if name == "axmu":  # its four stages share one window
        assert len({id(stage.window) for stage in v.stages}) == len(walked) == 1
