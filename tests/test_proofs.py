"""Proof values: builders, laziness, families, and observation."""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import given

from conftest import CLOSED_MUS, forget_windows, kept_windows
from mucut.checker import check_bounded, omega_system
from mucut.collapse import pipeline, verdict
from mucut.corpus import CORPUS, deep_cut_chain, nested
from mucut.embed import embed
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import TOP, atom, iterate, natom, negate, prime, substitute
from mucut.proofs import (
    ADMIT_DEPTH,
    FIRST,
    Axiom,
    Box,
    Clo,
    Cut,
    DeltaFam,
    Ind,
    Nu,
    Omega,
    OmegaBar,
    OmegaBarPrem,
    Or,
    Proof,
    ax,
    axmu_node,
    and_node,
    box_fit,
    box_node,
    canonical_probe,
    clo_node,
    cut_node,
    ind_node,
    is_cut_free_observed,
    make_node,
    map_premises,
    nu_node,
    observation_errors,
    observation_rules,
    observation_sequents,
    observe,
    omega_node,
    omega_phi,
    omegabar_node,
    or_node,
    premise_added,
    premise_label,
    top_intro,
)
from mucut.sequents import Sequent, seq
from mucut.sexpr import observation_dumps, proof_dumps, proof_loads
from mucut.syntax import parse_formula as pf
from mucut.syntax import print_form


def test_top_intro_shape():
    p = top_intro(())
    assert p.conclusion == seq(TOP)
    assert isinstance(p.rule, Or)
    leaf = p.premises[0]
    assert leaf.conclusion == seq(atom(0), natom(0))
    assert isinstance(leaf.rule, Axiom)
    q = top_intro((atom(5),))
    assert q.conclusion == seq(TOP, atom(5))


@pytest.mark.parametrize(
    "bad, text",
    [
        (("atom", -1), "bad atom node: ('atom', -1)"),
        (("or", atom(2), ("var",)), "sequent formula has a free variable: (p2 | X)"),
        (("or", ("var", "x"), atom(2)), "bad var node: ('var', 'x')"),
        ((), "formula must be a nonempty tuple: ()"),
        (("imp", atom(1), atom(2)), "unknown formula tag: 'imp'"),
    ],
    ids=["bad-atom", "open", "bad-var", "empty", "unknown-tag"],
)
def test_top_intro_checks_raw_formulas_as_a_sequent_does(bad, text):
    with pytest.raises(ValueError) as exc:
        top_intro((atom(3), bad))
    assert str(exc.value) == text


def test_omega_phi():
    m = pf("mu X . (p1 | X)")
    assert omega_phi(prime(m)) == prime(negate(m))


def test_ax_normalizes_negative_atoms():
    p = ax(seq(atom(1), natom(1)), natom(1))
    assert p.rule == Axiom(atom(1))


def test_axiom_builders_print_the_conclusion_only_on_failure(monkeypatch):
    m = pf("mu X . (p1 | X)")
    printed = []
    text = Sequent.__repr__

    def counting(s):
        printed.append(s)
        return text(s)

    monkeypatch.setattr(Sequent, "__repr__", counting)
    ax(seq(atom(1), natom(1), TOP), atom(1))
    axmu_node(seq(m, negate(m), TOP), m)
    assert printed == []
    bad = seq(atom(1), TOP)
    with pytest.raises(InternalInvariantError) as got:
        ax(bad, atom(1))
    assert str(got.value) == "axiom pair p1, ~p1 not in conclusion"
    with pytest.raises(InternalInvariantError) as got:
        axmu_node(seq(m), m)
    assert str(got.value) == "axmu pair %s, %s not in conclusion" % (
        print_form(m),
        print_form(negate(m)),
    )
    # the judge's texts name the pair, not the whole conclusion
    assert printed == []


def test_builders_reject_bad_nodes():
    with pytest.raises(InternalInvariantError):
        ax(seq(atom(1)), atom(1))  # missing the negated twin
    with pytest.raises(InternalInvariantError):
        ax(seq(TOP, negate(TOP)), TOP)  # not atomic
    with pytest.raises(InternalInvariantError):
        axmu_node(seq(TOP, negate(TOP)), TOP)  # not mu-rooted
    with pytest.raises(InternalInvariantError):
        or_node(seq(atom(1)), atom(1), top_intro(()))  # not a disjunction
    with pytest.raises(InternalInvariantError):
        or_node(seq(atom(1)), TOP, top_intro(()))  # principal absent
    with pytest.raises(InternalInvariantError):
        clo_node(seq(TOP), TOP, top_intro(()))  # principal not mu-rooted
    m = pf("mu X . (p1 | X)")
    with pytest.raises(InternalInvariantError):
        # induction admits no context beyond ~mu, b
        ind_node(seq(negate(m), TOP, atom(2)), m, TOP, top_intro(()))
    with pytest.raises(InternalInvariantError):
        box_node(
            seq(("box", atom(1)), atom(2)),
            ("box", atom(1)),
            seq(atom(9)),  # side not inside the conclusion
            ax(seq(atom(1), natom(1)), atom(1)),
        )


def test_make_node_arity_and_containers():
    p = top_intro(())
    with pytest.raises(ValueError):
        make_node(seq(TOP), Or(TOP), (p, p))  # one premise expected
    with pytest.raises(ValueError):
        make_node(seq(TOP), Cut(TOP), (p,))  # two premises expected
    with pytest.raises(ValueError):
        make_node(seq(TOP), Or(TOP), ("nope",))
    n = pf("nu X . X")
    with pytest.raises(ValueError):
        make_node(seq(n), Nu(n), (p,))  # needs an omega-indexed family
    t = prime(pf("mu X . (p1 | X)"))
    with pytest.raises(ValueError):
        make_node(seq(omega_phi(t)), Omega(1, t), (p,))
    with pytest.raises(ValueError):
        make_node(seq(TOP), object(), ())


def test_proof_conclusion_must_be_sequent():
    with pytest.raises(InternalInvariantError):
        Proof.make((TOP,), Axiom(atom(0)), ())


def test_defer_is_lazy_and_checked():
    forced = []

    def thunk():
        forced.append(1)
        return top_intro(())

    p = Proof.defer(seq(TOP), thunk)
    assert not forced  # building does not force
    assert isinstance(p.rule, Or)
    assert forced == [1]
    p.premises
    assert forced == [1]  # memoized

    lying = Proof.defer(seq(atom(3)), top_intro)
    with pytest.raises(TypeError):
        lying.rule  # top_intro needs its argument; failure surfaces on force

    wrong = Proof.defer(seq(atom(3), negate(atom(3))), lambda: top_intro(()))
    with pytest.raises(InternalInvariantError):
        wrong.rule  # deferred conclusion must match the inner proof


def test_observe_finite_and_truncation():
    p = top_intro(())
    o = observe(p, 2)
    assert o.conclusion == seq(TOP)
    assert isinstance(o.rule, Or)
    assert len(o.children) == 1
    assert not o.truncated
    o0 = observe(p, 0)
    assert o0.truncated
    assert o0.children == ()
    assert observation_rules(o) == [p.rule, p.premises[0].rule]
    assert observation_sequents(o) == [seq(TOP), seq(atom(0), natom(0))]
    assert observation_errors(o) == []


def test_observe_error_leaves():
    # a node that cannot be forced keeps its declared conclusion
    lying = Proof.defer(seq(atom(3)), lambda: top_intro(()))
    o = observe(lying, 2)
    assert o.error is not None and o.rule is None
    assert o.conclusion == seq(atom(3))
    # an unknown rule tag is a failed node too, not an exception
    odd = observe(Proof.make(seq(TOP), object(), ()), 2)
    assert odd.error.startswith("unknown rule tag: <object object")
    assert odd.conclusion == seq(TOP)
    # a premise that cannot be produced has no conclusion at all
    n = pf("nu X . X")
    p = nu_node(seq(n), n, lambda i: 1 // i and top_intro((n,)))
    o = observe(p, 2, samples=(0, 1))
    assert o.children[0].conclusion is None
    assert o.children[0].error == "integer division or modulo by zero"
    assert o.children[1].error is None


def test_observe_lets_running_out_of_stack_propagate():
    def deep():
        raise RecursionError("maximum recursion depth exceeded")

    with pytest.raises(RecursionError):
        observe(Proof.defer(seq(TOP), deep), 2)


def test_nu_node_sampling():
    n = pf("nu X . X")
    # nu X . X unfolds to approximant top at every index
    calls = []

    def fn(i):
        calls.append(i)
        return top_intro((n,))

    p = nu_node(seq(n), n, fn)
    o = observe(p, 2, samples=(0, 2))
    assert o.truncated
    assert o.sampled == (0, 2)
    assert len(o.children) == 2
    assert calls == [0, 2]
    # the family is memoized: sampling again does not recompute
    observe(p, 2, samples=(0, 2))
    assert calls == [0, 2]


def _unused(delta, witness):
    raise AssertionError("the family ran on an argument")


def test_canonical_probe_and_the_family_domain():
    t = prime(pf("mu X . (p1 | X)"))
    delta, witness = canonical_probe(t)
    assert delta == seq(TOP)
    assert witness.conclusion == seq(TOP, t)
    fam = DeltaFam(t, _unused)
    admits = fam.admits
    assert admits(delta, witness)
    # wrong conclusion
    assert not admits(delta, top_intro(()))
    # delta must be h-positive: a level-1 nub formula is not 1-positive
    bad = Sequent((t,))
    assert not admits(bad, top_intro((t, t)))
    # witness must look cut-free
    c = cut_node(
        seq(TOP, t),
        TOP,
        top_intro((t, prime(TOP))),
        Proof.defer(seq(TOP, t, prime(negate(TOP))), lambda: 1 / 0 and None),
    )
    assert not admits(delta, c)
    with pytest.raises(InternalInvariantError, match="rejected"):
        fam("delta", witness)


@given(CLOSED_MUS)
def test_the_canonical_probe_lies_in_the_domain_of_every_family(m):
    # so observing a family never meets a refusal
    t = prime(m)
    assert DeltaFam(t, _unused).admits(*canonical_probe(t))


def test_canonical_probe_is_shared_per_target():
    t = prime(pf("mu X . (p1 | X)"))
    assert canonical_probe(t) is canonical_probe(t)
    # a key equal to a valid target but not itself valid is refused, as
    # building its witness would refuse it, not given the cached probe
    bad = ("mu", ("or", ("atom", True), ("var",)))
    assert bad == t
    with pytest.raises(ValueError, match="bad atom node"):
        canonical_probe(bad)
    canonical_probe(atom(1))
    with pytest.raises(ValueError, match="bad atom node"):
        canonical_probe(("atom", True))


def _count_admits(monkeypatch):
    """The deltas every family's domain check is asked about from now on."""
    asked, admits = [], DeltaFam.admits

    def counted(fam, delta, witness):
        asked.append(delta)
        return admits(fam, delta, witness)

    monkeypatch.setattr(DeltaFam, "admits", counted)
    return asked


def test_observing_a_family_twice_computes_its_output_once(monkeypatch):
    t = prime(pf("mu X . (p1 | X)"))
    phi = omega_phi(t)
    admitted, calls = _count_admits(monkeypatch), []

    def fn(delta, w):
        calls.append(delta)
        return top_intro(delta.union((phi,)).difference((TOP,)))

    p = omega_node(seq(phi), t, fn)
    assert observe(p, 3) == observe(p, 3)
    assert (len(admitted), len(calls)) == (1, 1)


def test_omega_node_observation_and_errors():
    t = prime(pf("mu X . (p1 | X)"))
    phi = omega_phi(t)

    def fn(delta, w):
        return top_intro(delta.union((phi,)).difference((TOP,)))

    p = omega_node(seq(phi), t, fn)
    o = observe(p, 3)
    assert o.truncated
    assert o.probes == (seq(TOP),)
    assert len(o.children) == 1
    assert observation_errors(o) == []
    # a family that raises becomes an error leaf...
    boom = omega_node(
        seq(phi), t,
        lambda d, w: (_ for _ in ()).throw(ValueError("boom")),
    )
    ob = observe(boom, 3)
    assert observation_errors(ob) == ["boom"]
    # ...except fuel exhaustion, which propagates
    tired = omega_node(
        seq(phi), t,
        lambda d, w: (_ for _ in ()).throw(FuelExhausted("empty")),
    )
    with pytest.raises(FuelExhausted):
        observe(tired, 3)
    # probe budget zero skips the family entirely
    oz = observe(boom, 3, probe_budget=0)
    assert oz.children == ()
    assert oz.probes == ()


def test_delta_fam_gate_and_memo():
    t = prime(pf("mu X . (p1 | X)"))
    calls = []
    fam = DeltaFam(t, lambda d, w: calls.append(1) or top_intro(()))
    delta, witness = canonical_probe(t)
    fam(delta, witness)
    fam(delta, witness)
    assert len(calls) == 1
    with pytest.raises(InternalInvariantError):
        fam(Sequent((t,)), witness)  # rejected argument


def test_a_family_refuses_a_witness_that_is_no_proof_before_its_memo(monkeypatch):
    # a list cannot be hashed, so the memo would raise TypeError on it
    t = prime(pf("mu X . (p1 | X)"))
    asked = _count_admits(monkeypatch)
    delta, witness = canonical_probe(t)
    fam = DeltaFam(t, _unused)
    for bad in ([witness], witness.conclusion, None):
        with pytest.raises(InternalInvariantError, match="rejected"):
            fam(delta, bad)
    assert asked == [] and fam._memo == {}


def test_make_node_refuses_a_family_on_another_target():
    t = prime(pf("mu X . (p1 | X)"))
    t2 = prime(pf("mu X . (p2 | X)"))
    c, leaf = seq(omega_phi(t)), top_intro((t,))
    with pytest.raises(ValueError, match="omega rule needs a DeltaFam on its target"):
        make_node(c, Omega(1, t), DeltaFam(t2, _unused))
    bar = OmegaBar(1, t)
    with pytest.raises(ValueError, match="omegabar rule needs a DeltaFam on its target"):
        make_node(seq(TOP), bar, OmegaBarPrem(leaf, DeltaFam(t2, _unused)))
    with pytest.raises(ValueError, match="omegabar rule needs a DeltaFam on its target"):
        make_node(seq(TOP), bar, OmegaBarPrem(leaf, _unused))
    assert make_node(c, Omega(1, t), DeltaFam(t, _unused)).rule == Omega(1, t)


def test_a_frozenset_equals_its_sequent_but_is_refused_where_a_sequent_is_required():
    t = prime(pf("mu X . (p1 | X)"))
    delta, witness = canonical_probe(t)
    plain = frozenset(delta)
    assert type(plain) is frozenset
    assert plain == delta and delta == plain and hash(plain) == hash(delta)
    # as a proof conclusion
    pair = frozenset((atom(1), natom(1)))
    for build in (
        lambda: Proof.make(pair, Axiom(atom(1)), ()),
        lambda: Proof.defer(pair, lambda: ax(seq(*pair), atom(1))),
        lambda: ax(pair, atom(1)),
    ):
        with pytest.raises(InternalInvariantError, match="must be a Sequent"):
            build()
    # as a family delta, also once the equal Sequent is in the family's memo
    fam = DeltaFam(t, lambda d, w: top_intro(()))
    assert fam.admits(delta, witness)
    fam(delta, witness)
    with pytest.raises(InternalInvariantError, match="rejected"):
        fam(plain, witness)


def test_omegabar_first_premise():
    t = prime(pf("mu X . (p1 | X)"))
    first = top_intro((t,))
    p = omegabar_node(
        seq(TOP), t, first, lambda d, w: top_intro(d.difference((TOP,)))
    )
    o = observe(p, 2)
    # first premise comes before the probe child
    assert o.children[0].conclusion == seq(TOP, t)
    assert len(o.children) == 2
    assert isinstance(p.premises, OmegaBarPrem)
    with pytest.raises(InternalInvariantError):
        omegabar_node(seq(TOP), t, top_intro(()), lambda d, w: top_intro(()))


def test_is_cut_free_observed():
    assert is_cut_free_observed(top_intro(()), 4)
    c = cut_node(seq(TOP), TOP, top_intro((negate(TOP),)),
                 top_intro((negate(TOP),)))
    # the cut premises here are nonsense, but the scan only looks for tags
    assert not is_cut_free_observed(c, 4)


def test_and_node_builder():
    a = ("and", atom(1), atom(2))
    p = and_node(
        seq(a, natom(1), natom(2)),
        a,
        ax(seq(atom(1), natom(1), natom(2)), atom(1)),
        ax(seq(atom(2), natom(1), natom(2)), atom(2)),
    )
    assert len(p.premises) == 2
    o = observe(p, 2)
    assert [type(r).__name__ for r in observation_rules(o)] == [
        "And", "Axiom", "Axiom"
    ]


# ---------------------------------------------------------------------------
# premise traversal


def _recorder():
    """A map_premises callback that records (premise, position) and hands
    the premise back unchanged."""
    calls = []

    def fn(q, position):
        calls.append((q, position))
        return q

    return fn, calls


_NEW_C = seq(atom(3), natom(3))


def _mapped_finite(d, positions):
    fn, calls = _recorder()
    out = map_premises(d, _NEW_C, fn)
    assert out.rule == d.rule
    assert out.conclusion == _NEW_C
    assert calls == [(q, j) for j, q in zip(positions, d.premises)]
    assert out.premises == d.premises
    return out


def test_map_premises_axiom():
    d = ax(seq(atom(1), natom(1)), atom(1))
    _mapped_finite(d, ())


def test_map_premises_or_and_clo_give_their_added_formulas():
    d = top_intro(())
    _mapped_finite(d, (0,))
    assert premise_added(d.rule, 0) == (TOP[1], TOP[2])
    assert premise_label(d.rule, 0) == "0"

    a = ("and", atom(1), atom(2))
    d = and_node(
        seq(a, natom(1), natom(2)),
        a,
        ax(seq(atom(1), natom(1), natom(2)), atom(1)),
        ax(seq(atom(2), natom(1), natom(2)), atom(2)),
    )
    _mapped_finite(d, (0, 1))
    assert premise_added(d.rule, 0) == (atom(1),)
    assert premise_added(d.rule, 1) == (atom(2),)
    assert premise_label(d.rule, 1) == "1"

    m = pf("mu X . (p1 | X)")
    d = clo_node(seq(m), m, top_intro(()))
    assert isinstance(d.rule, Clo)
    _mapped_finite(d, (0,))
    assert premise_added(d.rule, 0) == (substitute(m[1], m),)


def test_map_premises_box_ind_cut_keep_their_tags():
    principal = ("box", TOP)
    d = box_node(seq(principal, atom(1)), principal, seq(atom(1)), top_intro(()))
    out = _mapped_finite(d, (0,))
    assert isinstance(out.rule, Box) and out.rule.side == seq(atom(1))

    m = pf("mu X . X")
    d = ind_node(seq(negate(m), TOP), m, TOP, top_intro((negate(TOP),)))
    assert isinstance(d.rule, Ind)
    _mapped_finite(d, (0,))

    d = cut_node(
        seq(TOP), TOP, top_intro((negate(TOP),)), top_intro((negate(TOP),))
    )
    _mapped_finite(d, (0, 1))
    for tag in (Box(principal, seq()), Ind(m, TOP), Cut(TOP)):
        with pytest.raises(InternalInvariantError):
            premise_added(tag, 0)


def test_map_premises_nu_is_lazy():
    n = pf("nu X . (~p1 & X)")
    d = nu_node(seq(n), n, lambda i: top_intro((n,)))
    fn, calls = _recorder()
    out = map_premises(d, _NEW_C, fn)
    assert out.rule == d.rule and out.conclusion == _NEW_C
    assert calls == []
    assert out.premises(2) is d.premises(2)
    assert calls == [(d.premises(2), 2)]
    out.premises(2)
    assert len(calls) == 1  # memoized
    assert premise_added(d.rule, 2) == (iterate(n[1], TOP, 2),)
    assert premise_label(d.rule, 2) == "w2"


def test_map_premises_omega_is_lazy_and_keeps_the_domain():
    t = prime(pf("mu X . (p1 | X)"))
    phi = omega_phi(t)
    d = omega_node(
        seq(phi), t, lambda dl, w: top_intro(dl.union((phi,)).difference((TOP,)))
    )
    fn, calls = _recorder()
    out = map_premises(d, _NEW_C, fn)
    assert out.rule == d.rule and out.conclusion == _NEW_C
    assert calls == []
    delta, witness = canonical_probe(t)
    out.premises(delta, witness)
    assert calls == [(d.premises(delta, witness), delta)]
    with pytest.raises(InternalInvariantError):
        out.premises(Sequent((t,)), witness)
    assert premise_added(d.rule, delta) is delta
    assert premise_label(d.rule, delta) == "f"


def test_map_premises_omegabar_maps_first_now_and_family_on_demand():
    t = prime(pf("mu X . (p1 | X)"))
    first = top_intro((t,))
    d = omegabar_node(
        seq(TOP), t, first, lambda dl, w: top_intro(dl.difference((TOP,)))
    )
    fn, calls = _recorder()
    out = map_premises(d, _NEW_C, fn)
    assert isinstance(out.rule, OmegaBar) and out.rule == d.rule
    assert out.conclusion == _NEW_C
    assert calls == [(first, FIRST)]
    assert out.premises.first is first
    delta, witness = canonical_probe(t)
    out.premises.fam(delta, witness)
    assert calls[1:] == [(d.premises.fam(delta, witness), delta)]
    assert premise_added(d.rule, FIRST) == (t,)
    assert premise_added(d.rule, delta) is delta
    assert premise_label(d.rule, FIRST) == "first"
    assert premise_label(d.rule, delta) == "f"


def test_map_premises_rewrites_the_principal():
    a = ("or", atom(1), natom(1))
    d = or_node(seq(a), a, ax(seq(atom(1), natom(1)), atom(1)))
    b = ("or", atom(2), natom(2))
    fn, calls = _recorder()
    out = map_premises(d, seq(b, atom(5)), fn, Or(b))
    assert isinstance(out.rule, Or) and out.rule.principal == b
    assert out.conclusion == seq(b, atom(5))
    assert calls == [(d.premises[0], 0)]
    assert out.premises == d.premises

    n = pf("nu X . (~p1 & X)")
    n2 = pf("nu X . (~p2 & X)")
    d = nu_node(seq(n), n, lambda i: top_intro((n,)))
    out = map_premises(d, seq(n2), fn, Nu(n2))
    assert out.rule == Nu(n2)
    assert out.premises(1) is d.premises(1)

    with pytest.raises(InternalInvariantError):
        map_premises(d, seq(n), fn, Nu(n2))  # principal not in the conclusion
    with pytest.raises(InternalInvariantError):
        map_premises(d, seq(b), fn, Or(b))  # another rule kind


def test_box_fit_side_is_what_the_packet_leaves():
    principal = ("box", TOP)
    prem = top_intro((atom(1),))  # body top, so the packet is <>p1, []top
    c = seq(principal, ("dia", atom(1)), atom(2))
    out = box_fit(c, principal, prem)
    assert out.rule == Box(principal, seq(atom(2)))
    assert out.conclusion == c and out.premises == (prem,)
    assert box_fit(seq(principal, ("dia", atom(1))), principal, prem).rule.side == seq()
    with pytest.raises(InternalInvariantError):
        box_fit(seq(principal, atom(2)), principal, prem)  # <>p1 escapes


def test_mapped_family_checks_its_domain_once(monkeypatch):
    t = prime(pf("mu X . (p1 | X)"))
    phi = omega_phi(t)
    d = omega_node(
        seq(phi), t, lambda dl, w: top_intro(dl.union((phi,)).difference((TOP,)))
    )
    runs = _count_admits(monkeypatch)

    def keep(q, _):
        return q

    twice = map_premises(map_premises(d, seq(phi), keep), seq(phi), keep)
    delta, witness = canonical_probe(t)
    out = twice.premises(delta, witness)
    assert out is d.premises.admitted(delta, witness)
    assert runs == [delta]
    twice.premises(delta, witness)  # memoized
    assert runs == [delta]
    with pytest.raises(InternalInvariantError):
        twice.premises(Sequent((t,)), witness)


@pytest.mark.parametrize("depth", [0, 1, 3, 100])
def test_observe_forces_each_observed_node_once(monkeypatch, depth):
    # a proof of eager nodes: every force is a call that observe makes
    p = proof_loads(proof_dumps(CORPUS["nested"]()))
    forced = []
    force = Proof._force

    def counting(self):
        forced.append(self)
        return force(self)

    monkeypatch.setattr(Proof, "_force", counting)
    o = observe(p, depth)
    assert len(forced) == len(observation_rules(o)) == len(set(map(id, forced)))


def test_writing_a_window_stores_nothing_on_its_tags():
    # the stages of a cut at two levels, and of a fixed-point axiom whose
    # identity law has box rules with sides
    m = pf("mu X . ([] X | <> p1)")
    inputs = (CORPUS["nested"](), axmu_node(seq(m, negate(m)), m))
    windows = [observe(p, 6) for d in inputs for p in pipeline(d).values()]
    tags = [r for o in windows for r in observation_rules(o) if r is not None]
    assert any(isinstance(r, Box) for r in tags)
    before = [dict(vars(r)) for r in tags]
    for o in windows:
        observation_dumps(o)
    assert [vars(r) for r in tags] == before


# ---------------------------------------------------------------------------
# the window kept on an observed proof

# settings of observe, each changing one of depth, samples and probe budget
_SETTINGS = (
    (4, (0, 1, 2), 1),
    (3, (0, 1, 2), 1),
    (3, (0, 2), 1),
    (3, (0, 2), 0),
    (4, [0, 1, 2], 1),
)


@pytest.mark.parametrize("stage", ["embedded", "eliminated"])
def test_observe_keeps_the_last_window_on_the_proof(stage):
    # the embedded stage of the nested example shows omega and nu nodes
    # within depth 3, its eliminated stage omegabar and nu nodes
    p = pipeline(CORPUS["nested"]())[stage]
    last = None
    for depth, samples, budget in _SETTINGS:
        o = observe(p, depth, samples, budget)
        assert observe(p, depth, samples, budget) is o
        assert o is not last and o != last
        cold = pipeline(CORPUS["nested"]())[stage]
        assert o == observe(cold, depth, samples, budget)
        last = o
    assert observe(p, 4, (0, 1, 2), 1) is o


def test_samples_that_sample_the_same_premises_share_one_window():
    # the samples are one sorted tuple without repeats: their order and
    # repeats give the same window, which keeps its reports and text
    p = pipeline(CORPUS["axmu"]())["embedded"]
    o = observe(p, 4, (1, 0))
    text = observation_dumps(o)
    for samples in ((0, 1), (1, 0), [0, 1, 1, 0], (1, 1, 0)):
        assert observe(p, 4, samples) is o
    assert observation_dumps(o) is text
    assert "(samples 0 1)" in text
    assert observe(p, 4, (0, 2)) is not o


def test_observe_keeps_no_window_below_the_root():
    # no proof below the root keeps a window of the root's settings: each
    # proof the walk reaches keeps one window, the last one made for it,
    # which stands where the walk meets it
    p = CORPUS["nested"]()
    o = observe(p, 20)
    assert kept_windows(p) == [o]
    stands, todo = {}, [(p, o)]
    while todo:
        q, w = todo.pop()
        stands.setdefault(q, set()).add(id(w))
        todo.extend(zip(q.premises, w.children))
    assert len(stands) == 11
    for q, ids in stands.items():
        [w] = kept_windows(q)
        assert id(w) in ids
        assert (q is p) is (q._window[0] == (20, (0, 1, 2), 1))


def _tree(o):
    """Every window the tree of the window o holds, o included."""
    found, todo = [], [o]
    while todo:
        w = todo.pop()
        found.append(w)
        todo.extend(w.children)
    return found


def test_a_depth_sweep_leaves_each_proof_one_window():
    # the windows kept live as long as their proofs, one each: after
    # observing the embedded stage of nested(3) at depths 1 to 20, each
    # kept window stands in the tree of the depth-20 window or of a
    # witness window that the family domain predicate asked for under its
    # own settings
    e = pipeline(nested(3))["embedded"]
    forget_windows()
    for depth in range(1, 21):
        o = observe(e, depth)
    alive = [q for q in gc.get_objects() if isinstance(q, Proof)]
    kept = [kept_windows(q) for q in alive]
    assert max(map(len, kept)) == 1
    admitted = (ADMIT_DEPTH, (0,), 0)
    witnesses = [q._window[1] for q in alive if q._window and q._window[0] == admitted]
    assert witnesses
    # 270 distinct windows: monotonicity's derivation of an operator part
    # without the variable is one proof at every approximant step, and an
    # identity law built in its context shares the links of its chain
    tree = {id(w) for w in _tree(o)}
    assert len(tree) == 270
    held = tree.union(id(w) for t in witnesses for w in _tree(t))
    assert all(id(w) in held for ws in kept for w in ws)


def test_an_observe_that_runs_out_keeps_nothing():
    t = prime(pf("mu X . (p1 | X)"))
    phi = omega_phi(t)
    calls = []

    def out_of_fuel(delta, w):
        calls.append(delta)
        raise FuelExhausted("empty")

    tired = omega_node(seq(phi), t, out_of_fuel)
    for n in (1, 2):
        with pytest.raises(FuelExhausted):
            observe(tired, 3)
        assert kept_windows(tired) == []
        assert len(calls) == n
    # a window that does not feed the family is kept, and a request that
    # runs out leaves it in place
    o = observe(tired, 3, probe_budget=0)
    with pytest.raises(FuelExhausted):
        observe(tired, 3)
    assert len(calls) == 3
    assert observe(tired, 3, probe_budget=0) is o


@pytest.mark.parametrize("budget", [2, 3, 5, -1])
def test_a_probe_budget_other_than_0_or_1_is_refused(budget):
    # each family has one probe: a budget of 2 or more would run as 1, so
    # it is refused before anything is observed, through every caller
    p = CORPUS["nested"]()
    with pytest.raises(ValueError, match="0 or 1"):
        observe(p, 3, (0, 1, 2), budget)
    assert kept_windows(p) == []
    with pytest.raises(ValueError, match="0 or 1"):
        check_bounded(p, omega_system(1), 3, probe_budget=budget)
    with pytest.raises(ValueError, match="0 or 1"):
        verdict(p, pipeline(p), 3, probe_budget=budget)
    assert observe(p, 3, (0, 1, 2), 1) is not observe(p, 3, (0, 1, 2), 0)


# settings that are no counts, each with the word its error names: a bool
# equals an int and 2.0 equals 2, so either would share a window key with
# the int; a negative sample has no premise, and a depth of 2.5 never
# reaches the bound
_NO_COUNTS = (
    (2.5, (0, 1, 2), 1, "depth"),
    (-1, (0, 1, 2), 1, "depth"),
    (True, (0, 1, 2), 1, "depth"),
    (3, (True,), 1, "sample"),
    (3, (0, -1), 1, "sample"),
    (3, (0, 2.0), 1, "sample"),
    (3, ("1", 0), 1, "sample"),
    (3, (0, 1, 2), True, "probe budget"),
    (3, (0, 1, 2), False, "probe budget"),
    (3, (0, 1, 2), 1.0, "probe budget"),
)


@pytest.mark.parametrize("depth, samples, budget, what", _NO_COUNTS)
def test_observe_refuses_settings_that_are_no_counts(depth, samples, budget, what):
    e = pipeline(CORPUS["axmu"]())["embedded"]
    with pytest.raises(ValueError, match="^(observe )?%s " % what):
        observe(e, depth, samples, budget)
    assert kept_windows(e) == []
    with pytest.raises(ValueError, match=what):
        check_bounded(e, omega_system(1), depth, samples, budget)
    with pytest.raises(ValueError, match=what):
        is_cut_free_observed(e, depth, samples, budget)


def test_a_bool_sample_never_gets_the_int_samples_window():
    # (True,) and (1,) are equal keys, so a window sampled at (True,)
    # would answer for (1,), and a bool sample cannot be written
    e = pipeline(CORPUS["axmu"]())["embedded"]
    with pytest.raises(ValueError, match="sample True"):
        observe(e, 3, (True,))
    o = observe(e, 3, (1,))
    assert all(type(i) is int for i in o.sampled)
    assert "(samples 1)" in observation_dumps(o)


def test_a_deep_window_costs_one_frame_per_level():
    # the walk, the judge and the writer of a window reach three quarters
    # of the recursion limit in depth: observe's walk takes one frame per
    # window level, and the judge and the writer keep explicit stacks
    depth = sys.getrecursionlimit() * 3 // 4
    e = embed(deep_cut_chain(1000))
    o = observe(e, depth)
    assert check_bounded(e, omega_system(0), depth).ok
    assert observation_dumps(o).count("(cut ") == depth + 1  # the last one truncated
