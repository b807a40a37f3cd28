"""The proof checker: rule legality per system, premise shapes, bounded
checking, and the approximant-closure report."""

from __future__ import annotations

import pytest

from conftest import REFUSED_SYSTEMS, fresh_window, kept_windows, level_walks, run_cli
from mucut import checker, proofs
from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    approximant_closure,
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
    outside_l0,
    parse_system,
    subformula_report,
)
from mucut.collapse import pipeline
from mucut.corpus import CORPUS, cut_chain, cut_tree, deep_cut_chain
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import (
    TOP,
    atom,
    iterate,
    max_nubar_level,
    natom,
    negate,
    prime,
    substitute,
)
from mucut.proofs import (
    ALL_TAGS,
    And,
    Axiom,
    AxiomMu,
    Box,
    Clo,
    Cut,
    DeltaFam,
    Ind,
    Nu,
    Observation,
    Omega,
    OmegaBar,
    OmegaBarPrem,
    OmegaFam,
    Or,
    Proof,
    and_node,
    ax,
    axmu_node,
    box_fit,
    box_node,
    clo_node,
    cut_node,
    ind_node,
    make_node,
    nu_node,
    observe,
    omega_node,
    omega_phi,
    omegabar_node,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, from_checked, seq
from mucut.sexpr import proof_dumps, proof_loads
from mucut.syntax import parse_formula as pf
from mutation_harness import draw_mutants, proof_nodes, rebuild


def test_system_parsing():
    assert parse_system("s") == SYSTEM_S
    assert parse_system("sinf") == SYSTEM_SINF
    assert parse_system("omega:2") == omega_system(2)
    assert parse_system("omega:10") == omega_system(10)
    for system in (SYSTEM_S, SYSTEM_SINF, *map(omega_system, range(12))):
        assert parse_system(system.name) == system
    for text in REFUSED_SYSTEMS:
        with pytest.raises(ValueError, match="unknown system"):
            parse_system(text)
    # a negative index is refused in omega_system's words
    with pytest.raises(ValueError, match="system index must be at least 0"):
        parse_system("omega:-1")
    with pytest.raises(ValueError):
        omega_system(-1)
    assert SYSTEM_S.name == "s"
    assert omega_system(3).name == "omega:3"


def test_systems_built_alike_are_one_value():
    a, b = omega_system(2), omega_system(2)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    o = observe(CORPUS["nested"](), 3)
    assert check_observation(o, a, 3) is check_observation(o, b, 3)
    # one report for both, beside the first system judged at depth 3
    assert set(o.kept) == {3, (a, 3)}
    # the reuse rule reads the window's facts, which the window keeps too
    check_observation(o, omega_system(1), 3)
    assert set(o.kept) == {3, (a, 3), (omega_system(1), 3), "facts"}


def test_omega_systems_admit_replacement_rules_from_index_1():
    assert not {Omega, OmegaBar} & omega_system(0).admitted
    assert {Omega, OmegaBar} <= omega_system(1).admitted


def test_corpus_examples_are_valid_s_proofs():
    for name, build in CORPUS.items():
        report = check_finite(build(), SYSTEM_S)
        assert report.ok, (name, report.violations)
        assert report.nodes_checked > 0
        assert report.truncation_points == 0


def test_level_bound_oracles():
    assert level_bound(CORPUS["ind-top"]()) == 1
    assert level_bound(CORPUS["top-cut"]()) == 0
    assert level_bound(CORPUS["axmu"]()) == 1
    assert level_bound(CORPUS["nested"]()) == 2


def _level_bound_by_definition(p):
    below = [_level_bound_by_definition(q) for q in p.premises]
    return max([p.conclusion.level()] + below)


def test_level_bound_is_the_recursive_definition():
    for name, build in CORPUS.items():
        p = build()
        assert level_bound(p) == _level_bound_by_definition(p), name


def test_level_bound_on_a_deep_chain():
    # one level-2 formula at the bottom of a 10,000-node chain
    deep = pf("nu X . (X | nu X . ((~p3 | p3) & X))")
    p = Proof.make(seq(deep), Axiom(atom(0)), ())
    for _ in range(10_000):
        p = Proof.make(seq(TOP), Cut(atom(0)), (p,))
    assert level_bound(p) == 2


class _Counted(Proof):
    """A node that counts how often its premises are read."""

    __slots__ = ("reads",)

    def __init__(self, conclusion, tag, premises):
        super().__init__(conclusion, (tag, premises), None)
        self.reads = 0

    @property
    def premises(self):
        self.reads += 1
        return super().premises


def test_level_bound_visits_a_shared_premise_once():
    # 40 levels whose two premises are one object: 2**40 paths, 41 nodes
    nodes = [_Counted(seq(pf("mu X . (p1 | X)")), Axiom(atom(0)), ())]
    for _ in range(40):
        nodes.append(_Counted(seq(TOP), Cut(atom(0)), (nodes[-1], nodes[-1])))
    assert level_bound(nodes[-1]) == 1
    assert [q.reads for q in nodes] == [1] * 41


_SHAPES = {
    **CORPUS,
    "cut-chain": lambda: cut_chain((atom(1), natom(2), atom(3))),
    "mirrored-comb": lambda: cut_chain(
        (natom(1), atom(2)), mirror=True, teeth=(atom(3), natom(4))
    ),
    "cut-tree": lambda: cut_tree((atom(1), natom(2), atom(3))),
    "deep-cut-chain": lambda: deep_cut_chain(30),
}


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_check_finite_keeps_the_level_bound_a_fresh_walk_finds(monkeypatch, name):
    p = _SHAPES[name]()
    walks = level_walks(monkeypatch)
    assert check_finite(p).ok
    k = level_bound(p)
    assert walks == []
    assert k == level_bound(proof_loads(proof_dumps(p)))
    assert len(walks) == 1


def test_a_cut_free_proof_checked_in_s_infinity_keeps_its_level_bound(monkeypatch):
    p = top_intro((pf("nu X . (X | nu X . ((~p3 | p3) & X))"),))
    walks = level_walks(monkeypatch)
    assert check_finite(p, SYSTEM_SINF).ok
    assert level_bound(p) == 2 and walks == []


def _nub_member():
    t = prime(pf("nu X . (p1 & X)"))
    return Proof.make(Sequent((t, atom(0), natom(0))), Axiom(atom(0)), ())


@pytest.mark.parametrize(
    "build, system",
    [
        (_nub_member, SYSTEM_S),  # fails in S
        (CORPUS["top-cut"], SYSTEM_SINF),  # a rule outside S-infinity
        (CORPUS["top-cut"], omega_system(0)),  # passes, in no base-language system
        (CORPUS["nested"], None),  # never checked
    ],
    ids=["nub-member", "cut-in-sinf", "omega", "unchecked"],
)
def test_a_proof_that_keeps_no_level_bound_is_walked_once(monkeypatch, build, system):
    p = build()
    if system is not None:
        check_finite(p, system)
    assert "level" not in p.kept()
    walks = level_walks(monkeypatch)
    k = level_bound(p)
    assert walks == [p]
    assert level_bound(p) == k == _level_bound_by_definition(p)
    assert walks == [p]


def test_a_proof_with_a_rule_outside_s_keeps_no_level_bound():
    n = pf("nu X . X")
    p = nu_node(seq(n), n, lambda i: top_intro((n,)))
    assert not check_finite(p, SYSTEM_S).ok
    assert "level" not in p.kept()


def test_box_rule_exact_side():
    p1, q1, r1 = atom(1), atom(2), atom(3)
    prem = ax(seq(p1, negate(p1), q1), p1)
    conc = Sequent(
        (("dia", p1), ("dia", negate(p1)), ("dia", q1), ("box", q1), r1)
    )
    good = box_node(conc, ("box", q1), seq(r1), prem)
    assert check_finite(good).ok
    # conclusion must be exactly the diamond image plus box plus side
    bad = Proof.make(
        Sequent((("dia", p1), ("box", q1), r1)),
        Box(("box", q1), seq(r1)),
        (prem,),
    )
    rep = check_finite(bad)
    assert not rep.ok
    assert "diamond image" in rep.violations[0][1]
    # premise must contain the box body
    noprem = Proof.make(conc, Box(("box", q1), seq(r1)), (top_intro(()),))
    rep2 = check_finite(noprem)
    assert any("lacks the body" in v[1] for v in rep2.violations)


def test_ind_admits_no_context():
    m = pf("mu X . (p1 | X)")
    b = TOP
    unfold = pf("(p1 | top)")
    prem_c = Sequent((negate(unfold), b))
    prem = Proof.defer(prem_c, lambda: top_intro((negate(unfold),)))
    good = ind_node(seq(negate(m), b), m, b, prem)
    # structurally fine at the node level (its premise subtree is junk,
    # which bounded checking at depth 1 never inspects)
    assert check_bounded(good, SYSTEM_S, 1).ok
    padded = Proof.make(
        seq(negate(m), b, atom(5)), Ind(m, b), (prem,)
    )
    rep = check_bounded(padded, SYSTEM_S, 1)
    assert not rep.ok
    assert "ind admits no context" in rep.violations[0][1]


def test_ind_premise_shape_is_exact():
    m = pf("mu X . (p1 | X)")
    wrong = Proof.make(
        seq(negate(m), TOP), Ind(m, TOP), (top_intro(()),)
    )
    rep = check_finite(wrong)
    assert not rep.ok
    assert any("premise 0 concludes" in v[1] for v in rep.violations)


@pytest.mark.parametrize(
    "bad, in_s, in_sinf",
    [
        (("atom", -1), "bad atom node: ('atom', -1)", None),
        (
            ("or", atom(2), ("var",)),
            "sequent formula has a free variable: (p2 | X)",
            "sequent formula has a free variable: (~p2 & X)",
        ),
        (("or", ("var", "x"), atom(2)), "bad var node: ('var', 'x')", None),
        ((), "formula must be a nonempty tuple: ()", "tuple index out of range"),
        (("imp", atom(1), atom(2)), "unknown formula tag: 'imp'", None),
    ],
    ids=["bad-atom", "open", "bad-var", "empty", "unknown-tag"],
)
def test_an_ind_node_with_a_malformed_invariant_is_flagged_where_it_enters(
    bad, in_s, in_sinf
):
    # S checks the invariant with the rule's conditions; S-infinity, which
    # leaves ind out, builds the premise's sequent from it
    m = pf("mu X . X")
    p = Proof.make(seq(negate(m), TOP), Ind(m, bad), (top_intro(()),))
    assert check_finite(p, SYSTEM_S).violations == (
        ("root", "malformed rule tag: " + in_s),
    )
    assert check_finite(p, SYSTEM_SINF).violations == (
        ("root", "rule ind is not part of system sinf"),
        ("root", "premise shapes undefined: " + (in_sinf or in_s)),
    )


def test_an_ind_invariant_equal_to_a_member_is_still_checked():
    # ('atom', True) equals the member p1, ('atom', 1), but is no formula:
    # the rule's conditions refuse it before the conclusion is compared
    m = pf("mu X . X")
    alias = ("atom", True)
    assert alias == atom(1)
    p = Proof.make(seq(negate(m), atom(1)), Ind(m, alias), (top_intro(()),))
    assert check_finite(p, SYSTEM_S).violations == (
        ("root", "malformed rule tag: bad atom node: ('atom', True)"),
    )


def test_cut_premises_unprimed_in_s_primed_in_omega():
    f = pf("mu X . (p1 | X)")
    g = seq(atom(2))
    left = Proof.defer(g.add(f), lambda: top_intro(()))
    right = Proof.defer(g.add(negate(f)), lambda: top_intro(()))
    p = cut_node(g, f, left, right)
    assert check_bounded(p, SYSTEM_S, 1).ok
    # the same premises fail in an omega system, which wants primed sides
    rep = check_bounded(p, omega_system(1), 1)
    assert not rep.ok
    assert any("cut premises conclude" in v[1] for v in rep.violations)
    pl = Proof.defer(g.add(prime(f)), lambda: top_intro(()))
    prr = Proof.defer(g.add(prime(negate(f))), lambda: top_intro(()))
    q = cut_node(g, f, pl, prr)
    assert check_bounded(q, omega_system(1), 1).ok
    # premise order is immaterial
    q2 = cut_node(g, f, prr, pl)
    assert check_bounded(q2, omega_system(1), 1).ok


def test_cut_level_bounded_by_system_index():
    f = pf("mu X . (p1 | X)")  # level 1
    g = seq(atom(2))
    p = cut_node(
        g,
        f,
        Proof.defer(g.add(prime(f)), lambda: top_intro(())),
        Proof.defer(g.add(prime(negate(f))), lambda: top_intro(())),
    )
    rep = check_bounded(p, omega_system(0), 1)
    assert not rep.ok
    assert any("above the system bound" in v[1] for v in rep.violations)


def test_system_gating():
    e1 = CORPUS["ind-top"]()
    rep = check_finite(e1, SYSTEM_SINF)
    assert not rep.ok
    assert any(
        "rule ind is not part of system sinf" in v[1] for v in rep.violations
    )
    e2 = CORPUS["top-cut"]()
    rep2 = check_finite(e2, SYSTEM_SINF)
    assert any(
        "rule cut is not part of system sinf" in v[1] for v in rep2.violations
    )
    # a level-0 cut with trivially primed sides is fine in omega:0
    assert check_finite(e2, omega_system(0)).ok
    rep3 = check_finite(e1, omega_system(1))
    assert any(
        "rule ind is not part of system omega:1" in v[1]
        for v in rep3.violations
    )


def test_infinitary_rules_rejected_in_finite_proofs():
    n = pf("nu X . X")
    p = nu_node(seq(n), n, lambda i: top_intro((n,)))
    rep = check_finite(p, SYSTEM_SINF)
    assert not rep.ok
    assert "infinitely many premises" in rep.violations[0][1]


def test_infinitary_rules_are_rejected_without_entering_them():
    # forcing the first premise of this omegabar node, or calling its
    # family, would raise
    t = prime(pf("mu X . (p1 | X)"))
    c = seq(TOP, atom(3), natom(1))

    def out_of_fuel(*args):
        raise FuelExhausted("out of fuel")

    first = Proof.defer(c.add(t), out_of_fuel)
    bar = omegabar_node(c, t, first, out_of_fuel)
    rejected = (
        "rule omegabar has infinitely many premises and cannot occur in a "
        "finite proof"
    )
    assert check_finite(bar, SYSTEM_S).violations == (("root", rejected),)
    p = cut_node(c.without(natom(1)), atom(1), top_intro((atom(3), atom(1))), bar)
    rep = check_finite(p, SYSTEM_S)
    assert rep.violations == (("root.1", rejected),)
    assert rep.nodes_checked == 4


def test_primed_conclusions_only_in_omega_systems():
    t = prime(pf("nu X . (p1 & X)"))
    p = Proof.make(Sequent((t, atom(0), natom(0))), Axiom(atom(0)), ())
    rep = check_finite(p, SYSTEM_S)
    assert not rep.ok
    assert any("primed language" in v[1] for v in rep.violations)
    assert check_bounded(p, omega_system(1), 1).ok


def test_check_bounded_depth_zero_is_vacuous():
    rep = check_bounded(top_intro(()), SYSTEM_S, 0)
    assert rep.ok
    assert rep.nodes_checked == 0
    assert rep.truncation_points == 1


def _agreement_cases():
    """(system, conclusion, tag, premises, build, judged_only): a node that
    violates a condition of its rule, made with make_node, and the call
    of the rule's builder that would make it.  judged_only marks the
    violations of a system's level bound, which builders do not know.  A
    build of None marks a replacement rule whose level is not its
    target's: builders take no level, so only make_node makes one."""
    p1, leaf = atom(1), top_intro(())
    m = pf("mu X . (p1 | X)")  # level 1, its own prime
    m2 = pf("mu X . (X | nu X . (p1 & X))")  # level 2, not fully primed
    t2 = prime(m2)
    n = pf("nu X . (p1 & X)")
    box_p1 = ("box", p1)

    def fam(d, w):
        return leaf

    def on(target, first=None):
        # a family on target, under its first premise when one is given
        f = DeltaFam(target, fam)
        return f if first is None else OmegaBarPrem(first, f)

    def case(system, c, tag, premises, build, judged_only=False):
        return (system, c, tag, premises, build, judged_only)

    s, sinf, w1, w2 = SYSTEM_S, SYSTEM_SINF, omega_system(1), omega_system(2)
    c_top, c_p1, c_one = seq(TOP, negate(TOP)), seq(p1), seq(TOP)
    return [
        case(s, c_top, Axiom(TOP), (), lambda c: ax(c, TOP)),
        case(s, seq(p1, TOP), Axiom(p1), (), lambda c: ax(c, p1)),
        case(s, c_top, AxiomMu(TOP), (), lambda c: axmu_node(c, TOP)),
        case(s, seq(m), AxiomMu(m), (), lambda c: axmu_node(c, m)),
        case(s, c_p1, Or(p1), (leaf,), lambda c: or_node(c, p1, leaf)),
        case(s, c_p1, Or(TOP), (leaf,), lambda c: or_node(c, TOP, leaf)),
        case(s, c_p1, And(p1), (leaf, leaf), lambda c: and_node(c, p1, leaf, leaf)),
        case(
            s, c_p1, And(negate(TOP)), (leaf, leaf),
            lambda c: and_node(c, negate(TOP), leaf, leaf),
        ),
        case(s, c_p1, Box(p1, seq()), (leaf,), lambda c: box_node(c, p1, seq(), leaf)),
        case(
            s, c_p1, Box(box_p1, seq()), (leaf,),
            lambda c: box_node(c, box_p1, seq(), leaf),
        ),
        case(
            s, seq(box_p1), Box(box_p1, seq(atom(9))), (leaf,),
            lambda c: box_node(c, box_p1, seq(atom(9)), leaf),
        ),
        case(s, c_one, Clo(TOP), (leaf,), lambda c: clo_node(c, TOP, leaf)),
        case(s, c_one, Clo(m), (leaf,), lambda c: clo_node(c, m, leaf)),
        case(s, c_top, Ind(TOP, TOP), (leaf,), lambda c: ind_node(c, TOP, TOP, leaf)),
        case(
            s, seq(negate(m), TOP, atom(2)), Ind(m, TOP), (leaf,),
            lambda c: ind_node(c, m, TOP, leaf),
        ),
        case(
            s, c_one, Cut(prime(n)), (leaf, leaf),
            lambda c: cut_node(c, prime(n), leaf, leaf),
        ),
        case(
            w1, c_one, Cut(m2), (leaf, leaf),
            lambda c: cut_node(c, m2, leaf, leaf), judged_only=True,
        ),
        case(
            sinf, c_p1, Nu(p1), OmegaFam(lambda i: leaf),
            lambda c: nu_node(c, p1, lambda i: leaf),
        ),
        case(
            sinf, c_p1, Nu(n), OmegaFam(lambda i: leaf),
            lambda c: nu_node(c, n, lambda i: leaf),
        ),
        case(w2, c_one, Omega(1, TOP), on(TOP), lambda c: omega_node(c, TOP, fam)),
        case(w2, c_one, Omega(2, m2), on(m2), lambda c: omega_node(c, m2, fam)),
        case(w2, seq(omega_phi(m)), Omega(2, m), on(m), None),
        case(
            w1, seq(omega_phi(t2)), Omega(2, t2), on(t2),
            lambda c: omega_node(c, t2, fam), judged_only=True,
        ),
        case(w2, c_one, Omega(1, m), on(m), lambda c: omega_node(c, m, fam)),
        case(
            w2, c_one, OmegaBar(1, TOP), on(TOP, leaf),
            lambda c: omegabar_node(c, TOP, leaf, fam),
        ),
        case(
            w2, c_one, OmegaBar(1, m2), on(m2, leaf),
            lambda c: omegabar_node(c, m2, leaf, fam),
        ),
        case(w2, c_one, OmegaBar(2, m), on(m, leaf), None),
        case(
            w1, c_one, OmegaBar(2, t2), on(t2, top_intro((t2,))),
            lambda c: omegabar_node(c, t2, top_intro((t2,)), fam),
            judged_only=True,
        ),
    ]


def test_builders_refuse_with_the_judges_first_violation():
    # one case per text a rule's conditions can give, for every rule
    cases = _agreement_cases()
    texts = set()
    for system, c, tag, premises, build, judged_only in cases:
        rep = check_bounded(make_node(c, tag, premises), system, 1)
        assert rep.violations[0] == ("root", tag.flaws(c, system.k)[0])
        texts.add((type(tag), rep.violations[0][1]))
        if build is None:
            assert rep.violations[0][1].endswith(", rule says %d" % tag.h)
            continue
        if judged_only:
            # builders know no system index, so they bound no level
            assert tag.flaws(c) == ()
            assert build(c).conclusion == c
            continue
        with pytest.raises(InternalInvariantError) as got:
            build(c)
        assert str(got.value) == rep.violations[0][1]
    assert len(texts) == len(cases)
    assert {rule for rule, _ in texts} == set(ALL_TAGS)


def test_axiom_checks():
    p = Proof.make(seq(atom(1)), Axiom(atom(1)), ())
    rep = check_finite(p)
    assert not rep.ok
    assert "axiom pair" in rep.violations[0][1]
    q = Proof.make(seq(TOP, negate(TOP)), Axiom(TOP), ())
    rep2 = check_finite(q)
    assert "not atomic" in rep2.violations[0][1]


def test_or_premise_shapes_strict_and_kept():
    # strict reading: the principal is consumed
    f = TOP
    strict = or_node(seq(f), f, ax(seq(atom(0), natom(0)), atom(0)))
    assert check_finite(strict).ok
    # kept reading: the principal stays in the premise
    kept = or_node(
        seq(f), f, or_node(seq(f, atom(0), natom(0)), f,
                           ax(seq(f, atom(0), natom(0)), atom(0)))
    )
    assert check_finite(kept).ok
    # anything else is flagged
    wrong = Proof.make(seq(f), type(strict.rule)(f), (top_intro((atom(3),)),))
    rep = check_finite(wrong)
    assert not rep.ok


def test_node_evaluation_failure_is_a_violation():
    p = Proof.defer(seq(TOP), lambda: (_ for _ in ()).throw(ValueError("no")))
    rep = check_finite(p)
    assert not rep.ok
    assert "node evaluation failed" in rep.violations[0][1]


def test_check_observation_judges_the_window_it_is_given():
    o = observe(top_intro(()), 3)
    assert check_observation(o, SYSTEM_S, 3) == check_bounded(top_intro(()), SYSTEM_S, 3)
    # the judge reads the window, not the proof: a doctored leaf is flagged
    leaf = o.children[0]
    bad = Observation(o.conclusion, o.rule, (
        Observation(leaf.conclusion.add(atom(4)), leaf.rule),
    ))
    rep = check_observation(bad, SYSTEM_S, 3)
    assert not rep.ok
    assert rep.violations[0][1].startswith("premise 0 concludes {p0, p4, ~p0}")
    assert rep.nodes_checked == 2


def test_violations_follow_the_walk_premise_by_premise():
    # a node's premises are all checked, first to last, before any of
    # their subtrees, and a nu sample that could not be produced is
    # flagged with the checks of the samples around it, before their
    # subtrees
    n = pf("nu X . (p1 & X)")
    p5, p6, p7 = atom(5), atom(6), atom(7)
    f = ("and", p5, p6)

    def leaf(forms, a):
        return Observation(Sequent(forms), Axiom(a))

    nu = Observation(
        seq(p5, n),
        Nu(n),
        (
            leaf((p5, iterate(n[1], TOP, 0)), atom(9)),
            Observation(None, None, error="boom"),
            leaf((p5, iterate(n[1], TOP, 2)), atom(8)),
        ),
        truncated=True,
        sampled=(0, 1, 2),
    )
    o = Observation(seq(f, n), And(f), (nu, leaf((p6, p7, n), p7)))
    rep = check_observation(o, omega_system(1), 4)
    assert rep.violations == (
        (
            "root",
            "premise 1 concludes {p6, p7, nu X . (p1 & X)}, expected one of"
            " {p6, nu X . (p1 & X)} / {p6, (p5 & p6), nu X . (p1 & X)}",
        ),
        ("root.0.w1", "premise evaluation failed: boom"),
        ("root.0.w0", "axiom pair p9, ~p9 not in conclusion"),
        ("root.0.w2", "axiom pair p8, ~p8 not in conclusion"),
        ("root.1", "axiom pair p7, ~p7 not in conclusion"),
    )
    assert (rep.nodes_checked, rep.truncation_points) == (5, 1)


def _height(p):
    """The number of nodes on the longest branch of the finite proof p."""
    return 1 + max(map(_height, p.premises), default=0)


def _double_mutants(seed, draws):
    """Proofs with two mutated nodes under different premises of one node:
    each pair of single-node mutants of one corpus proof whose paths part,
    the first mutant with the second's node grafted in."""
    mutants = list(draw_mutants(seed, draws))
    for name, path, _, _, p in mutants:
        for other, at, _, _, q in mutants:
            if other == name and path[: len(at)] != at and at[: len(path)] != path:
                yield rebuild(p, at, dict(proof_nodes(q))[at])


def test_a_finite_proof_reports_as_a_window_that_holds_it_whole():
    # check_finite and a window deep enough to hold the whole proof list
    # the same violations in the same order: a node's, then its premises'
    # first to last, then each premise's subtree
    several = 0
    for p in _double_mutants(20240816, 60):
        want = check_finite(p, SYSTEM_S)
        assert check_bounded(p, SYSTEM_S, _height(p) + 1) == want
        several += len({path for path, _ in want.violations}) > 1
    assert several > 300
    # neither enters the premises of an ind rule whose conditions raise,
    # where the system admits it, nor those of an axiom given a premise
    leaf = Proof.make(seq(atom(4)), Axiom(atom(9)), ())
    for p in (
        Proof.make(seq(atom(2), atom(3)), Ind(5, 5), (leaf,)),
        Proof.make(seq(atom(1)), Axiom(atom(1)), (leaf,)),
    ):
        for system in (SYSTEM_S, SYSTEM_SINF):
            assert check_finite(p, system) == check_bounded(p, system, 3)
        assert check_finite(p, SYSTEM_S).nodes_checked == 1


def test_the_judge_has_no_depth_limit():
    # a chain of or nodes, each keeping its principal, far deeper than the
    # interpreter's recursion limit
    c = seq(TOP, atom(0), natom(0))
    o = Observation(c, Axiom(atom(0)))
    for _ in range(5000):
        o = Observation(c, Or(TOP), (o,))
    rep = check_observation(o, SYSTEM_S, 6000)
    assert rep.ok
    assert (rep.nodes_checked, rep.truncation_points) == (5001, 0)


def test_the_judge_propagates_resource_limits():
    # the kernel's queries recurse: a conclusion holding a formula nested
    # deeper than the recursion limit runs out of stack in the L0 test,
    # which propagates as it does from observe instead of becoming a
    # verdict on the node
    f = atom(1)
    for _ in range(3000):
        f = ("box", f)
    c = from_checked((f, atom(1), natom(1)))
    o = Observation(c, Axiom(atom(1)))
    for _ in range(2):
        with pytest.raises(RecursionError):
            check_observation(o, SYSTEM_S, 1)
    assert not o.kept
    with pytest.raises(RecursionError):
        check_finite(Proof.make(c, Axiom(atom(1)), ()), SYSTEM_S)


def test_unknown_rule_tag_is_flagged():
    rep = check_bounded(Proof.make(seq(TOP), object(), ()), SYSTEM_S, 2)
    assert not rep.ok
    assert rep.violations[0][1].startswith(
        "node evaluation failed: unknown rule tag: <object object"
    )
    assert rep.nodes_checked == 0


def test_approximant_closure_oracles():
    m = pf("mu X . X")
    assert approximant_closure(seq(m), 2) == {m}
    n = pf("nu X . (p1 & X)")
    cl = approximant_closure(seq(n), 1)
    assert cl == {
        n,
        TOP,
        atom(0),
        natom(0),
        atom(1),
        ("and", atom(1), TOP),
    }


def test_approximant_closure_enters_modal_formulas():
    n = pf("nu X . (p1 & <> X)")
    assert approximant_closure(seq(("box", n)), 1) == {
        ("box", n),
        n,
        TOP,
        atom(0),
        natom(0),
        ("and", atom(1), ("dia", TOP)),
        atom(1),
        ("dia", TOP),
    }
    # the box rule's premise concludes the bodies of its modal members
    bx, dx = ("box", atom(1)), ("dia", natom(1))
    leaf = ax(seq(atom(1), natom(1)), atom(1))
    p = or_node(seq(("or", bx, dx)), ("or", bx, dx), box_fit(seq(bx, dx), bx, leaf))
    assert check_finite(p).ok
    report = subformula_report(p, 4)
    assert (report.ok, report.nodes_checked) == (True, 3)


def test_subformula_report():
    assert subformula_report(top_intro(()), 4).ok
    # formulas outside the closure of the endsequent are flagged
    stray = Proof.make(
        seq(TOP), type(top_intro(()).rule)(TOP),
        (ax(seq(atom(5), natom(5)), atom(5)),),
    )
    rep = subformula_report(stray, 4)
    assert not rep.ok
    assert any("outside the approximant closure" in v[1]
               for v in rep.violations)
    # primed formulas anywhere are flagged
    t = prime(pf("nu X . (p1 & X)"))
    primed = Proof.make(Sequent((t,)), Axiom(atom(0)), ())
    rep2 = subformula_report(primed, 2)
    assert not rep2.ok
    assert any("mentions nub" in v[1] for v in rep2.violations)


def test_subformula_report_words_failures_as_the_judge_does():
    # a node that could not be forced
    rep = subformula_report(Proof.defer(seq(TOP), lambda: 1 / 0), 3)
    assert rep.violations == (
        ("root", "node evaluation failed: division by zero"),
    )
    # nu premises that could not be produced
    n = pf("nu X . (p1 & X)")
    rep = subformula_report(nu_node(seq(n), n, lambda i: 1 / 0), 3, (0, 1))
    assert rep.violations == (
        ("root.w0", "premise evaluation failed: division by zero"),
        ("root.w1", "premise evaluation failed: division by zero"),
    )
    # a failing nu premise is named by its index, as the judge names it
    p = nu_node(seq(n), n, lambda i: 1 / 0 if i == 3 else top_intro((n,)))
    rep = subformula_report(p, 3, (0, 3))
    judged = check_bounded(p, omega_system(1), 3, (0, 3))
    assert rep.violations[-1] == (
        "root.w3", "premise evaluation failed: division by zero"
    )
    assert rep.violations[-1] in judged.violations
    # a family output that could not be produced
    t = prime(pf("mu X . (p1 | X)"))
    o = omega_node(Sequent((omega_phi(t),)), t, lambda d, w: 1 / 0)
    rep = subformula_report(o, 3)
    assert rep.violations[-1] == (
        "root.p0", "family evaluation failed: division by zero"
    )


# ---------------------------------------------------------------------------
# premise shapes that only the sampled, family and box checks meet


def _leaf(*forms):
    """A node concluding forms, never judged at depth 1."""
    return Proof.make(Sequent(forms), Axiom(atom(9)), ())


def test_nu_premises_lacking_a_part_or_a_member_or_with_an_extra_one():
    n = pf("nu X . (p1 & X)")
    p3, p4 = atom(3), atom(4)
    # w0 lacks its approximant, w1 the context member p3, w2 has p4 extra
    prems = {
        0: (n, p3),
        1: (n, iterate(n[1], TOP, 1)),
        2: (p3, p4, iterate(n[1], TOP, 2)),
    }
    p = nu_node(seq(n, p3), n, lambda i: _leaf(*prems[i]))
    assert check_bounded(p, omega_system(1), 1).violations == (
        (
            "root.w0",
            "premise concludes {p3, nu X . (p1 & X)}, expected one of"
            " {p3, (p0 | ~p0)} / {p3, (p0 | ~p0), nu X . (p1 & X)}",
        ),
        (
            "root.w1",
            "premise concludes {(p1 & (p0 | ~p0)), nu X . (p1 & X)}, expected"
            " one of {p3, (p1 & (p0 | ~p0))} / {p3, (p1 & (p0 | ~p0)),"
            " nu X . (p1 & X)}",
        ),
        (
            "root.w2",
            "premise concludes {p3, p4, (p1 & (p1 & (p0 | ~p0)))}, expected"
            " one of {p3, (p1 & (p1 & (p0 | ~p0)))} / {p3, (p1 & (p1 &"
            " (p0 | ~p0))), nu X . (p1 & X)}",
        ),
    )


def test_nu_rule_without_a_nu_principal_is_flagged_not_raised():
    # its premises have no defined parts; the judge used to raise the
    # kernel's TypeError out of the premise checks
    p = make_node(seq(atom(1)), Nu(atom(1)), OmegaFam(lambda i: top_intro(())))
    assert check_bounded(p, SYSTEM_SINF, 1).violations == (
        ("root", "nu principal p1 is not nu-rooted"),
        ("root", "premise shapes undefined: 'int' object is not subscriptable"),
    )


# ---------------------------------------------------------------------------
# the judge is total: a window it cannot read is a verdict, not an exception


def test_a_window_judged_deeper_than_it_was_observed_is_a_verdict():
    # observed to depth 0, the box node holds no premise to compare
    p1 = atom(1)
    b = box_fit(seq(("box", TOP), ("dia", p1)), ("box", TOP), top_intro((p1,)))
    rep = check_observation(observe(b, 0), SYSTEM_S, 3)
    assert rep.violations == (
        ("root", "malformed box rule: tuple index out of range"),
    )
    assert (rep.nodes_checked, rep.truncation_points) == (1, 0)


def _unprobed_omegabar():
    """An omegabar node whose target [] X has a free variable, so its
    first premise has no defined shape and its family no probe."""
    leaf = top_intro(())
    target = ("box", ("var",))
    fam = DeltaFam(target, lambda d, w: leaf)
    return Proof.make(seq(TOP), OmegaBar(1, target), OmegaBarPrem(leaf, fam))


def test_an_omegabar_first_premise_is_compared_with_the_conclusion_plus_its_target():
    # membership answers a first premise that fits; one that does not is
    # worded with the sequent it should conclude
    m = pf("mu X . (p1 | X)")
    c = seq(omega_phi(m))
    fam = DeltaFam(m, lambda d, w: top_intro(()))
    fits = Proof.defer(c.add(m), lambda: top_intro(()))
    for first, flagged in ((fits, False), (top_intro(()), True)):
        p = Proof.make(c, OmegaBar(1, m), OmegaBarPrem(first, fam))
        rep = check_observation(observe(p, 1, probe_budget=0), omega_system(1), 1)
        want = ("root", "first premise concludes %r, expected %r" % (first.conclusion, c.add(m)))
        assert (want in rep.violations) is flagged


def test_an_omegabar_without_a_first_premise_shape_is_a_verdict():
    o = observe(_unprobed_omegabar(), 2, probe_budget=0)
    rep = check_observation(o, omega_system(1), 2)
    assert rep.violations[-1] == (
        "root",
        "premise shapes undefined: sequent formula has a free variable: [] X",
    )
    assert (rep.nodes_checked, rep.truncation_points) == (2, 2)


def test_an_unbuildable_probe_makes_an_error_leaf_the_judge_flags():
    o = observe(_unprobed_omegabar(), 2)
    assert (o.conclusion, o.rule, o.children) == (seq(TOP), None, ())
    assert o.error == "sequent formula has a free variable: [] X"
    assert check_observation(o, omega_system(1), 2).violations == (
        ("root", "node evaluation failed: sequent formula has a free variable: [] X"),
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_windows_judged_deeper_than_observed_raise_nothing(name):
    k = level_bound(CORPUS[name]())
    for stage in pipeline(CORPUS[name]()).values():
        for depth in range(4):
            o = observe(stage, depth)
            for system in (SYSTEM_S, SYSTEM_SINF, omega_system(k)):
                check_observation(o, system, depth + 2)


def test_family_outputs_lacking_a_member_or_with_an_extra_one():
    t = prime(pf("mu X . (p1 | X)"))
    p3, p4 = atom(3), atom(4)
    # an omegabar family output must keep the whole context
    bar = omegabar_node(seq(p3), t, _leaf(p3, t), lambda d, w: _leaf(*d))
    assert check_bounded(bar, omega_system(1), 1).violations == (
        (
            "root.p0",
            "family output concludes {(p0 | ~p0)}, expected one of"
            " {p3, (p0 | ~p0)}",
        ),
    )
    c = seq(omega_phi(t), p3)
    om = omega_node(c, t, lambda d, w: _leaf(*c.union(d).add(p4)))
    assert check_bounded(om, omega_system(1), 1).violations == (
        (
            "root.p0",
            "family output concludes {p3, p4, (p0 | ~p0), nub X . (~p1 & X)},"
            " expected one of {p3, (p0 | ~p0)} / {p3, (p0 | ~p0),"
            " nub X . (~p1 & X)}",
        ),
    )


def test_box_premise_with_a_wrong_side_or_a_principal_not_a_member():
    p1, q, p3 = atom(1), atom(2), atom(3)
    conc = Sequent((("dia", p1), ("dia", natom(1)), ("box", q), p3))
    image = "box conclusion {p3, [] p2, <> p1, <> ~p1} does not match"
    # the side leaves out p3
    wrong_side = Proof.make(
        conc, Box(("box", q), Sequent()), (_leaf(p1, natom(1), q),)
    )
    assert check_finite(wrong_side).violations[:1] == (
        ("root", image + " the diamond image of its premise {p1, p2, ~p1}"),
    )
    absent = Proof.make(
        conc, Box(("box", atom(5)), seq(p3)), (_leaf(p1, natom(1), atom(5)),)
    )
    assert check_bounded(absent, SYSTEM_S, 1).violations == (
        ("root", "principal [] p5 not in conclusion"),
        ("root", image + " the diamond image of its premise {p1, p5, ~p1}"),
    )
    # a principal that is not a member is checked as it is added
    malformed = Proof.make(
        conc, Box(("box", ("atom", True)), seq(p3)), (_leaf(p1, natom(1)),)
    )
    assert check_bounded(malformed, SYSTEM_S, 1).violations == (
        ("root", "principal [] p1 not in conclusion"),
        ("root", "malformed box rule: bad atom node: ('atom', True)"),
    )


def _deferred(p, forced, path="root"):
    """A copy of the finite proof p, tree-shaped, whose every node is
    deferred: forcing the node at path appends path to forced."""
    tag, premises = p._force()
    kids = tuple(_deferred(q, forced, "%s.%d" % (path, j)) for j, q in enumerate(premises))

    def node():
        forced.append(path)
        return Proof.make(p.conclusion, tag, kids)

    return Proof.defer(p.conclusion, node)


def _forcing_order(p, path="root"):
    """The paths of p's nodes in the order check_finite forces them: a
    node's premises, first to last, when the node is judged, then their
    subtrees."""
    premises = p._force()[1]
    paths = ["%s.%d" % (path, j) for j in range(len(premises))]
    for q, at in zip(premises, paths):
        paths += _forcing_order(q, at)
    return paths


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_check_finite_forces_each_node_once_and_makes_no_window(monkeypatch, name):
    # the judge reads the proof's own nodes: no Observation is made, and
    # each node is forced once, its premises when it is judged
    want = check_finite(_SHAPES[name]())
    made, make = [], proofs.Observation

    def counting(*args, **kwargs):
        made.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(proofs, "Observation", counting)
    forced = []
    got = check_finite(_deferred(_SHAPES[name](), forced))
    assert got == want and got.ok
    assert made == []
    assert forced == ["root"] + _forcing_order(_SHAPES[name]())
    assert len(forced) == got.nodes_checked


def test_check_finite_tries_a_premise_that_cannot_be_forced_once():
    tries = []

    def broken():
        tries.append(1)
        raise InternalInvariantError("no node here")

    a = atom(1)
    right = Proof.defer(Sequent((TOP, natom(1))), broken)
    p = cut_node(Sequent((TOP,)), a, top_intro((a,)), right)
    assert check_finite(p).violations == (("root.1", "node evaluation failed: no node here"),)
    assert tries == [1]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_check_finite_keeps_no_window(name):
    p = CORPUS[name]()
    assert check_finite(p).ok
    todo = [p]
    while todo:
        q = todo.pop()
        assert kept_windows(q) == []
        todo.extend(q.premises)


# ---------------------------------------------------------------------------
# the reports kept on a window


def test_a_window_keeps_one_report_per_system_and_depth():
    # the embedded stage holds omega nodes: it checks in its omega system
    # and fails in S-infinity
    omega = omega_system(level_bound(CORPUS["nested"]()))
    p = pipeline(CORPUS["nested"]())["embedded"]
    o = observe(p, 5)
    first = check_observation(o, omega, 5)
    second = check_observation(o, SYSTEM_SINF, 5)
    assert first.ok and not second.ok
    for system, report in ((omega, first), (SYSTEM_SINF, second)):
        assert check_observation(o, system, 5) is report
        cold = observe(pipeline(CORPUS["nested"]())["embedded"], 5)
        assert check_observation(cold, system, 5) == report
    assert check_bounded(p, omega, 5) is first
    shallow = check_observation(o, omega, 2)
    assert shallow != first
    cold = observe(pipeline(CORPUS["nested"]())["embedded"], 5)
    assert check_observation(cold, omega, 2) == shallow


def test_pipeline_walks_one_window_and_judges_it_once_per_system(tmp_path, monkeypatch):
    # all four stages of e3-axmu are one proof: its window is made once
    # (one construction of a window equal to it) and judged once, in
    # omega:1; the window is neutral between omega:1 and S-infinity, so
    # the S-infinity report is the omega:1 report
    assert run_cli(["corpus", "--out", str(tmp_path)])[0] == 0
    make, judge = proofs.Observation, checker._judge_window
    made, judged = [], []

    def counting_make(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    def counting_judge(o, system, depth):
        judged.append((o, system, depth))
        return judge(o, system, depth)

    monkeypatch.setattr(proofs, "Observation", counting_make)
    monkeypatch.setattr(checker, "_judge_window", counting_judge)
    code, _, err = run_cli([
        "pipeline", str(tmp_path / "e3-axmu.sproof"),
        "--out", str(tmp_path / "out"), "--depth", "4",
    ])
    assert code == 0, err
    ((o, system, depth),) = judged
    assert made.count(o) == 1
    assert (system, depth) == (omega_system(1), 4)
    assert o.kept[SYSTEM_SINF, 4] is o.kept[system, 4]


# ---------------------------------------------------------------------------
# one window judged in several systems


FIVE_SYSTEMS = (SYSTEM_S, SYSTEM_SINF, omega_system(0), omega_system(1), omega_system(2))


def _judged_in_turn(o, systems, depth):
    """The reports of one window judged in each system in turn, keyed by
    system."""
    return {system: check_observation(o, system, depth) for system in systems}


def test_the_order_of_judging_a_window_changes_no_report():
    # every A8 mutant and every corpus stage, judged on one window in five
    # systems forward and in reverse, reports as a fresh window judged in
    # each system alone
    proofs_ = [m for *_, m in draw_mutants(20240816, 200)]
    for name in sorted(CORPUS):
        proofs_ += pipeline(CORPUS[name]()).values()
    for p in proofs_:
        for depth in (0, 1, 3, 6):
            alone = [
                check_observation(fresh_window(p, depth), system, depth)
                for system in FIVE_SYSTEMS
            ]
            for order in (FIVE_SYSTEMS, FIVE_SYSTEMS[::-1]):
                got = _judged_in_turn(fresh_window(p, depth), order, depth)
                assert [got[system] for system in FIVE_SYSTEMS] == alone


def _neutral_window():
    f = ("or", atom(2), atom(3))
    leaf = Observation(seq(atom(0), natom(0), atom(2), atom(3)), Axiom(atom(0)))
    return Observation(seq(atom(0), natom(0), f), Or(f), (leaf,))


def _cut_window():
    # the omega systems prime both sides of the cut
    f = pf("mu X . (p1 | X)")
    kids = tuple(
        Observation(seq(atom(0), natom(0), side), Axiom(atom(0)))
        for side in (f, negate(f))
    )
    return Observation(seq(atom(0), natom(0)), Cut(f), kids)


def _omega_window():
    # level 2 is outside omega:1 only
    t = prime(pf("mu X . (p1 | X)"))
    return Observation(seq(omega_phi(t)), Omega(2, t), (), truncated=True, probes=())


def _ind_window():
    m, b = pf("mu X . (p1 | X)"), atom(2)
    leaf = Observation(Sequent((negate(substitute(m[1], b)), b)), Axiom(atom(9)))
    return Observation(Sequent((negate(m), b)), Ind(m, b), (leaf,))


def _bound_cut_window():
    # the only cut sits at the depth bound 3, where only its rule is read
    c = seq(TOP, atom(0), natom(0))
    o = Observation(c, Cut(atom(1)), (), truncated=True)
    for _ in range(3):
        o = Observation(c, Or(TOP), (o,))
    return o


def _primed_window():
    t = prime(pf("nu X . (p1 & X)"))
    return Observation(seq(t, atom(0), natom(0)), Axiom(atom(0)))


@pytest.mark.parametrize(
    "window, first, second, judged",
    [
        (_neutral_window, omega_system(1), SYSTEM_SINF, 1),
        (_cut_window, SYSTEM_S, omega_system(0), 2),
        (_omega_window, omega_system(2), omega_system(1), 2),
        (_ind_window, SYSTEM_S, SYSTEM_SINF, 2),
        (_primed_window, omega_system(0), SYSTEM_S, 2),
        (_bound_cut_window, omega_system(1), SYSTEM_SINF, 2),
    ],
    ids=["neutral", "cut", "omega", "left-out-rule", "primed", "cut-at-the-bound"],
)
def test_a_second_system_reuses_the_report_only_of_a_neutral_window(
    monkeypatch, window, first, second, judged
):
    # one condition of the reuse rule fails in each window but the neutral
    # one; each report is the one a fresh window gives, and differs from
    # the first system's.  The rule reads the whole window's rules, as the
    # judge does, so a cut at the depth bound has the window judged again
    fresh = [check_observation(window(), system, 3) for system in (first, second)]
    judge, calls = checker._judge_window, []

    def counting_judge(o, system, depth):
        calls.append(system)
        return judge(o, system, depth)

    monkeypatch.setattr(checker, "_judge_window", counting_judge)
    o = window()
    assert [check_observation(o, system, 3) for system in (first, second)] == fresh
    assert calls == [first, second][:judged]
    assert (fresh[0] == fresh[1]) == (judged == 1)


def test_a_raising_rule_skips_its_premises_only_where_it_is_admitted():
    # ind's conditions raise on its malformed formula; S admits ind, so the
    # node's premises go unjudged there, while S-infinity, which does not,
    # judges them and flags the rule
    f, p9 = ("or", atom(2), atom(3)), atom(9)
    broken = "'int' object is not subscriptable"

    def window():
        leaf = Observation(seq(atom(4)), Axiom(p9))
        ind = Observation(seq(atom(2), atom(3)), Ind(5, 5), (leaf,))
        return Observation(seq(f), Or(f), (ind,))

    in_s = (("root.0", "malformed rule tag: " + broken),)
    in_sinf = (
        ("root.0", "rule ind is not part of system sinf"),
        ("root.0", "premise shapes undefined: " + broken),
        ("root.0.0", "axiom pair p9, ~p9 not in conclusion"),
    )
    for order in ((SYSTEM_S, SYSTEM_SINF), (SYSTEM_SINF, SYSTEM_S)):
        got = _judged_in_turn(window(), order, 4)
        assert got[SYSTEM_S].violations == in_s
        assert (got[SYSTEM_S].nodes_checked, got[SYSTEM_S].truncation_points) == (2, 0)
        assert got[SYSTEM_SINF].violations == in_sinf
        assert got[SYSTEM_SINF].nodes_checked == 3
        for system in order:
            assert check_observation(window(), system, 4) == got[system]


def test_a_clean_window_with_a_primed_conclusion_is_flagged_by_its_l0_test():
    # every rule is admitted and no node has flaws, so only the L0 test of
    # the window's distinct formulas finds the primed conclusions
    t, f = prime(pf("nu X . (p1 & X)")), ("or", atom(2), atom(3))
    context = (t, atom(0), natom(0))
    leaf = Observation(Sequent(context + (atom(2), atom(3))), Axiom(atom(0)))
    o = Observation(Sequent(context + (f,)), Or(f), (leaf,))
    primed = "conclusion uses the primed language outside omega systems"
    for system in (SYSTEM_S, SYSTEM_SINF):
        assert check_observation(o, system, 2).violations == (
            ("root", primed),
            ("root.0", primed),
        )
    assert check_observation(o, omega_system(0), 2).ok


def _lookups():
    info = max_nubar_level.cache_info()
    return info.hits + info.misses


def test_outside_l0_asks_each_distinct_formula_once():
    n = prime(pf("nu X . (p1 & X)"))
    known = set()
    assert outside_l0([seq(atom(1), n), seq(n, natom(1))], known) == {n}
    assert known == {atom(1), natom(1)}
    before = _lookups()
    assert outside_l0([seq(atom(1), natom(1))], known) == set()
    assert _lookups() == before
    assert outside_l0([]) == set()


def test_check_finite_asks_each_distinct_formula_once_for_the_l0_test():
    # the 200-cut chain: the L0 test of the conclusions asks each distinct
    # formula once, and each cut's own condition asks for its cut formula
    p = cut_chain([atom(i) if i % 2 else natom(i) for i in range(1, 201)])
    forms, cuts, todo = set(), 0, [p]
    while todo:
        q = todo.pop()
        forms |= q.conclusion
        cuts += isinstance(q._force()[0], Cut)
        todo.extend(q.premises)
    assert check_finite(p).ok  # the kernel's memo now holds every formula
    before = _lookups()
    assert check_finite(p).ok
    assert (len(forms), cuts) == (403, 200)
    assert _lookups() - before <= len(forms) + cuts
