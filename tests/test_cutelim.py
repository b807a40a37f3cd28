"""Cut elimination: ranks, weakening, head reduction, and the full
elimination pass."""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LITERALS,
    assert_pipeline_passes,
    cut_chain,
    cut_tree,
    deep_cut_chain,
    run_cli,
)
from mucut.checker import (
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
)
from mucut.collapse import pipeline
from mucut.corpus import CORPUS
from mucut.cutelim import (
    DEFAULT_FUEL,
    _commute,
    cut_fit,
    cut_rank,
    eliminate,
    fit,
    reduce_head,
    weaken,
)
from mucut.embed import embed
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import TOP, atom, natom, negate
from mucut.proofs import (
    And,
    Axiom,
    Cut,
    Nu,
    Omega,
    OmegaFam,
    Or,
    Proof,
    ax,
    axmu_node,
    box_node,
    clo_node,
    cut_node,
    ind_node,
    is_cut_free_observed,
    observation_rules,
    observe,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, seq
from mucut.sexpr import observation_dumps, proof_dumps
from mucut.syntax import parse_formula as pf


def test_cut_rank():
    assert cut_rank(atom(1)) == (0, 1)
    assert cut_rank(TOP) == (0, 3)
    assert cut_rank(pf("mu X . (p1 | X)")) == (1, 4)
    assert cut_rank(pf("mu X . (X & mu X . ((p3 & ~p3) | X))")) == (2, 9)


def test_weaken():
    p = top_intro(())
    w = weaken(p, (atom(7),))
    assert w.conclusion == seq(TOP, atom(7))
    assert check_finite(w).ok
    assert weaken(p, (TOP,)) is p  # nothing new to add
    # box rules absorb the extras into their side sequent
    p1, q1 = atom(1), atom(2)
    prem = ax(seq(p1, negate(p1), q1), p1)
    conc = seq(("dia", p1), ("dia", negate(p1)), ("box", q1))
    from mucut.proofs import box_node

    b = box_node(conc, ("box", q1), seq(), prem)
    wb = weaken(b, (atom(7),))
    assert check_finite(wb).ok
    assert wb.conclusion == conc.add(atom(7))
    # induction nodes admit no context and refuse to weaken
    m = pf("mu X . (p1 | X)")
    from mucut.proofs import Proof

    unfold = pf("(p1 | top)")
    ind = ind_node(
        seq(negate(m), TOP), m, TOP,
        Proof.defer(seq(negate(unfold), TOP), lambda: top_intro(())),
    )
    wi = weaken(ind, (atom(7),))
    with pytest.raises(InternalInvariantError):
        wi.rule


def test_fit():
    p = top_intro(())
    assert fit(p, seq(TOP)) is p
    f = fit(p, seq(TOP, atom(4)))
    assert f.conclusion == seq(TOP, atom(4))
    with pytest.raises(InternalInvariantError):
        fit(p, seq(atom(4)))  # not a superset of the conclusion


@pytest.mark.parametrize("formula", [
    ("or", ("var",), atom(1)),  # a free variable
    ("box", atom(1), atom(2)),  # malformed, though priming and negation pass it
])
def test_cut_fit_checks_its_formula(formula):
    # the cut formula is checked once, as a sequent member is; only the
    # primed sides derived from it go in unchecked
    with pytest.raises(ValueError) as want:
        seq(TOP).add(formula)
    leaf = top_intro(())
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        cut_fit(seq(TOP), formula, leaf, leaf)


def test_reduce_head_simple_cut():
    # cut on top between its introduction and a proof using ~top
    g = seq(TOP)
    c = cut_node(g, TOP, top_intro(()), top_intro((negate(TOP),)))
    steps = []
    out = reduce_head(c, trace=lambda p, k, r: steps.append((p, k, r)))
    assert out.conclusion == g
    assert not isinstance(out.rule, Cut)
    assert steps
    assert steps[0][2] == (0, 3)  # the cut rank: level then size
    assert all(r <= (0, 3) for _, _, r in steps)
    assert is_cut_free_observed(out, 8)
    assert check_bounded(out, omega_system(0), 8).ok


def test_eliminate_corpus():
    for name in ("top-cut", "axmu"):
        p = CORPUS[name]()
        k = max(1, level_bound(p))
        emb = embed(p, (), k)
        elim = eliminate(emb)
        assert elim.conclusion == emb.conclusion
        o = observe(elim, 6)
        assert not any(isinstance(t, Cut) for t in observation_rules(o)), name
        assert check_bounded(elim, omega_system(k), 6).ok, name


def test_eliminate_trace_is_deterministic():
    def run():
        steps = []
        elim = eliminate(
            embed(CORPUS["nested"](), (), 2),
            trace=lambda p, c, r: steps.append((p, c, r)),
        )
        observe(elim, 1)
        return steps

    first = run()
    assert first == run()
    # the root force replaces one rule at level 2, then one at level 1
    assert first[0] == ("root.0", "omegabar-2", (2, 9))
    assert first[1] == ("root", "omegabar-1", (1, 6))


def test_eliminate_case_tokens():
    steps = []
    elim = eliminate(
        embed(CORPUS["nested"](), (), 2),
        trace=lambda p, c, r: steps.append(c),
    )
    observe(elim, 6)
    seen = set(steps)
    assert "omegabar-2" in seen
    assert "omegabar-1" in seen
    assert seen <= {
        "redundant",
        "axiom-context",
        "omegabar-1",
        "omegabar-2",
        "decompose",
        "modal",
        "commute",
    }


def test_fuel_exhaustion():
    emb = embed(CORPUS["nested"](), (), 2)
    elim = eliminate(emb, fuel=1)
    with pytest.raises(FuelExhausted):
        observe(elim, 6)
    # the default budget is plenty for the whole corpus
    assert DEFAULT_FUEL == 100_000


def test_eliminate_leaves_cut_free_proofs_alone():
    p = top_intro(())
    out = eliminate(p)
    assert out.conclusion == p.conclusion
    assert is_cut_free_observed(out, 4)


def test_parts_of_an_unvouched_principal_are_checked():
    # embed and a commuted cut take a rule's parts unchecked only when its
    # principal is a member of the conclusion with the rule's root; embed
    # refuses a hand-built node that fails this by its rule's condition,
    # and a commuted cut checks its parts, rejecting malformed ones
    leaf = top_intro((atom(3),))
    wrong_root = Proof.make(seq(atom(3)), And(atom(3)), (leaf, leaf))
    with pytest.raises(InternalInvariantError, match="^principal p3 is not and-rooted$"):
        embed(wrong_root).premises
    stray = ("or", ("var",), atom(1))
    not_member = Proof.make(seq(atom(1)), Or(stray), (leaf,))
    with pytest.raises(
        InternalInvariantError, match=r"^principal \(X \| p1\) not in conclusion$"
    ):
        embed(not_member).premises

    # a cut on p2 commuted above a node concluding g, p2
    g = seq(atom(1), natom(1))
    other = ax(g.add(natom(2)), atom(1))

    def commute(tag, premises):
        d = Proof.make(g.add(atom(2)), tag, premises)
        return _commute(d, atom(2), other, g, atom(2))

    with pytest.raises(ValueError, match="free variable"):
        commute(Or(stray), (leaf,))
    with pytest.raises(ValueError, match="nonempty tuple: 1"):
        commute(And(atom(1)), (leaf, leaf))
    bad_nu = ("nu", ("and", ("var",), ("atom", -1)))
    with pytest.raises(ValueError, match="bad atom node"):
        commute(Nu(bad_nu), OmegaFam(lambda i: leaf)).premises(1)


# ---------------------------------------------------------------------------
# need-driven, iterative exposure of premise cut chains

@st.composite
def _atom_cut_proofs(draw, shape):
    """Atom-cut trees, right chains, their left mirrors or combs."""
    unique = {"unique_by": lambda f: f[1]}
    if shape == "tree":
        return cut_tree(tuple(draw(st.lists(LITERALS, max_size=4, **unique))))
    atoms = draw(st.lists(LITERALS, max_size=12, **unique))
    teeth = None
    if shape == "comb":
        teeth = draw(st.lists(LITERALS, min_size=len(atoms), max_size=len(atoms)))
    return cut_chain(atoms, mirror=shape != "chain", teeth=teeth)


@pytest.mark.parametrize("shape", ["tree", "chain", "mirror", "comb"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_windows_of_eliminated_atom_cut_proofs_check(shape, data):
    assert_pipeline_passes(data.draw(_atom_cut_proofs(shape)))


def _deep_shape(shape):
    """1,000 cuts nested in the right premise, in the left one, or a comb
    whose every cut has a cut (a one-cut tooth) in both premises."""
    n = 1000
    atoms = [atom(i) if i % 2 else natom(i) for i in range(1, n + 1)]
    if shape == "right":
        return cut_chain(atoms)
    if shape == "left":
        return cut_chain(atoms, mirror=True)
    teeth = [atom(n + i) for i in range(1, n + 1)]
    return cut_chain(atoms, mirror=True, teeth=teeth)


@pytest.mark.parametrize("shape", ["right", "left", "comb"])
def test_deep_cut_shapes_are_eliminated_without_recursion(shape):
    assert_pipeline_passes(_deep_shape(shape))


@pytest.mark.parametrize("shape", ["redundant", "right"])
def test_pipeline_command_on_a_deep_cut_chain(tmp_path, shape):
    # every cut of the redundant chain has its ~a side in its conclusion
    p = deep_cut_chain(1000) if shape == "redundant" else _deep_shape(shape)
    f = tmp_path / "chain.sproof"
    f.write_text(proof_dumps(p))
    code, out, err = run_cli(["pipeline", str(f), "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    summary = (tmp_path / "chain.summary").read_text()
    assert summary.count(" ok)") == 4, summary


def _cases(p):
    """The (path, case) trace of eliminating p, observed at depth 6; the
    window must check."""
    steps = []
    elim = eliminate(embed(p), trace=lambda path, case, _: steps.append((path, case)))
    assert check_observation(observe(elim, 6), omega_system(0), 6).ok
    return steps


def test_eliminate_exposes_a_premise_cut_only_when_needed():
    # the exact trace of a 2^5 atom-cut tree and a 50-cut chain: exposing
    # every premise cut chain first took 36 and 51 reductions
    tree = cut_tree((atom(1), natom(2), atom(3), natom(4), atom(5)))
    ctx, com = "axiom-context", "commute"
    assert _cases(tree) == [
        ("root.0.0.0.0", com),
        ("root.0.0.0", com),
        ("root.0.0", com),
        ("root.0", com),
        ("root", com),
        ("root.0.0.0.0.0", ctx),
        ("root.0.0.0.0.1", com),
        ("root.0.0.0.0", ctx),
        ("root.0.0.0.1.0", com),
        ("root.0.0.0.1", com),
        ("root.0.0.0", ctx),
        ("root.0.0.1.0.0", com),
        ("root.0.0.1.0", com),
        ("root.0.0.1", com),
        ("root.0.0", ctx),
        ("root.0.1.0.0.0", com),
        ("root.0.1.0.0", com),
        ("root.0.1.0", com),
        ("root.0.1", com),
        ("root.0", ctx),
    ]
    chain = cut_chain([atom(i) if i % 2 else natom(i) for i in range(1, 51)])
    assert _cases(chain) == [("root", com), ("root.0.1", com), ("root.0", ctx)]


def test_a_commutable_premise_goes_before_exposing_a_cut():
    # the right premise is a cut whose exposed root is an axiom, the left
    # a truth introduction: exposing first closed the root by that axiom
    # in two reductions; commuting first takes three
    p1, p2, p3 = atom(1), atom(2), atom(3)
    g = seq(TOP, p1, natom(1))
    right = cut_node(
        g.add(natom(2)),
        p3,
        ax(g.union((natom(2), p3)), p1),
        top_intro((p1, natom(1), natom(2), natom(3))),
    )
    p = cut_node(g, p2, top_intro((p1, natom(1), p2)), right)
    assert check_finite(p).ok
    assert _cases(p) == [
        ("root", "commute"),
        ("root.0.1", "axiom-context"),
        ("root.0", "axiom-context"),
    ]


# ---------------------------------------------------------------------------
# reduction branches that no corpus proof or benchmark workload reaches


def _exposing_cut():
    """A cut on p2 whose left premise is an axiom, which cannot be
    commuted, and whose right premise is a cut on p3 between two axioms."""
    p1, p2, p3 = atom(1), atom(2), atom(3)
    g = seq(p1, natom(1))
    left = ax(g.add(p2), p1)
    right = cut_node(
        g.add(natom(2)),
        p3,
        ax(g.union((natom(2), p3)), p1),
        ax(g.union((natom(2), natom(3))), p1),
    )
    return g, left, right


def test_reduce_head_exposes_a_premise_cut_and_keeps_the_cut_above_it():
    g, left, right = _exposing_cut()
    steps = []
    out = reduce_head(
        cut_node(g, atom(2), left, right), trace=lambda p, c, _: steps.append((p, c))
    )
    assert steps == [("root.1", "axiom-context")]
    assert out.rule == Cut(atom(2))
    assert out.premises[0] is left
    assert out.premises[1].rule == Axiom(atom(1))
    assert out.premises[1].conclusion == right.conclusion
    assert check_finite(out).ok


def test_a_cut_with_its_premises_in_reverse_order_reduces_as_in_order():
    g, left, right = _exposing_cut()
    runs = []
    for premises in ((left, right), (right, left)):
        steps = []
        out = reduce_head(
            cut_node(g, atom(2), *premises), trace=lambda p, c, _: steps.append((p, c))
        )
        runs.append((steps, observation_dumps(observe(out, 4))))
    assert runs[0] == runs[1]
    assert runs[0][0] == [("root.1", "axiom-context")]


def _box_against_its_dual():
    """The box and the diamond premises of the modal pin of
    tests/test_branch_pins.py: a box on [](p0 | ~p0), and a box whose
    diamond part holds <>(~p0 & p0)."""
    b0, b1, d = pf("[](p0 | ~p0)"), pf("[](p1 | ~p1)"), pf("<>(~p0 & p0)")
    box_side = box_node(Sequent((b0, b1)), b0, Sequent((b1,)), top_intro(()))
    dia_side = box_node(
        Sequent((b1, d)),
        b1,
        Sequent(),
        or_node(
            Sequent((b1[1], d[1])),
            b1[1],
            ax(Sequent((atom(1), natom(1), d[1])), atom(1)),
        ),
    )
    return Sequent((b1,)), d, box_side, dia_side


def test_the_modal_case_with_the_box_on_the_f2_side():
    # a cut on <>(~p0 & p0): its f2 side is the box premise's principal
    g, d, box_side, dia_side = _box_against_its_dual()
    steps = []
    stages = pipeline(
        cut_node(g, d, dia_side, box_side), trace=lambda p, c, _: steps.append((p, c))
    )
    o = observe(stages["eliminated"], 6)
    assert steps == [
        ("root", "modal"),
        ("root.0", "commute"),
        ("root.0.0", "axiom-context"),
    ]
    # the same eliminated window as the cut on [](p0 | ~p0) pinned there
    digest = hashlib.sha256(
        observation_dumps(observe(stages["eliminated"], 8, (0, 1, 2), 1)).encode()
    ).hexdigest()
    assert digest == "c1f0d975945fd5665e537e1ad01bebb03250a69e653d39f15f3767c913d0e56e"
    assert check_observation(o, omega_system(0), 6).ok


def test_the_omegabar_case_with_the_omega_node_on_the_f1_side():
    # the embedded cut on mu X . X against the Omega node of an induction
    # whose invariant is nu X . X, cut on nu X . X with its premises
    # swapped: the family output keeps the Omega formula nub X . X, so it
    # is cut against the mu side with the output as its f1 premise
    mu = pf("mu X . X")
    nu = negate(mu)
    axiom = axmu_node(Sequent((mu, nu)), mu)
    cut = cut_node(
        Sequent((nu,)),
        mu,
        clo_node(Sequent((mu, nu)), mu, axiom),
        ind_node(Sequent((nu,)), mu, nu, axiom),
    )
    mu_side, omega_side = embed(cut, frozenset(), 1).premises
    assert isinstance(omega_side.rule, Omega)
    steps = []
    out = reduce_head(
        cut_node(Sequent((nu,)), nu, omega_side, mu_side),
        trace=lambda p, c, _: steps.append((p, c)),
    )
    assert steps == [("root", "omegabar-1")]
    assert observation_dumps(observe(out, 2)) == (
        '(rule (omegabar 1 "mu X . X") (seq "nu X . X")'
        ' (rule (clo "mu X . X") (seq "mu X . X" "nu X . X")'
        ' (rule (nu "nu X . X") (seq "mu X . X" "nu X . X") (samples) (truncated)))'
        ' (rule (cut "nu X . X") (seq "(p0 | ~p0)" "nu X . X")'
        ' (rule (or "(p0 | ~p0)") (seq "(p0 | ~p0)" "nu X . X" "nub X . X") (truncated))'
        ' (rule (clo "mu X . X") (seq "(p0 | ~p0)" "mu X . X" "nu X . X") (truncated)))'
        ' (probes (seq "(p0 | ~p0)")) (truncated))\n'
    )
    assert check_observation(observe(out, 6), omega_system(1), 6).ok
