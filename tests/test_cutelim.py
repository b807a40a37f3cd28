"""Cut elimination: ranks, weakening, head reduction, and the full
elimination pass."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LITERALS, cut_chain, cut_tree, deep_cut_chain, run_cli
from mucut.checker import (
    SYSTEM_SINF,
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
    Cut,
    Nu,
    OmegaFam,
    Or,
    Proof,
    ax,
    cut_node,
    ind_node,
    is_cut_free_observed,
    observation_errors,
    observation_rules,
    observe,
    top_intro,
)
from mucut.sequents import seq
from mucut.sexpr import proof_dumps
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
        "axiom-pair",
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

STAGES = ("embedded", "eliminated", "collapsed", "sinf")


def _stage_system(p, stage):
    if stage in ("collapsed", "sinf"):
        return SYSTEM_SINF
    return omega_system(level_bound(p))


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
    p = data.draw(_atom_cut_proofs(shape))
    assert check_finite(p).ok
    stages = pipeline(p)
    for stage in STAGES:
        o = observe(stages[stage], 6)
        assert observation_errors(o) == [], stage
        assert o.conclusion == p.conclusion, stage
        assert check_bounded(stages[stage], _stage_system(p, stage), 6).ok, stage
    assert not any(isinstance(t, Cut) for t in observation_rules(o))


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
    p = _deep_shape(shape)
    stages = pipeline(p)
    for stage in STAGES:
        o = observe(stages[stage], 6)
        assert check_observation(o, _stage_system(p, stage), 6).ok, stage
        assert o.conclusion == p.conclusion


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
