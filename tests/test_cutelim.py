"""Cut elimination: ranks, weakening, head reduction, and the full
elimination pass."""

from __future__ import annotations

import re

import pytest

from mucut.checker import check_bounded, check_finite, level_bound, omega_system
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
    observation_rules,
    observe,
    top_intro,
)
from mucut.sequents import seq
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
    # principal is a member of the conclusion with the rule's root; parts
    # of hand-built nodes that fail this are checked, and malformed ones
    # rejected
    leaf = top_intro((atom(3),))
    wrong_root = Proof.make(seq(atom(3)), And(atom(3)), (leaf, leaf))
    with pytest.raises(ValueError, match="nonempty tuple: 3"):
        embed(wrong_root).premises
    stray = ("or", ("var",), atom(1))
    not_member = Proof.make(seq(atom(1)), Or(stray), (leaf,))
    with pytest.raises(InternalInvariantError, match="principal not in conclusion"):
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
