"""Cut elimination: ranks, weakening, head reduction, and the full
elimination pass."""

from __future__ import annotations

import hashlib
import importlib
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LITERALS, assert_pipeline_passes, run_cli
from mucut import cutelim
from mucut.checker import (
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
)
from mucut.collapse import STAGES, pipeline
from mucut.corpus import CORPUS, cut_chain, cut_tree, deep_cut_chain
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
from mucut.kernel import TOP, atom, natom, negate, substitute
from mucut.proofs import (
    And,
    Axiom,
    Box,
    Cut,
    Ind,
    Nu,
    Omega,
    OmegaFam,
    Or,
    Proof,
    and_node,
    ax,
    axmu_node,
    box_node,
    clo_node,
    cut_node,
    ind_node,
    is_cut_free_observed,
    make_node,
    map_premises,
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
        emb = embed(p)
        elim = eliminate(emb)
        assert elim.conclusion == emb.conclusion
        o = observe(elim, 6)
        assert not any(isinstance(t, Cut) for t in observation_rules(o)), name
        assert check_bounded(elim, omega_system(k), 6).ok, name


def test_eliminate_trace_is_deterministic():
    def run():
        steps = []
        elim = eliminate(
            embed(CORPUS["nested"]()),
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
        embed(CORPUS["nested"]()),
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
    emb = embed(CORPUS["nested"]())
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
    mu_side, omega_side = embed(cut).premises
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


# ---------------------------------------------------------------------------
# composed weakening


def _nested_weaken(d, extra, memo=None):
    """The reference weakening, which neither composes nor shares: each
    call wraps d in one more pending layer, whatever memo it is given, and
    forcing the outer layer forces every layer below it in turn."""
    extra = Sequent(extra).difference(d.conclusion)
    if not extra:
        return d
    c2 = d.conclusion.union(extra)
    return Proof.defer(c2, lambda: _nested_weaken_now(d, extra, c2))


def _nested_weaken_now(d, extra, c2):
    tag = d.rule
    if isinstance(tag, Box):
        return make_node(c2, Box(tag.principal, tag.side.union(extra)), d.premises)
    if isinstance(tag, Ind):
        raise InternalInvariantError("cannot weaken an induction node")
    return map_premises(d, c2, lambda q, _: _nested_weaken(q, extra))


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _stage_texts():
    """Every corpus stage's window at depth 8, as text."""
    texts = {}
    for name, build in CORPUS.items():
        stages = pipeline(build())
        for stage in STAGES:
            texts[name, stage] = observation_dumps(observe(stages[stage], 8))
    return texts


def test_composed_weakening_gives_the_nested_corpus_stages(monkeypatch):
    with monkeypatch.context() as m:
        composed = _counted(m, cutelim, "_weaken_now")
        want = _stage_texts()
    monkeypatch.setattr(cutelim, "weaken", _nested_weaken)
    monkeypatch.setattr(importlib.import_module("mucut.embed"), "weaken", _nested_weaken)
    nested = _counted(monkeypatch, sys.modules[__name__], "_nested_weaken_now")
    assert _stage_texts() == want
    # the stages force fewer weakening layers once they compose (the
    # nested corpus proof's eliminated stage weakens pending weakenings)
    assert 0 < len(composed) < len(nested)


def _or_base():
    return top_intro(())


def _and_base():
    p1 = atom(1)
    return and_node(
        seq(("and", p1, TOP), natom(1)),
        ("and", p1, TOP),
        ax(seq(p1, natom(1)), p1),
        top_intro((natom(1),)),
    )


def _box_base():
    p1, q1 = atom(1), atom(2)
    prem = ax(seq(p1, negate(p1), q1), p1)
    conc = seq(("dia", p1), ("dia", negate(p1)), ("box", q1), atom(3))
    return box_node(conc, ("box", q1), seq(atom(3)), prem)


def _clo_base():
    m = pf("mu X . (p1 | X)")
    u = substitute(m[1], m)
    leaf = ax(seq(atom(1), m, natom(1)), atom(1))
    return clo_node(seq(m, natom(1)), m, or_node(seq(u, natom(1)), u, leaf))


_BASES = {"or": _or_base, "and": _and_base, "box": _box_base, "clo": _clo_base}


def _extras(k):
    """k weakenings: fresh atoms, one already in every base's conclusion
    or added before, and a Sequent as well as a tuple."""
    out = []
    for i in range(k):
        if i % 3 == 2:
            out.append(seq(atom(20 + i), atom(20)))
        else:
            out.append((atom(20 + i), natom(1)))
    return out


def _chain(weak, d, extras, force_at=None):
    for i, extra in enumerate(extras):
        d = weak(d, extra)
        if i == force_at:
            d.rule
    return d


@pytest.mark.parametrize("base", sorted(_BASES))
@pytest.mark.parametrize("k", range(1, 7))
def test_a_chain_of_weakenings_reads_as_the_nested_chain(base, k):
    for force_at in (None, k // 2):
        got = _chain(weaken, _BASES[base](), _extras(k), force_at)
        want = _chain(_nested_weaken, _BASES[base](), _extras(k), force_at)
        assert got.conclusion == want.conclusion
        assert observation_dumps(observe(got, 8)) == observation_dumps(observe(want, 8))
        assert check_finite(got).ok


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chains_of_weakenings_over_the_corpus_stages(name):
    for stage in ("embedded", "eliminated", "collapsed"):
        for k in (1, 2, 3):
            texts = []
            for weak in (weaken, _nested_weaken):
                d = _chain(weak, pipeline(CORPUS[name]())[stage], _extras(k))
                texts.append(observation_dumps(observe(d, 8)))
            assert texts[0] == texts[1], (name, stage, k)


def _error_paths(o, path="root"):
    """(path, text) of each error leaf of a window, in preorder."""
    out = [(path, o.error)] if o.error is not None else []
    for i, kid in enumerate(o.children):
        out += _error_paths(kid, "%s.%d" % (path, i))
    return out


def _ind_at(depth):
    """A proof whose one induction node sits depth cuts below its root."""
    m = pf("mu X . (p1 | X)")
    d = ind_node(
        seq(negate(m), TOP), m, TOP,
        Proof.defer(seq(negate(pf("(p1 | top)")), TOP), lambda: top_intro(())),
    )
    if depth:
        d = cut_node(seq(TOP), negate(m), d, top_intro((m,)))
    for _ in range(depth - 1):
        d = cut_node(seq(TOP), TOP, d, top_intro((negate(TOP),)))
    return d


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("k", range(1, 7))
def test_a_weakened_induction_node_keeps_its_error_leaf(depth, k):
    got = observe(_chain(weaken, _ind_at(depth), _extras(k)), 8)
    want = observe(_chain(_nested_weaken, _ind_at(depth), _extras(k)), 8)
    path = ".".join(["root"] + ["0"] * depth)
    assert _error_paths(got) == [(path, "cannot weaken an induction node")]
    assert observation_dumps(got) == observation_dumps(want)


@pytest.mark.parametrize("k", range(1, 7))
def test_forcing_a_chain_of_pending_weakenings_weakens_once(monkeypatch, k):
    calls = _counted(monkeypatch, cutelim, "_weaken_now")
    d = _chain(weaken, _or_base(), _extras(k))
    assert calls == []
    d.rule
    assert len(calls) == 1
    base, extra, conclusion, memo = calls[0]
    assert memo is None
    assert base.conclusion == _or_base().conclusion
    assert conclusion == d.conclusion == base.conclusion.union(extra)


@pytest.mark.parametrize("base", sorted(_BASES))
def test_weakening_through_one_memo_gives_one_object(base):
    # an embedding's memo shares its weakenings: equal formulas, as a
    # tuple or a Sequent, or added to a pending weakening, give the object
    # made first; a weakening without the memo, or through another, is new
    d = _BASES[base]()
    memo = {}
    first = weaken(d, (atom(20), natom(1)), memo)
    assert weaken(d, seq(natom(1), atom(20)), memo) is first
    assert weaken(weaken(d, (atom(20),), memo), (natom(1),), memo) is first
    assert weaken(d, (atom(20), natom(1))) is not first
    assert weaken(d, (atom(20), natom(1)), {}) is not first
    assert observation_dumps(observe(first, 8)) == observation_dumps(
        observe(_nested_weaken(d, (atom(20), natom(1))), 8)
    )
