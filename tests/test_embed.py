"""Embedding finite proofs into the intermediate systems: identity laws,
monotonicity, un-priming, induction conversion, and the full translation."""

from __future__ import annotations

import gc
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLOSED_MUS, fresh_window
from mucut.checker import (
    check_bounded,
    check_finite,
    check_observation,
    level_bound,
    omega_system,
)
from mucut.collapse import pipeline, verdict
from mucut.corpus import (
    CORPUS,
    axmu,
    cut_chain,
    cut_tree,
    lemma_suite,
    nested,
    top_induction_cut,
)
from mucut.cutelim import eliminate, weaken
from mucut.embed import (
    apply_sigma,
    deprime,
    embed,
    identity_mu,
    identity_mu_primed,
    ind_to_omega,
    monotone,
    monotone_primed,
    subst_context,
)
from mucut.errors import InternalInvariantError
from mucut.kernel import TOP, atom, is_l0, level, natom, negate, prime, substitute
from mucut.proofs import (
    AxiomMu,
    Box,
    Cut,
    DeltaFam,
    Ind,
    Nu,
    Omega,
    OmegaBarPrem,
    OmegaFam,
    SINF_TAGS,
    and_node,
    ax,
    axmu_node,
    box_node,
    cut_node,
    ind_node,
    is_cut_free_observed,
    make_node,
    observation_errors,
    observation_rules,
    observe,
    omega_phi,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, seq
from mucut.sexpr import observation_dumps, proof_dumps
from mucut.syntax import parse_form
from mucut.syntax import parse_formula as pf

M1 = pf("mu X . (p1 | X)")


def _sys(m):
    return omega_system(max(1, level(m)))


def test_apply_sigma():
    n = pf("nu X . (p1 & X)")
    s = seq(n, atom(2))
    assert apply_sigma(s, frozenset()) == s
    assert apply_sigma(s, frozenset((n,))) == seq(prime(n), atom(2))
    assert apply_sigma(s, frozenset(s)) == seq(prime(n), atom(2))


def test_apply_sigma_refuses_a_selection_outside_the_sequent():
    n = pf("nu X . (p1 & X)")
    with pytest.raises(ValueError) as exc:
        apply_sigma(seq(n, atom(2)), frozenset((n, atom(3))))
    assert str(exc.value) == "selection outside the sequent: [('atom', 3)]"


def test_identity_mu():
    p = identity_mu(M1)
    assert p.conclusion == seq(M1, negate(M1))
    assert isinstance(p.rule, Nu)
    assert is_cut_free_observed(p, 6)
    assert check_bounded(p, _sys(M1), 6).ok


def test_identity_mu_reaches_a_far_approximant():
    # the chain of approximant derivations is built in index order, so
    # premise 3000 needs no stack frame per index below it
    m = pf("mu X . X")
    o = observe(identity_mu(m), 4, (3000,))
    assert observation_errors(o) == []
    assert o.children[0].conclusion == seq(m, TOP)
    assert check_observation(o, omega_system(1), 4).ok


def test_identity_mu_rejects_bad_input():
    with pytest.raises(InternalInvariantError):
        identity_mu(TOP)


def test_identity_mu_primed():
    p = identity_mu_primed(M1)
    assert p.conclusion == seq(M1, prime(negate(M1)))
    tag = p.rule
    assert isinstance(tag, Omega)
    assert tag.h == 1
    assert tag.target == prime(M1)
    assert is_cut_free_observed(p, 6)
    assert check_bounded(p, _sys(M1), 6).ok


def test_monotone():
    d = identity_mu(M1)
    a = M1[1]  # the operator p1 | X
    p = monotone(d, a, negate(M1), M1)
    assert p.conclusion == seq(
        substitute(negate(a), negate(M1)), substitute(a, M1)
    )
    assert check_bounded(p, _sys(M1), 6).ok
    with pytest.raises(InternalInvariantError):
        monotone(top_intro(()), a, negate(M1), M1)


def test_monotone_primed():
    d = identity_mu_primed(M1)
    nbody = negate(M1)[1]
    p = monotone_primed(d, nbody, M1, negate(M1))
    assert p.conclusion == seq(
        substitute(negate(nbody), M1),
        prime(substitute(nbody, negate(M1))),
    )
    assert check_bounded(p, _sys(M1), 6).ok


# One-variable operators whose leaves are the variable, literals and
# closed binders of both kinds, with a box or diamond under an and/or at the
# root, so that a box rule gets a context for its side.
_LEAVES = st.sampled_from(
    [("var",), atom(1), negate(atom(2)), M1, pf("nu X . (p2 & [] X)")]
)
_OPS = st.recursive(
    _LEAVES,
    lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub)
    | st.tuples(st.sampled_from(["box", "dia"]), sub),
    max_leaves=6,
)
_ROOTED = st.builds(
    lambda t, m, under, other: (t, (m, under), other),
    st.sampled_from(["and", "or"]),
    st.sampled_from(["box", "dia"]),
    _OPS,
    _OPS,
)


@settings(deadline=None, max_examples=100)
@given(_ROOTED, st.booleans(), st.booleans())
def test_monotone_in_context(a, primed, law):
    # d proves b, c (b, c' when primed): an axiom or an identity law
    if law and primed:
        d, b, c = identity_mu_primed(M1), M1, negate(M1)
    elif law:
        d, b, c = identity_mu(M1), negate(M1), M1
    else:
        b, c = atom(3), negate(atom(3))
        d = ax(seq(b, c), b)
    k = max(1, level(a))
    build = monotone_primed if primed else monotone
    p = build(d, a, b, c)
    a_c = substitute(a, c)
    assert p.conclusion == seq(
        substitute(negate(a), b), prime(a_c) if primed else a_c
    )
    o = observe(p, 8)
    assert check_observation(o, omega_system(k), 8).ok
    assert any(isinstance(t, Box) and t.side for t in observation_rules(o))


def _weakened_monotone(d, a, b, c, primed):
    """Monotonicity built the plain way: each case in its own two
    formulas, an and/or premise weakened by the one formula it adds."""
    img = prime if primed else (lambda f: f)
    t = a[0]
    if t == "var":
        return d
    nb, ac = substitute(negate(a), b), img(substitute(a, c))
    out = seq(nb, ac)
    if t in ("atom", "natom"):
        return ax(out, a if t == "atom" else negate(a))
    if t in ("box", "dia"):
        ih = _weakened_monotone(d, a[1], b, c, primed)
        return box_node(out, ac if t == "box" else nb, Sequent(), ih)
    if t == "mu":
        return identity_mu(img(a))
    if t == "nu" and not primed:
        return identity_mu(negate(a))
    if t in ("nu", "nub"):
        return identity_mu_primed(negate(a))
    p, q = (ac, nb) if t == "and" else (nb, ac)
    prems = [
        or_node(
            seq(p[j], q),
            q,
            weaken(_weakened_monotone(d, a[j], b, c, primed), seq(q[3 - j])),
        )
        for j in (1, 2)
    ]
    return and_node(out, p, *prems)


@settings(deadline=None, max_examples=100)
@given(_ROOTED, st.booleans())
def test_monotone_in_context_is_the_weakened_proof(a, primed):
    # the same proof, node for node, as weakening every premise
    d, b, c = identity_mu(M1), negate(M1), M1
    if primed:
        d, b, c = identity_mu_primed(M1), M1, negate(M1)
    build = monotone_primed if primed else monotone
    texts = [
        observation_dumps(observe(p, 8))
        for p in (build(d, a, b, c), _weakened_monotone(d, a, b, c, primed))
    ]
    assert texts[0] == texts[1]


def test_monotone_weakens_only_at_the_leaves(monkeypatch):
    # an and/or node builds its premises in their final context, so the
    # shared input d is weakened at most once per occurrence of the
    # variable, and no node above it is
    calls = []

    def counting(d, extra, memo=None):
        calls.append(extra)
        return weaken(d, extra, memo)

    monkeypatch.setattr(EMBED, "weaken", counting)
    d = identity_mu(M1)
    a = parse_form("(((X & p1) | ~p2) & (X | <> (p1 & X)))")
    p = monotone(d, a, negate(M1), M1)
    assert len(calls) <= 3
    # forcing the identity law d builds its own monotonicity steps
    assert check_bounded(p, _sys(M1), 8).ok


def test_deprime():
    d = identity_mu_primed(M1)
    n = negate(M1)
    out = deprime(d, n)
    assert out.conclusion == seq(M1, n)
    assert check_bounded(out, _sys(M1), 6).ok
    assert is_cut_free_observed(out, 6)
    # no-ops: target not primed in the conclusion, or priming is identity
    assert deprime(d, M1) is d
    d2 = top_intro(())
    assert deprime(d2, TOP) is d2


def _carrying(f, law):
    """A cut, an ind and an axmu node, each with f in its conclusion; law
    proves ~f, f, the premise of the ind node, which has f as invariant."""
    mu = pf("mu X . X")
    return {
        "cut": cut_node(
            seq(TOP, f), atom(1), top_intro((f, atom(1))), top_intro((f, natom(1)))
        ),
        "ind": ind_node(seq(negate(mu), f), mu, f, law),
        "axmu": axmu_node(seq(mu, negate(mu), f), mu),
    }


_REFUSALS = {
    "cut": "^{} requires a cut-free derivation$",
    "ind": "^finitary-only rule inside an intermediate-system derivation$",
    "axmu": "^finitary-only rule inside an intermediate-system derivation$",
}


@pytest.mark.parametrize("rule", sorted(_REFUSALS))
def test_the_cut_free_rewriters_refuse_finitary_rules_and_cuts(rule):
    # un-priming and context substitution rewrite cut-free derivations of
    # the intermediate systems; forced over a node that carries the
    # formula they rewrite, a cut or a finitary-only rule is refused
    want = _REFUSALS[rule]
    a = negate(M1)
    unprimed = deprime(_carrying(prime(a), identity_mu_primed(M1))[rule], a)
    with pytest.raises(InternalInvariantError, match=want.format("un-priming")):
        unprimed.rule  # noqa: B018 - forcing the root rewrites it
    asm = top_intro((prime(negate(substitute(M1[1], TOP))),))
    d = _carrying(M1, identity_mu(M1))[rule]
    substituted = subst_context(d, {M1: frozenset(("s1",))}, asm, asm, M1, TOP)
    with pytest.raises(InternalInvariantError, match=want.format("context substitution")):
        substituted.rule  # noqa: B018 - forcing the root rewrites it


def test_ind_to_omega():
    m = M1
    b = TOP
    cf = substitute(m[1], b)
    ncf_p = prime(negate(cf))
    asm1 = top_intro((ncf_p,))  # proves ~(A(top))', top
    asm2 = top_intro((ncf_p,))  # prime(top) == top
    o1, o2 = ind_to_omega(asm1, asm2, m, b)
    phi = omega_phi(prime(m))
    assert o1.conclusion == Sequent((phi, b))
    assert o2.conclusion == Sequent((phi, prime(b)))
    assert isinstance(o1.rule, Omega)
    assert check_bounded(o1, omega_system(1), 4).ok
    assert check_bounded(o2, omega_system(1), 4).ok


def test_embed_rejects_stray_selection():
    e1 = CORPUS["ind-top"]()
    with pytest.raises(ValueError):
        embed(e1, sel=(atom(9),))


@pytest.mark.parametrize("one, zero", [(True, False), (1.0, 0.0)])
@pytest.mark.parametrize("part", ["mu", "b"])
def test_embed_refuses_bad_atoms_in_an_ind_node(one, zero, part):
    # ("atom", True) == ("atom", 1), so an ind node whose formulas hold
    # such atoms has the conclusion of a valid one, and with the memos
    # warm from that one, negate and prime answer it without a check
    mu = ("mu", ("or", atom(1), ("var",)))
    good = top_induction_cut(mu).premises[1]
    assert isinstance(good.rule, Ind)
    observe(embed(good), 6, (0, 1, 2))
    bad_mu = ("mu", ("or", ("atom", one), ("var",)))
    bad_top = ("or", ("atom", zero), TOP[2])
    tag = Ind(bad_mu, TOP) if part == "mu" else Ind(mu, bad_top)
    assert tag == good.rule
    forged = embed(make_node(good.conclusion, tag, good.premises))
    with pytest.raises(ValueError, match="bad atom"):
        forged.rule  # noqa: B018 - forcing the embedded root builds it


def test_embed_endsequents_and_rules():
    for name, build in CORPUS.items():
        p = build()
        k = max(1, level_bound(p))
        emb = embed(p)
        assert emb.conclusion == p.conclusion
        o = observe(emb, 6)
        tags = observation_rules(o)
        assert not any(isinstance(t, (Ind, AxiomMu)) for t in tags), name
        assert check_bounded(emb, omega_system(k), 6).ok, name


def test_embed_with_selection():
    p = CORPUS["axmu"]()
    m = pf("mu X . (p1 | X)")
    emb = embed(p, (m,))
    assert emb.conclusion == apply_sigma(p.conclusion, frozenset((m,)))
    assert prime(m) in emb.conclusion
    assert check_bounded(emb, omega_system(1), 6).ok


def test_lemma_suite_is_well_formed():
    suite = lemma_suite()
    assert len(suite) == 12
    assert all(m[0] == "mu" for m in suite)
    assert {level(m) for m in suite} == {1, 2}


def test_embedded_conclusions_are_canonical_checked_sequents():
    # embed builds some sequents from kernel-derived formulas without
    # checking them; every one must equal the sequent rebuilt with checks
    windows = []
    for build in CORPUS.values():
        p = build()
        forms = p.conclusion.forms
        for r in range(len(forms) + 1):
            windows.append(observe(embed(p, forms[:r]), 6))
    for m in lemma_suite():
        windows.append(observe(identity_mu(m), 6))
        windows.append(observe(identity_mu_primed(m), 6))
    seen = 0
    for o in windows:
        todo = [o]
        while todo:
            w = todo.pop()
            if w.conclusion is not None:
                assert w.conclusion == Sequent(w.conclusion.forms)
                seen += 1
            todo.extend(w.children)
    assert seen > 400


# ---------------------------------------------------------------------------
# the identity laws and weakenings of one embedding

EMBED = importlib.import_module("mucut.embed")
CUTELIM = importlib.import_module("mucut.cutelim")
# an unfold-shaped input: the fixed-point axiom on a level-2 mu, observed
# at the benchmark's depth and samples
_LEVEL_2 = pf("mu X . (X | nu X . (p1 & X))")
_UNFOLD = (12, (0, 1, 2, 3))


def _forced(p):
    """Every proof object reachable from p through nodes, premises and
    family outputs forced so far, including witnesses."""
    seen, todo = {}, [p]
    while todo:
        q = todo.pop()
        if id(q) in seen:
            continue
        seen[id(q)] = q
        node = q._node
        if node is None:
            continue
        prem = node[1]
        if isinstance(prem, OmegaBarPrem):
            todo.append(prem.first)
            prem = prem.fam
        if isinstance(prem, OmegaFam):
            todo.extend(prem._memo.values())
        elif isinstance(prem, DeltaFam):
            for witness, out in prem._memo.values():
                todo += (witness, out)
        else:
            todo.extend(prem)
    return seen


def _mutable_state(module):
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("__")
        and (
            isinstance(value, (dict, list, set, bytearray))
            or getattr(value, "__module__", None) == module.__name__
            and hasattr(value, "cache_info")
        )
    )


def _two_axioms():
    """An and over two identity axioms on one mu formula whose body has a
    nested binder: the law of the nested binder is asked for at every
    approximant of the outer law."""
    m = pf("mu X . (p1 | mu X . (p2 | [] X))")
    leaf = axmu_node(seq(m, negate(m)), m)
    f = ("and", m, m)
    return and_node(seq(f, negate(m)), f, leaf, leaf)


def test_identity_laws_are_built_once_per_embedding(monkeypatch):
    p = _two_axioms()
    requests, builds = [], []
    law, build = EMBED._law, EMBED._identity_mu

    def requesting(*args):
        out = law(*args)
        requests.append((args[:2], out))
        return out

    def building(mu, laws):
        builds.append(mu)
        return build(mu, laws)

    monkeypatch.setattr(EMBED, "_law", requesting)
    monkeypatch.setattr(EMBED, "_identity_mu", building)
    assert _mutable_state(EMBED) == []
    runs = []
    for _ in range(2):
        del requests[:], builds[:]
        emb = embed(p)
        assert observation_errors(observe(emb, 10)) == []
        # one build and one object per (build, mu), however often asked for
        assert len(builds) == len(set(builds)) >= 2
        assert len(requests) > len(builds)
        one = {}
        for key, out in requests:
            assert one.setdefault(key, out) is out, key
        runs.append((emb, _forced(emb)))
    assert _mutable_state(EMBED) == []
    # the two embeddings share no proof object
    (_, first), (_, second) = runs
    assert len(first) > 30
    assert first.keys().isdisjoint(second.keys())


def _shared_weakenings(monkeypatch):
    """The ids of the weakenings that weaken hands out through a memo from
    now on, one per request: an id met twice is a memo hit.  The memo
    keeps each one alive, so no id is reused while its embedding lives."""
    ids, real = [], CUTELIM.weaken

    def sharing(d, extra, memo=None):
        out = real(d, extra, memo)
        if memo is not None and out is not d:
            ids.append(id(out))
        return out

    monkeypatch.setattr(CUTELIM, "weaken", sharing)
    monkeypatch.setattr(EMBED, "weaken", sharing)
    return ids


def test_a_dropped_embedding_leaves_no_cyclic_garbage(monkeypatch):
    # the memo and the laws and weakenings whose thunks hold it form a
    # cycle until the embedding's root is freed
    p = _two_axioms()
    shared = _shared_weakenings(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        emb = embed(p)
        assert observation_errors(observe(emb, 10)) == []
        law = identity_mu(pf("mu X . (p1 | mu X . (p2 | [] X))"))
        assert observation_errors(observe(law, 10)) == []
        del shared[:]
        unfold = embed(axmu(_LEVEL_2))
        assert observation_errors(observe(unfold, *_UNFOLD)) == []
        assert len(shared) > len(set(shared))  # the weakening memo hits
        del emb, law, unfold
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_embedding_weakens_each_proof_by_each_context_once(monkeypatch):
    # monotonicity weakens one link or law by one context at each
    # approximant that asks for it, and a weakening's premises are
    # weakened in turn: one embedding shares each such weakening, so
    # observing its embedded stage forces one per (proof, formulas) pair
    calls, real = [], CUTELIM._weaken_now

    def counting(*args):
        calls.append(args[:2])  # holding the proof, so no id is reused
        return real(*args)

    monkeypatch.setattr(CUTELIM, "_weaken_now", counting)
    assert level(_LEVEL_2) == 2
    assert observation_errors(observe(embed(axmu(_LEVEL_2)), *_UNFOLD)) == []
    pairs = {(id(d), extra) for d, extra in calls}
    assert len(calls) == len(pairs) >= 30, (len(calls), len(pairs))


def test_two_embeddings_share_no_weakening(monkeypatch):
    shared = _shared_weakenings(monkeypatch)
    runs = []
    for _ in range(2):
        del shared[:]
        emb = embed(axmu(_LEVEL_2))
        observe(emb, *_UNFOLD)
        runs.append((emb, set(shared)))
    (_, first), (_, second) = runs
    assert first and second and first.isdisjoint(second)


def _cuts_reversed(p):
    """The finite proof p with the premises of every cut in the other order."""
    premises = tuple(_cuts_reversed(q) for q in p.premises)
    if isinstance(p.rule, Cut):
        premises = premises[::-1]
    return make_node(p.conclusion, p.rule, premises)


_CUT_INPUTS = {
    "cut-tree": lambda: cut_tree([atom(1), natom(2), atom(3)]),
    "cut-chain": lambda: cut_chain([atom(1), natom(2), atom(3)]),
    "nested(2)": lambda: nested(2),
    "nested(3)": lambda: nested(3),
    "top-cut": CORPUS["top-cut"],
    "ind-top": CORPUS["ind-top"],
}


@pytest.mark.parametrize("name", _CUT_INPUTS)
def test_the_order_of_cut_premises_changes_nothing(name):
    # the checker takes a cut's premises in either order and embed puts
    # the one with the cut formula first, so every stage text, every
    # reduction step and the verdict are those of the input as built
    p = _CUT_INPUTS[name]()
    q = _cuts_reversed(p)
    assert check_finite(q).ok
    assert (proof_dumps(q) != proof_dumps(p)) == (name != "ind-top")
    runs = []
    for d in (p, q):
        steps = []
        stages = pipeline(d, trace=lambda *step: steps.append(step))
        texts = [observation_dumps(observe(s, 6)) for s in stages.values()]
        runs.append((texts, steps, verdict(d, stages, 6).passed))
    assert runs[0] == runs[1]
    assert runs[0][2]


# ---------------------------------------------------------------------------
# the plain mark


def _sinf_window(q):
    """Whether every node of q's depth-6 window, samples 0-3, made
    afresh, has a rule of S-infinity."""
    o = fresh_window(q, 6, (0, 1, 2, 3))
    return not observation_errors(o) and all(
        isinstance(r, SINF_TAGS) for r in observation_rules(o)
    )


@settings(deadline=None, max_examples=40)
@given(CLOSED_MUS, st.sampled_from([atom(1), natom(2), TOP, pf("nu X . [] X")]))
def test_the_plain_builders_mark_only_sinf_proofs(mu, extra):
    law, top = identity_mu(mu), top_intro((mu,))
    marked = [
        law, top, weaken(law, (extra,)), weaken(weaken(top, (extra,)), (negate(mu),)),
        embed(axmu(mu)),
    ]
    for q in marked:
        assert q.plain
        assert _sinf_window(q)
    # a law on a formula with a nub subformula, and proofs holding a cut
    # or a replacement rule, are never marked
    nub = prime(("mu", ("or", negate(mu), ("var",))))
    assert not is_l0(nub)
    unmarked = [
        identity_mu(nub),
        identity_mu_primed(mu),
        weaken(identity_mu_primed(mu), (extra,)),
        embed(axmu(nub)),
        embed(axmu(mu), (mu,)),
        embed(top_induction_cut(mu)),
        eliminate(embed(top_induction_cut(mu))),
        cut_node(seq(TOP), atom(1), top_intro((atom(1),)), top_intro((natom(1),))),
    ]
    for q in unmarked:
        assert not q.plain


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_marked_proof_a_pipeline_reaches_has_sinf_rules(n):
    # every proof object the windows of nested(n) force, witnesses and
    # family outputs included, that carries the mark
    stages = pipeline(nested(n))
    for stage in stages.values():
        observe(stage, 8, (0, 1, 2, 3))
    marked = [q for q in _forced(stages["embedded"]).values() if q.plain]
    assert len(marked) > 10
    assert all(_sinf_window(q) for q in marked)
