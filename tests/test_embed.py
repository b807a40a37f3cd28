"""Embedding finite proofs into the intermediate systems: identity laws,
monotonicity, un-priming, induction conversion, and the full translation."""

from __future__ import annotations

import gc
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucut.checker import (
    check_bounded,
    check_observation,
    level_bound,
    omega_system,
)
from mucut.corpus import CORPUS, lemma_suite
from mucut.cutelim import weaken
from mucut.embed import (
    apply_sigma,
    deprime,
    embed,
    identity_mu,
    identity_mu_primed,
    ind_to_omega,
    monotone,
    monotone_primed,
)
from mucut.errors import InternalInvariantError
from mucut.kernel import TOP, atom, level, negate, prime, substitute
from mucut.proofs import (
    AxiomMu,
    Box,
    DeltaFam,
    Ind,
    Nu,
    Omega,
    OmegaBarPrem,
    OmegaFam,
    and_node,
    ax,
    axmu_node,
    box_node,
    is_cut_free_observed,
    observation_errors,
    observation_rules,
    observe,
    omega_phi,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent, seq
from mucut.sexpr import observation_dumps
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


def test_identity_mu():
    p = identity_mu(M1, 1)
    assert p.conclusion == seq(M1, negate(M1))
    assert isinstance(p.rule, Nu)
    assert is_cut_free_observed(p, 6)
    assert check_bounded(p, _sys(M1), 6).ok


def test_identity_mu_reaches_a_far_approximant():
    # the chain of approximant derivations is built in index order, so
    # premise 3000 needs no stack frame per index below it
    m = pf("mu X . X")
    o = observe(identity_mu(m, 1), 4, (3000,))
    assert observation_errors(o) == []
    assert o.children[0].conclusion == seq(m, TOP)
    assert check_observation(o, omega_system(1), 4).ok


def test_identity_mu_rejects_bad_input():
    with pytest.raises(InternalInvariantError):
        identity_mu(TOP, 1)
    with pytest.raises(InternalInvariantError):
        identity_mu(pf("mu X . mu X . X"), 0)  # level above the index


def test_identity_mu_primed():
    p = identity_mu_primed(M1, 1)
    assert p.conclusion == seq(M1, prime(negate(M1)))
    tag = p.rule
    assert isinstance(tag, Omega)
    assert tag.h == 1
    assert tag.target == prime(M1)
    assert is_cut_free_observed(p, 6)
    assert check_bounded(p, _sys(M1), 6).ok


def test_monotone():
    d = identity_mu(M1, 1)
    a = M1[1]  # the operator p1 | X
    p = monotone(d, a, negate(M1), M1, 1)
    assert p.conclusion == seq(
        substitute(negate(a), negate(M1)), substitute(a, M1)
    )
    assert check_bounded(p, _sys(M1), 6).ok
    with pytest.raises(InternalInvariantError):
        monotone(top_intro(()), a, negate(M1), M1, 1)


def test_monotone_primed():
    d = identity_mu_primed(M1, 1)
    nbody = negate(M1)[1]
    p = monotone_primed(d, nbody, M1, negate(M1), 1)
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
        d, b, c = identity_mu_primed(M1, 1), M1, negate(M1)
    elif law:
        d, b, c = identity_mu(M1, 1), negate(M1), M1
    else:
        b, c = atom(3), negate(atom(3))
        d = ax(seq(b, c), b)
    k = max(1, level(a))
    build = monotone_primed if primed else monotone
    p = build(d, a, b, c, k)
    a_c = substitute(a, c)
    assert p.conclusion == seq(
        substitute(negate(a), b), prime(a_c) if primed else a_c
    )
    o = observe(p, 8)
    assert check_observation(o, omega_system(k), 8).ok
    assert any(isinstance(t, Box) and t.side for t in observation_rules(o))


def _weakened_monotone(d, a, b, c, k, primed):
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
        ih = _weakened_monotone(d, a[1], b, c, k, primed)
        return box_node(out, ac if t == "box" else nb, Sequent(), ih)
    if t == "mu":
        return identity_mu(img(a), k)
    if t == "nu" and not primed:
        return identity_mu(negate(a), k)
    if t in ("nu", "nub"):
        return identity_mu_primed(negate(a), k)
    p, q = (ac, nb) if t == "and" else (nb, ac)
    prems = [
        or_node(
            seq(p[j], q),
            q,
            weaken(_weakened_monotone(d, a[j], b, c, k, primed), seq(q[3 - j])),
        )
        for j in (1, 2)
    ]
    return and_node(out, p, *prems)


@settings(deadline=None, max_examples=100)
@given(_ROOTED, st.booleans())
def test_monotone_in_context_is_the_weakened_proof(a, primed):
    # the same proof, node for node, as weakening every premise
    d, b, c = identity_mu(M1, 1), negate(M1), M1
    if primed:
        d, b, c = identity_mu_primed(M1, 1), M1, negate(M1)
    build = monotone_primed if primed else monotone
    texts = [
        observation_dumps(observe(p, 8))
        for p in (build(d, a, b, c, 1), _weakened_monotone(d, a, b, c, 1, primed))
    ]
    assert texts[0] == texts[1]


def test_monotone_weakens_only_at_the_leaves(monkeypatch):
    # an and/or node builds its premises in their final context, so the
    # shared input d is weakened at most once per occurrence of the
    # variable, and no node above it is
    calls = []

    def counting(d, extra):
        calls.append(extra)
        return weaken(d, extra)

    monkeypatch.setattr(EMBED, "weaken", counting)
    d = identity_mu(M1, 1)
    a = parse_form("(((X & p1) | ~p2) & (X | <> (p1 & X)))")
    p = monotone(d, a, negate(M1), M1, 1)
    assert len(calls) <= 3
    # forcing the identity law d builds its own monotonicity steps
    assert check_bounded(p, _sys(M1), 8).ok


def test_deprime():
    d = identity_mu_primed(M1, 1)
    n = negate(M1)
    out = deprime(d, n, 1)
    assert out.conclusion == seq(M1, n)
    assert check_bounded(out, _sys(M1), 6).ok
    assert is_cut_free_observed(out, 6)
    # no-ops: target not primed in the conclusion, or priming is identity
    assert deprime(d, M1, 1) is d
    d2 = top_intro(())
    assert deprime(d2, TOP, 1) is d2


def test_ind_to_omega():
    m = M1
    b = TOP
    cf = substitute(m[1], b)
    ncf_p = prime(negate(cf))
    asm1 = top_intro((ncf_p,))  # proves ~(A(top))', top
    asm2 = top_intro((ncf_p,))  # prime(top) == top
    o1, o2 = ind_to_omega(asm1, asm2, m, b, 1)
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


def test_embed_endsequents_and_rules():
    for name, build in CORPUS.items():
        p = build()
        k = max(1, level_bound(p))
        emb = embed(p, (), k)
        assert emb.conclusion == p.conclusion
        o = observe(emb, 6)
        tags = observation_rules(o)
        assert not any(isinstance(t, (Ind, AxiomMu)) for t in tags), name
        assert check_bounded(emb, omega_system(k), 6).ok, name


def test_embed_with_selection():
    p = CORPUS["axmu"]()
    m = pf("mu X . (p1 | X)")
    emb = embed(p, (m,), 1)
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
        windows.append(observe(identity_mu(m, level(m)), 6))
        windows.append(observe(identity_mu_primed(m, max(1, level(m))), 6))
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
# the identity laws of one embedding

EMBED = importlib.import_module("mucut.embed")


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
        requests.append((args[1:3], out))
        return out

    def building(mu, k, laws):
        builds.append((mu, k))
        return build(mu, k, laws)

    monkeypatch.setattr(EMBED, "_law", requesting)
    monkeypatch.setattr(EMBED, "_identity_mu", building)
    assert _mutable_state(EMBED) == []
    runs = []
    for _ in range(2):
        del requests[:], builds[:]
        emb = embed(p, (), 2)
        assert observation_errors(observe(emb, 10)) == []
        # one build and one object per (mu, k), however often asked for
        assert len(builds) == len(set(builds)) >= 2
        assert len(requests) > len(builds)
        one = {}
        for key, out in requests:
            assert one.setdefault(key, out) is out, key
        runs.append((emb, _forced(emb)))
    assert _mutable_state(EMBED) == []
    # the two embeddings share no proof object
    (_, first), (_, second) = runs
    assert len(first) > 40
    assert first.keys().isdisjoint(second.keys())


def test_a_dropped_embedding_leaves_no_cyclic_garbage():
    # the memo and the laws whose thunks hold it form a cycle until the
    # embedding's root is freed
    p = _two_axioms()
    gc.collect()
    gc.disable()
    try:
        emb = embed(p, (), 2)
        assert observation_errors(observe(emb, 10)) == []
        law = identity_mu(pf("mu X . (p1 | mu X . (p2 | [] X))"), 2)
        assert observation_errors(observe(law, 10)) == []
        del emb, law
        assert gc.collect() == 0
    finally:
        gc.enable()
