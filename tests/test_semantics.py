"""A semantic soundness oracle: every observed conclusion holds in a fixed
set of small Kripke models.

The judge is local: it checks that each node of a window follows from its
premises, and never sees whether the proof below the window is
well-founded.  S and S-infinity are sound for Kripke semantics (Kozen,
"Results on the propositional mu-calculus", TCS 1983), so a conclusion
that fails in some model shows a wrong transformation however locally
correct its window is.  Extensions are sets of worlds; a fixed point is
reached by iteration, from no world for mu and from every world for nu,
and nub reads as nu.  A sequent holds in a model when every world
satisfies one of its members.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLOSED_MUS
from mucut.checker import SYSTEM_SINF, _labels, check_bounded
from mucut.collapse import STAGES, pipeline
from mucut.corpus import CORPUS, axmu, nested, top_induction_cut
from mucut.proofs import Proof, clo_node, observe
from mucut.sequents import seq
from mucut.syntax import parse_formula as pf, print_form


class Model:
    """Worlds 0..n-1, the successors of each world and the worlds at which
    each of p0-p3 holds; higher atoms hold nowhere."""

    def __init__(self, succ, val):
        self.succ = succ
        self.val = val
        self.worlds = frozenset(range(len(succ)))
        self._ext = {}

    def __repr__(self):
        return "model(R=%s, val=%s)" % (
            [sorted(s) for s in self.succ], [sorted(v) for v in self.val]
        )

    def ext(self, f, x=frozenset()):
        """The worlds at which f holds, the variable read as x."""
        key = (f, x)
        if key not in self._ext:
            self._ext[key] = self._compute(f, x)
        return self._ext[key]

    def _compute(self, f, x):
        t = f[0]
        if t == "atom" or t == "natom":
            at = self.val[f[1]] if f[1] < len(self.val) else frozenset()
            return at if t == "atom" else self.worlds - at
        if t == "var":
            return x
        if t == "and":
            return self.ext(f[1], x) & self.ext(f[2], x)
        if t == "or":
            return self.ext(f[1], x) | self.ext(f[2], x)
        if t == "box" or t == "dia":
            b = self.ext(f[1], x)
            if t == "box":
                return frozenset(w for w in self.worlds if self.succ[w] <= b)
            return frozenset(w for w in self.worlds if self.succ[w] & b)
        s = frozenset() if t == "mu" else self.worlds  # nu and nub alike
        while True:
            nxt = self.ext(f[1], s)
            if nxt == s:
                return s
            s = nxt

    def holds(self, sequent):
        covered = frozenset()
        for f in sequent:
            covered |= self.ext(f)
        return covered == self.worlds


def _models(seed=4, count=60):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        succ = [frozenset(v for v in range(n) if rng.random() < 0.5) for _ in range(n)]
        val = [frozenset(w for w in range(n) if rng.random() < 0.5) for _ in range(4)]
        out.append(Model(succ, val))
    return out


MODELS = _models()


def _countermodel(sequent):
    return next((m for m in MODELS if not m.holds(sequent)), None)


def _observed_conclusions(o):
    """Each node of a window with the judge's path to it, over a stack."""
    todo = [(o, "root")]
    while todo:
        node, path = todo.pop()
        assert node.error is None, "%s: error leaf %s" % (path, node.error)
        yield path, node
        for label, child in zip(_labels(node), node.children):
            todo.append((child, "%s.%s" % (path, label)))


def test_the_models_vary():
    sizes = {len(m.worlds) for m in MODELS}
    assert sizes == {1, 2, 3}
    assert any(m.val[0] and m.val[0] != m.worlds for m in MODELS)
    assert any(not any(m.succ) for m in MODELS)


def test_oracle_semantics():
    # p1 on world 0 only, p3 on both, 0 -> 1 and 1 -> 1
    none, both = frozenset(), frozenset({0, 1})
    m = Model([frozenset({1}), frozenset({1})], [none, frozenset({0}), none, both])
    assert m.ext(pf("p1")) == {0}
    assert m.ext(pf("<> p1")) == frozenset()
    assert m.ext(pf("[] ~p1")) == {0, 1}
    assert m.ext(pf("p3")) == {0, 1}
    assert m.ext(pf("p4")) == frozenset()  # an atom past p3 holds nowhere
    assert m.ext(pf("mu X . X")) == frozenset()
    assert m.ext(pf("nu X . X")) == {0, 1}
    assert m.ext(pf("nub X . X")) == {0, 1}
    # reachability of p1 (mu) against staying in ~p1 forever (nu)
    assert m.ext(pf("mu X . (p1 | <> X)")) == {0}
    assert m.ext(pf("nu X . (~p1 & <> X)")) == {1}
    assert m.holds(seq(pf("p1"), pf("~p1")))
    assert not m.holds(seq(pf("p1")))
    assert not m.holds(seq())


@pytest.mark.parametrize("name", list(CORPUS))
def test_every_observed_conclusion_holds_in_every_model(name):
    stages = pipeline(CORPUS[name]())
    paths = []
    for stage in STAGES:
        for path, node in _observed_conclusions(observe(stages[stage], 6)):
            m = _countermodel(node.conclusion)
            assert m is None, "%s stage %s at %s: %r fails in %r" % (
                name, stage, path, node.conclusion, m
            )
            paths.append(path)
    # the outputs of nested's families are judged too
    assert any(".p0" in path for path in paths) == (name == "nested")


# The corpus builders of generated S proofs: the level-n nested cuts, and
# the fixed-point axiom and the top-invariant induction cut on a drawn mu.
_BUILT = st.one_of(
    st.builds(lambda n: ("nested(%d)" % n, nested(n)), st.integers(2, 5)),
    st.builds(lambda m: ("axmu on %s" % print_form(m), axmu(m)), CLOSED_MUS),
    st.builds(
        lambda m: ("ind-cut on %s" % print_form(m), top_induction_cut(m)), CLOSED_MUS
    ),
)


@settings(deadline=None, max_examples=40)
@given(_BUILT)
def test_every_observed_sequent_of_a_built_proof_holds_in_every_model(built):
    # stages share proof objects, so a wrong share would show here as a
    # conclusion that fails in some model; family outputs are observed too
    name, p = built
    stages = pipeline(p)
    for stage in STAGES:
        for path, node in _observed_conclusions(observe(stages[stage], 6, (0, 1, 2, 3))):
            m = _countermodel(node.conclusion)
            assert m is None, "%s stage %s at %s: %r fails in %r" % (
                name, stage, path, node.conclusion, m
            )


def _clo_loop():
    """{mu X . X} derived from itself by clo, forever."""
    m = pf("mu X . X")
    p = Proof.defer(seq(m), lambda: clo_node(seq(m), m, p))
    return p


@pytest.mark.parametrize("depth", [3, 6, 12])
def test_the_judge_accepts_a_loop_the_oracle_refutes(depth):
    # every node of the loop is a correct clo step, so the local judge
    # passes it at every depth; its conclusion holds in no model
    p = _clo_loop()
    assert check_bounded(p, SYSTEM_SINF, depth).ok
    one_world = Model([frozenset({0})], [frozenset({0})] * 4)
    assert not one_world.holds(p.conclusion)
    assert _countermodel(p.conclusion) is not None
