"""Laws relating the windows of one proof, each a metamorphic test: the
window at one setting of observe is computed from the window at another
by a helper here, and the two must be written alike.

1. Prefix in depth: the depth-d window is the depth-(d+1) window cut at
   depth d, each node there with the marks observe gives at depth 0.
2. Restriction in samples: the window at samples (0, 2) is the window at
   (0, 1, 2) with its other omega-premises dropped.
3. Probes: the probe-budget-0 window is the probe-budget-1 window with
   its family outputs dropped.

They run over every corpus proof and nested(2..5), in all four stages,
and as a property over drawn proofs of the corpus builders, on drawn and
small-scope mu formulas.  A window is a tree over shared subwindows (a
subproof met twice is one window), and a stale share would show here."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLOSED_MUS
from test_small_scope import small_mu_formulas
from mucut.collapse import pipeline
from mucut.corpus import CORPUS, axmu, nested, top_induction_cut
from mucut.proofs import Nu, Observation, Omega, OmegaBar, observe
from mucut.sexpr import observation_dumps

BUILDERS = dict(CORPUS) | {"nested(%d)" % n: partial(nested, n) for n in range(2, 6)}


def _like(o, children, sampled, probes, truncated=None):
    """o with other children, samples, probes and, if given, truncation."""
    return Observation(
        o.conclusion, o.rule, children, o.truncated if truncated is None else truncated,
        sampled, probes, o.error,
    )


def _cut(o, depth):
    """The window o cut at depth."""
    if o.error is not None:
        return o
    if depth > 0:
        kids = tuple(_cut(c, depth - 1) for c in o.children)
        return _like(o, kids, o.sampled, o.probes)
    if isinstance(o.rule, Nu):
        return _like(o, (), (), None, True)
    if isinstance(o.rule, (Omega, OmegaBar)):
        return _like(o, (), None, (), True)
    return _like(o, (), None, None, bool(o.children))


def _restrict(o, keep):
    """The window o without the omega-premises whose index is not in keep."""
    kids, sampled = o.children, o.sampled
    if sampled:
        kids = [c for i, c in zip(sampled, kids) if i in keep]
        sampled = tuple(i for i in sampled if i in keep)
    return _like(o, tuple(_restrict(c, keep) for c in kids), sampled, o.probes)


def _unprobed(o):
    """The window o without the outputs its families gave on their probes
    (a family's output is the last child of a node with a probe)."""
    kids, probes = o.children, o.probes
    if probes:
        kids, probes = kids[:-1], ()
    return _like(o, tuple(map(_unprobed, kids)), o.sampled, probes)


def _stages(name):
    return pipeline(BUILDERS[name]()).items()


def _text(p, depth, samples=(0, 1, 2), probe_budget=1):
    return observation_dumps(observe(p, depth, samples, probe_budget))


@pytest.mark.parametrize("name", BUILDERS)
def test_a_window_is_the_deeper_window_cut_at_its_depth(name):
    for stage, p in _stages(name):
        deeper = observe(p, 1)
        for depth in range(1, 7):
            window, deeper = deeper, observe(p, depth + 1)
            want = observation_dumps(window)
            assert observation_dumps(_cut(deeper, depth)) == want, (stage, depth)


@pytest.mark.parametrize("name", BUILDERS)
def test_a_window_at_fewer_samples_drops_the_other_premises(name):
    for stage, p in _stages(name):
        for depth in (3, 5):
            full = observe(p, depth, (0, 1, 2))
            want = _text(p, depth, (0, 2))
            assert observation_dumps(_restrict(full, (0, 2))) == want, (stage, depth)


@pytest.mark.parametrize("name", BUILDERS)
def test_a_window_without_probes_drops_the_family_outputs(name):
    for stage, p in _stages(name):
        for depth in (3, 5):
            probed = observe(p, depth, probe_budget=1)
            want = _text(p, depth, probe_budget=0)
            assert observation_dumps(_unprobed(probed)) == want, (stage, depth)


def test_each_law_drops_part_of_some_window():
    # the helpers are not the identity on these inputs: nested(3) has nu
    # nodes, families fed their probe and nodes below depth 3
    stages = dict(_stages("nested(3)"))
    full = [observe(p, 3) for p in stages.values()]
    texts = [observation_dumps(o) for o in full]
    for change in (lambda o: _cut(o, 2), lambda o: _restrict(o, (0, 2)), _unprobed):
        assert any(observation_dumps(change(o)) != t for o, t in zip(full, texts))


# The corpus builders of generated S proofs: the level-n nested cuts, and
# the fixed-point axiom and the top-invariant induction cut on a drawn mu
# and on a small-scope one, every closed mu formula up to size 5.
_SMALL_MUS = st.sampled_from(small_mu_formulas(5))
_BUILT = st.one_of(
    st.builds(nested, st.integers(2, 5)),
    st.builds(axmu, CLOSED_MUS),
    st.builds(top_induction_cut, CLOSED_MUS),
    st.builds(axmu, _SMALL_MUS),
    st.builds(top_induction_cut, _SMALL_MUS),
)


@settings(deadline=None, max_examples=100)
@given(_BUILT, st.integers(1, 6), st.sampled_from([(0, 2), (1,), (0, 1, 2, 3)]))
def test_the_laws_hold_on_drawn_proofs(p, depth, keep):
    for stage, q in pipeline(p).items():
        window = observe(q, depth)
        assert observation_dumps(_cut(observe(q, depth + 1), depth)) == (
            observation_dumps(window)
        ), stage
        full = observe(q, depth, (0, 1, 2, 3))
        assert observation_dumps(_restrict(full, keep)) == _text(q, depth, keep), stage
        probed = observe(q, depth, probe_budget=1)
        assert observation_dumps(_unprobed(probed)) == _text(q, depth, probe_budget=0), stage
