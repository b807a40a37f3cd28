"""Shared test helpers: a seeded formula generator, S proofs of atom cuts
in four shapes, the pipeline's pass assertion, an in-process
command-line runner and a counter of the walks level_bound makes.
Everything here is deterministic."""

from __future__ import annotations

import contextlib
import io
import random

from hypothesis import settings
from hypothesis import strategies as st

from mucut import checker
from mucut.checker import check_finite
from mucut.collapse import pipeline, verdict
from mucut.kernel import TOP, atom, level, natom, negate, size
from mucut.proofs import cut_node, top_intro
from mucut.sequents import Sequent

# Property tests draw the same examples on every run and keep no example
# database, so a failure found once is found again on every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

ATOM_RANGE = 4


def random_form(rng, size_budget, level_budget, bound=False):
    """One random formula, approximately within the node-count and
    binder-nesting budgets (callers enforce the exact caps).  The result
    is closed unless bound is true, in which case the variable may occur
    free."""
    if size_budget <= 1:
        if bound and rng.random() < 0.25:
            return ("var",)
        i = rng.randrange(ATOM_RANGE)
        return ("atom", i) if rng.random() < 0.5 else ("natom", i)
    r = rng.random()
    if r < 0.2 and level_budget > 0:
        body = random_form(rng, size_budget - 1, level_budget - 1, True)
        return ("mu" if rng.random() < 0.5 else "nu", body)
    if r < 0.4:
        tag = "box" if rng.random() < 0.5 else "dia"
        return (tag, random_form(rng, size_budget - 1, level_budget, bound))
    if r < 0.9:
        left_budget = rng.randint(1, size_budget - 2) if size_budget > 2 else 1
        left = random_form(rng, left_budget, level_budget, bound)
        right = random_form(
            rng, max(1, size_budget - 1 - size(left)), level_budget, bound
        )
        tag = "and" if rng.random() < 0.5 else "or"
        return (tag, left, right)
    if bound and rng.random() < 0.25:
        return ("var",)
    i = rng.randrange(ATOM_RANGE)
    return ("atom", i) if rng.random() < 0.5 else ("natom", i)


def random_formulas(seed, count, max_size=30, max_level=3):
    """A deterministic list of closed formulas within the given caps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_form(
            rng, rng.randint(1, max_size), rng.randint(0, max_level)
        )
        if size(f) <= max_size and level(f) <= max_level:
            out.append(f)
    return out


# Spellings of a system that no System.name gives: other cases, spaces,
# the old omega-k=K, and indices int reads but the name never holds.
REFUSED_SYSTEMS = (
    "frob", "omega:x", "omega:", "S", " SINF ", "sinf\n", "OMEGA:1", "omega-k=1",
    "omega:\u0661", "omega:\uff11", "omega:1_0", "omega:01", "omega:-0", "omega:+1",
    "omega: 1", "omega:1 ",
)


# Literals over the atoms 1-40, for cut formulas of generated S proofs.
LITERALS = st.builds(
    lambda i, positive: atom(i) if positive else natom(i),
    st.integers(1, 40),
    st.booleans(),
)


def cut_tree(atoms, extra=()):
    """A binary tree of atom cuts, one level per atom, truth at the leaves."""
    if not atoms:
        return top_intro(extra)
    a, rest = atoms[0], atoms[1:]
    return cut_node(
        Sequent(extra + (TOP,)),
        a,
        cut_tree(rest, extra + (a,)),
        cut_tree(rest, extra + (negate(a),)),
    )


def cut_chain(atoms, mirror=False, teeth=None):
    """A chain of atom cuts, the first atom's at the root.  The cut on a
    closes its a side and continues the chain on its ~a side, so the
    context grows by one literal per cut.  The chain nests in the right
    premise (the cut is on a); mirrored, in the left one (the cut is on ~a).
    The closed side is a truth introduction, or, given teeth (one literal
    per atom), a cut on that atom's tooth over two truth introductions:
    a comb, both of whose premises are cuts at every level."""
    contexts = [Sequent(())]
    for a in atoms:
        contexts.append(contexts[-1].add(negate(a)))
    p = top_intro(contexts[-1])
    for j in range(len(atoms) - 1, -1, -1):
        a, ctx = atoms[j], contexts[j]
        closed = top_intro(ctx.add(a))
        if teeth is not None:
            t = teeth[j]
            closed = cut_node(
                closed.conclusion,
                t,
                top_intro(ctx.union((a, t))),
                top_intro(ctx.union((a, negate(t)))),
            )
        g = ctx.add(TOP)
        if mirror:
            p = cut_node(g, negate(a), p, closed)
        else:
            p = cut_node(g, a, closed, p)
    return p


def deep_cut_chain(n):
    """n nested cuts, each over the same context (and so each redundant)."""
    a, na = atom(1), natom(1)
    p = top_intro((na,))
    for _ in range(n):
        p = cut_node(Sequent((TOP, na)), a, top_intro((na, a)), p)
    return p


def assert_pipeline_passes(p, depth=6):
    """p is an S proof, the pipeline's verdict on it at the depth is a
    pass, and every stage keeps its end-sequent."""
    assert check_finite(p).ok
    v = verdict(p, pipeline(p), depth)
    assert v.passed, (v.error, [stage.failure for stage in v.stages])
    for stage in v.stages:
        assert stage.window.conclusion == p.conclusion, stage.name


def run_cli(argv):
    """Run the command-line front end in-process.

    Returns (exit_code, stdout, stderr)."""
    from mucut.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def level_walks(monkeypatch):
    """The proofs checker.level_bound walks from now on, in order."""
    walks, walk = [], checker.finite_nodes

    def counting(p):
        walks.append(p)
        return walk(p)

    monkeypatch.setattr(checker, "finite_nodes", counting)
    return walks
