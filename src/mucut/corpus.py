"""The builders of generated S proofs, the example corpus and the
formula suites.

The builders are the one definition of each proof family the tests
generate: seeded random formulas, atom-cut trees and chains, the
fixed-point axiom, the top-invariant induction cut and the level-n
`nested` cuts.  The tests import them from here; the benchmark's
generator still keeps copies that build the same proofs.  `import
mucut` does not load this module.

The corpus holds four small finitary proofs that exercise every
interesting embedding path: ind-top, an induction whose invariant is the
trivial truth; top-cut, a cut on an atom between two truth
introductions; axmu, the fixed-point axiom on a guarded formula; and
nested, cuts that elimination has to replace at levels 2 and 1.  The
monotonicity suite is a fixed list of mu formulas of levels 1 and 2 used
by the identity-law tests.
"""

from __future__ import annotations

import random
from functools import partial

from mucut.kernel import (
    TOP,
    atom,
    level,
    natom,
    negate,
    or_,
    size,
    substitute,
    unfolding,
)
from mucut.proofs import (
    and_node,
    ax,
    axmu_node,
    clo_node,
    cut_node,
    ind_node,
    or_node,
    top_intro,
)
from mucut.sequents import Sequent
from mucut.syntax import parse_formula

ATOM_RANGE = 4


def random_form(rng, size_budget, level_budget, bound=False):
    """One random formula, approximately within the node-count and
    binder-nesting budgets (callers enforce the exact caps).  The result
    is closed unless bound is true, in which case the variable may occur
    free."""
    r = rng.random() if size_budget > 1 else 1  # 1: a leaf, drawn below
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


def axmu(mu):
    """The fixed-point axiom on mu: concludes mu, ~mu."""
    return axmu_node(Sequent((mu, negate(mu))), mu)


def top_induction_cut(mu):
    """Concludes {top} by a cut on mu: the mu side is closed by `clo` over
    a truth introduction, the negated side by induction with invariant
    top (whose premise ~A(top), top is again a truth introduction)."""
    body = mu[1]
    mu_side = clo_node(Sequent((mu, TOP)), mu, top_intro((unfolding(mu),)))
    ind_side = ind_node(
        Sequent((negate(mu), TOP)),
        mu,
        TOP,
        top_intro((negate(substitute(body, TOP)),)),
    )
    return cut_node(Sequent((TOP,)), mu, mu_side, ind_side)


def nested(n):
    """Nested cuts at levels n and 1 over a level-n mu formula.

    With F = mu X . ((p3 & ~p3) | X) and C_1 = F, C_j = mu X . (X & C_{j-1}),
    the proof concludes ~C_n.  A cut on C_n (level n) joins the axiom on
    C_n to an induction on C_n with invariant F; the root cuts on F
    (level 1) against an induction on F with invariant ~C_n, so
    elimination replaces rules at levels n and 1.
    """
    if n < 2:
        raise ValueError("nested needs n >= 2")
    p = 3
    f1 = ("mu", or_(("and", atom(p), natom(p)), ("var",)))
    chain = [f1]
    for _ in range(n - 1):
        chain.append(("mu", ("and", ("var",), chain[-1])))
    c = chain[-1]
    below = chain[-2]
    nc = negate(c)
    nf1 = negate(f1)

    # Induction on C_n with invariant F: its premise ~(F & C_{n-1}), F is
    # the disjunction ~F | ~C_{n-1} over the axiom on F.
    unfold = or_(nf1, negate(below))
    axmu_f = axmu_node(Sequent((f1, nf1) + tuple(unfold[1:])), f1)
    orn = or_node(Sequent((unfold, f1)), unfold, axmu_f)
    ind_c = ind_node(Sequent((nc, f1)), c, f1, orn)

    # The level-n cut on C_n.
    axmu_c = axmu_node(Sequent((nc, f1, c)), c)
    cut_c = cut_node(Sequent((nc, f1)), c, axmu_c, ind_c)

    # Induction on F with invariant ~C_n: the premise (~p | p) & C_n, ~C_n.
    taut = or_(natom(p), atom(p))
    orl = or_node(Sequent((taut, nc)), taut, ax(Sequent((natom(p), atom(p), nc)), atom(p)))
    conj = ("and", taut, c)
    and_f = and_node(Sequent((conj, nc)), conj, orl, axmu_node(Sequent((c, nc)), c))
    ind_f = ind_node(Sequent((nf1, nc)), f1, nc, and_f)

    # The level-1 cut on F.
    return cut_node(Sequent((nc,)), f1, cut_c, ind_f)


def example_ind_top():
    """Induction with the trivial invariant: concludes nu X . X, top."""
    mu = parse_formula("mu X . X")
    nu = negate(mu)
    ntop = negate(TOP)  # (~p0 & p0)
    leaf = ax(Sequent((atom(0), natom(0))), atom(0))
    left = or_node(Sequent((ntop[1], TOP)), TOP, leaf)
    right = or_node(Sequent((ntop[2], TOP)), TOP, leaf)
    body = and_node(Sequent((ntop, TOP)), ntop, left, right)
    return ind_node(Sequent((nu, TOP)), mu, TOP, body)


CORPUS = {
    "ind-top": example_ind_top,
    "top-cut": partial(cut_tree, (atom(1),)),
    "axmu": partial(axmu, parse_formula("mu X . (p1 | X)")),
    "nested": partial(nested, 2),
}


LEMMA_SUITE = (
    "mu X . X",
    "mu X . (p1 | X)",
    "mu X . (p1 & X)",
    "mu X . [] X",
    "mu X . <> (p2 | X)",
    "mu X . (p1 | (p2 & X))",
    "mu X . ([] X | <> p1)",
    "mu X . (mu X . (p1 | X) | X)",
    "mu X . ([] mu X . (p1 & X) | X)",
    "mu X . (nu X . (p1 | X) & X)",
    "mu X . <> (nu X . (p2 & X) | X)",
    "mu X . (p1 | nu X . [] X)",
)


def lemma_suite():
    """The fixed identity/monotonicity formula suite, parsed."""
    return tuple(parse_formula(s) for s in LEMMA_SUITE)
