"""Single-node mutation harness for probing checker robustness.

Each draw picks one node (uniformly over all nodes of all corpus proofs),
picks a mutation kind applicable to that node, and rebuilds the proof with
only that node changed.  Mutants are constructed through ``Proof.make`` so
the builders' legality checks are bypassed and only the checker stands
between a corrupted proof and acceptance.

Accepted mutants are classified by :func:`classify_accepted` into families
that are provably valid proofs (weakening an axiom conclusion, reordering
cut premises, re-deriving a premise shape that the rule also admits).  Any
accepted mutant outside those families is a checker hole and classification
raises.
"""

from __future__ import annotations

import random

from mucut import corpus as _corpus
from mucut.checker import SYSTEM_S, check_finite
from mucut.kernel import TOP, atom, natom
from mucut.proofs import Axiom, AxiomMu, Box, Clo, Cut, Ind, Or, And, Proof

POOL = (atom(7), natom(7), ("box", atom(7)), TOP)

KINDS = (
    "add-form",
    "drop-form",
    "tweak-atom",
    "swap-premises",
    "retag",
    "graft-axiom",
    "box-side",
)


def proof_nodes(p, path=()):
    """Preorder (path, node) pairs of a finite proof."""
    yield path, p
    for j, q in enumerate(p.premises):
        yield from proof_nodes(q, path + (j,))


def rebuild(p, path, node):
    """Return ``p`` with the subproof at ``path`` replaced by ``node``."""
    if not path:
        return node
    kids = list(p.premises)
    kids[path[0]] = rebuild(kids[path[0]], path[1:], node)
    return Proof.make(p.conclusion, p.rule, tuple(kids))


def _bump(f):
    """Shift every atom index in ``f`` up by one."""
    t = f[0]
    if t == "atom":
        return ("atom", f[1] + 1)
    if t == "natom":
        return ("natom", f[1] + 1)
    if t == "var":
        return f
    return (t,) + tuple(_bump(c) for c in f[1:])


def _applicable(node):
    """Mutation kinds that can produce a changed proof at ``node``."""
    tag, prem, c = node.rule, node.premises, node.conclusion
    kinds = []
    if any(f not in c for f in POOL):
        kinds.append("add-form")
    if c.forms:
        kinds.append("drop-form")
    if any(_bump(f) != f and _bump(f) not in c for f in c.forms):
        kinds.append("tweak-atom")
    if len(prem) == 2:
        kinds.append("swap-premises")
    if isinstance(tag, (Axiom, AxiomMu, Or, And, Clo, Box, Ind, Cut)):
        if not (isinstance(tag, (Or, And, Clo)) and len(c.forms) < 2):
            kinds.append("retag")
    if not (isinstance(tag, Axiom) and tag.p == atom(0)):
        kinds.append("graft-axiom")
    if isinstance(tag, Box):
        kinds.append("box-side")
    return tuple(k for k in KINDS if k in kinds)


def _mutate_node(rng, node, kind):
    """Return a replacement for ``node`` under mutation ``kind``."""
    tag, prem, c = node.rule, node.premises, node.conclusion
    if kind == "add-form":
        candidates = tuple(f for f in POOL if f not in c)
        f = candidates[rng.randrange(len(candidates))]
        return Proof.make(c.add(f), tag, prem), f
    if kind == "drop-form":
        f = c.forms[rng.randrange(len(c.forms))]
        return Proof.make(c.without(f), tag, prem), f
    if kind == "tweak-atom":
        candidates = tuple(
            f for f in c.forms if _bump(f) != f and _bump(f) not in c
        )
        f = candidates[rng.randrange(len(candidates))]
        return Proof.make(c.without(f).add(_bump(f)), tag, prem), f
    if kind == "swap-premises":
        return Proof.make(c, tag, (prem[1], prem[0])), None
    if kind == "retag":
        if isinstance(tag, Axiom):
            new = Axiom(atom(tag.p[1] + 1))
        elif isinstance(tag, AxiomMu):
            alt = ("mu", ("var",))
            new = AxiomMu(alt if tag.mu != alt else ("mu", ("or", atom(1), ("var",))))
        elif isinstance(tag, (Or, And, Clo)):
            others = tuple(f for f in c.forms if f != tag.principal)
            new = type(tag)(others[rng.randrange(len(others))])
        elif isinstance(tag, Box):
            new = Box(("box", atom(7)), tag.side)
        elif isinstance(tag, Ind):
            new = Ind(tag.mu, TOP if tag.b != TOP else atom(7))
        elif isinstance(tag, Cut):
            new = Cut(TOP if tag.formula != TOP else atom(7))
        else:  # pragma: no cover - _applicable filters these out
            raise AssertionError(tag)
        return Proof.make(c, new, prem), new
    if kind == "graft-axiom":
        return Proof.make(c, Axiom(atom(0)), ()), None
    if kind == "box-side":
        candidates = tuple(f for f in c.forms + POOL if f not in tag.side)
        f = candidates[rng.randrange(len(candidates))]
        return Proof.make(c, Box(tag.principal, tag.side.add(f)), prem), f
    raise AssertionError(kind)  # pragma: no cover


def build_sites():
    """All (proof name, path, node) mutation sites over the corpus."""
    sites = []
    for name, build in _corpus.CORPUS.items():
        for path, node in proof_nodes(build()):
            sites.append((name, path, node))
    return tuple(sites)


def draw_mutants(seed, draws):
    """Yield ``draws`` single-node mutations as ``(name, path, kind,
    detail, mutant)``, where detail is the formula or tag involved (None
    for structural kinds)."""
    rng = random.Random(seed)
    sites = build_sites()
    originals = {name: build() for name, build in _corpus.CORPUS.items()}
    drawn = 0
    while drawn < draws:
        name, path, node = sites[rng.randrange(len(sites))]
        kinds = _applicable(node)
        if not kinds:
            continue
        kind = kinds[rng.randrange(len(kinds))]
        new_node, detail = _mutate_node(rng, node, kind)
        drawn += 1
        yield name, path, kind, detail, rebuild(originals[name], path, new_node)


def run_harness(seed, draws):
    """Run ``draws`` single-node mutations; return per-draw records.

    Each record is ``(name, path, kind, detail, accepted)``: the draw of
    :func:`draw_mutants` and whether the mutant passes ``check_finite``
    in S.
    """
    return tuple(
        (name, path, kind, detail, check_finite(mutant, SYSTEM_S).ok)
        for name, path, kind, detail, mutant in draw_mutants(seed, draws)
    )


def classify_accepted(name, path, kind, detail):
    """Map an accepted mutant onto a provably-valid family or fail.

    - ``cut-premise-order``: swapping the two premises of a cut; the checker
      deliberately accepts the pair in either order, and reordering premises
      of a valid cut yields a valid cut.
    - ``axiom-weakening``: adding a side formula to an axiom-tagged node;
      axioms admit arbitrary side formulas, so the node stays valid, and the
      full mutant passed the checker, which re-verified the parent's premise
      shape against the enlarged conclusion.

    Anything else is an unexplained acceptance: a checker hole.
    """
    original = _corpus.CORPUS[name]()
    node = original
    for j in path:
        node = node.premises[j]
    if kind == "swap-premises" and isinstance(node.rule, Cut):
        return "cut-premise-order"
    if kind == "add-form" and isinstance(node.rule, (Axiom, AxiomMu)):
        if isinstance(node.rule, Axiom):
            pair = (node.rule.p, ("natom", node.rule.p[1]))
        else:
            from mucut.kernel import negate

            pair = (node.rule.mu, negate(node.rule.mu))
        if all(f in node.conclusion for f in pair):
            return "axiom-weakening"
    raise AssertionError(
        "accepted mutant outside the audited families: "
        "%s %s %s %s" % (name, path, kind, detail)
    )
