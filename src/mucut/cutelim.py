"""Cut elimination by local head reductions.

eliminate removes every cut reachable in any finite observation of the
result, working lazily: a node's root cut is reduced until its root is
another rule, and premises are wrapped so deeper cuts reduce on demand.
A premise whose root is itself a cut is exposed (reduced the same way)
only when the case analysis needs its root: when the other premise's
root can be commuted, the cut goes above it first; otherwise the premise
cut is exposed, the f1 side first.  Cuts waiting for an exposed premise
are kept on an explicit stack, so nested cuts take no Python frames.
Each single reduction, and each exposure, spends one unit of fuel.  A
plain proof (Proof.plain) has no cut, so it passes through as itself, at
the root or at any premise, and spends none.

A cut on formula A has premises carrying A' and (~A)' (priming is the
identity on the base language, so plain finite proofs are covered by the
same code).  Reduction cases, tried in order on the exposed premise roots:

  0. the cut is redundant (a primed cut formula already sits in the
     conclusion): keep the premise that proves the conclusion directly;
     this covers an axiom premise whose pair holds its cut formula, since
     the pair's other member, the other cut formula, is then in the
     conclusion;
 ii. a premise is an axiom, so its pair survives in the conclusion:
     conclude by that axiom;
 vi. a premise root introduces the negated-mu side by a replacement rule
     whose target is the mu side's cut formula: replace it with the
     bar variant, keeping the mu-side derivation as first premise;
 iv. conjunction against disjunction, both principal: two nested cuts on
     the components (strictly smaller rank);
  v. box principal against its diamond-part dual: cut the box premises and
     re-apply the box rule;
iii. otherwise commute the cut above a premise root that does not involve
     its cut formula (box sides absorb the formula outright).
"""

from __future__ import annotations

from functools import partial

from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.kernel import level, negate, prime, size
from mucut.proofs import (
    And,
    Axiom,
    AxiomMu,
    Box,
    Clo,
    Cut,
    Ind,
    Nu,
    Omega,
    OmegaBar,
    Or,
    Proof,
    ax,
    box_fit,
    box_node,
    make_node,
    map_premises,
    mark_plain,
    omega_phi,
    omegabar_node,
    parts_checked,
    premise_added,
    premise_label,
)
from mucut.sequents import Sequent, _check, from_checked

DEFAULT_FUEL = 100_000


def cut_rank(f):
    """Rank of a cut formula: level first, then syntactic size."""
    return (level(f), size(f))


# ---------------------------------------------------------------------------
# weakening


def weaken(d, extra, memo=None):
    """Admissible weakening: the same proof with extra conclusion formulas
    threaded through every rule (box rules absorb them into the side
    sequent; induction nodes admit no context and cannot be weakened).
    A pending weakening of base by e0 composes with this one: the result
    is one pending weakening of base by e0 + extra, since weakening twice
    is weakening once by the union.  Weakening adds no rule, so the
    weakening of a plain proof is marked plain.  memo is None, as in cut
    elimination, or an embedding's memo (embed._owned), which shares what
    it holds: weakening base by formulas it holds gives the object made
    first, and a new weakening goes in it, keyed by base itself (a proof
    hashes by identity, so the key holds it), and weakens its premises
    through it too."""
    extra = Sequent(extra).difference(d.conclusion)
    if not extra:
        return d
    pending = d._thunk
    if type(pending) is partial and pending.func is _weaken_now:
        d, e0 = pending.args[:2]
        extra = e0.union(extra)
    if memo is not None and (d, extra) in memo:
        return memo[d, extra]
    c2 = d.conclusion.union(extra)
    out = Proof.defer(c2, partial(_weaken_now, d, extra, c2, memo))
    if memo is not None:
        memo[d, extra] = out
    return mark_plain(out) if d.plain else out


def _weaken_now(d, extra, c2, memo):
    tag = d.rule
    if isinstance(tag, Box):
        return make_node(c2, Box(tag.principal, tag.side.union(extra)), d.premises)
    if isinstance(tag, Ind):
        raise InternalInvariantError("cannot weaken an induction node")
    return map_premises(d, c2, lambda q, _: weaken(q, extra, memo))


def fit(d, target):
    """Weaken d so it concludes exactly target (a superset of its
    conclusion)."""
    if d.conclusion == target:
        return d
    if not d.conclusion.issubset(target):
        raise InternalInvariantError(
            "cannot fit %r into %r" % (d.conclusion, target)
        )
    return weaken(d, target.difference(d.conclusion))


def cut_fit(conclusion, formula, with_f1, with_f2):
    """A cut on formula concluding conclusion, its premises with_f1 and
    with_f2 fitted to the conclusion plus the prime of formula and of its
    negation.  formula is checked once, as a sequent member is; its primed
    sides are kernel-derived from it and go in unchecked."""
    _check(formula)
    f1 = from_checked((prime(formula),))
    f2 = from_checked((prime(negate(formula)),))
    return make_node(
        conclusion,
        Cut(formula),
        (fit(with_f1, conclusion.union(f1)), fit(with_f2, conclusion.union(f2))),
    )


# ---------------------------------------------------------------------------
# head reduction


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, fuel):
        self.remaining = fuel

    def spend(self, path):
        if self.remaining <= 0:
            raise FuelExhausted("reduction budget exhausted at %s" % path)
        self.remaining -= 1


def _trace(trace, path, case, formula):
    if trace is not None:
        trace(path, case, cut_rank(formula))


def _scrub(p, target, formula, mine_is_f1, other):
    """p concludes target plus possibly its own cut-formula side; remove
    that side (cutting against the weakened other premise) and fit."""
    if p.conclusion.issubset(target):
        return fit(p, target)
    if mine_is_f1:
        return cut_fit(target, formula, p, other)
    return cut_fit(target, formula, other, p)


def _dia_stuck(tag, side, f):
    """Is f generated by the diamond part of this box node's packet?"""
    if not isinstance(tag, Box) or f[0] != "dia":
        return False
    body = tag.principal[1]
    return f[1] in side.premises[0].conclusion.without(body)


def _commutable(tag, side, f):
    if isinstance(tag, (Or, And, Clo)):
        return tag.principal != f
    if isinstance(tag, Nu):
        return True
    if isinstance(tag, Omega):
        return omega_phi(tag.target) != f
    if isinstance(tag, OmegaBar):
        return True
    if isinstance(tag, Box):
        return tag.principal != f and not _dia_stuck(tag, side, f)
    return False


def _commute(d_s, f_s, other, g, formula):
    """Push the cut above the root rule of d_s (whose conclusion is
    g + f_s and whose root does not involve f_s)."""
    tag = d_s.rule
    s_is_f1 = f_s == prime(formula)

    if isinstance(tag, Box):
        return box_fit(g, tag.principal, d_s.premises[0])
    checked = parts_checked(tag, d_s.conclusion)

    def cut_in(p, position):
        extra = premise_added(tag, position)
        if checked:
            extra = from_checked(extra)
        target = g.union(extra)
        theirs = weaken(other, extra)
        if s_is_f1:
            return cut_fit(target, formula, p, theirs)
        return cut_fit(target, formula, theirs, p)

    return map_premises(d_s, g, cut_in)


def _reduce_root(d, budget, trace, path):
    """One head reduction of the root cut of d, spending one unit of fuel.
    When the case analysis needs the root of a premise that is itself a
    cut, nothing is reduced: the result is the premises (f1 side first)
    and the index of the premise to expose, and the caller reduces the
    rebuilt cut again once that premise's root is not a cut."""
    tag = d.rule
    if not isinstance(tag, Cut):
        raise InternalInvariantError("reduce_head needs a cut at the root")
    formula = tag.formula
    g = d.conclusion
    f1 = prime(formula)
    f2 = prime(negate(formula))
    dl, dr = d.premises
    if not (dl.conclusion.is_add(g, f1) and dr.conclusion.is_add(g, f2)):
        dl, dr = dr, dl
    if not (dl.conclusion.is_add(g, f1) and dr.conclusion.is_add(g, f2)):
        raise InternalInvariantError(
            "cut premises do not match the cut formula's primed sides"
        )
    if f1[0] == "nu" or f2[0] == "nu":
        raise InternalInvariantError(
            "plain nu cut formula cannot arise from the primed cut schema"
        )

    budget.spend(path)

    # 0. redundant cut
    if f1 in g:
        _trace(trace, path, "redundant", formula)
        return fit(dl, g)
    if f2 in g:
        _trace(trace, path, "redundant", formula)
        return fit(dr, g)

    sides = ((dl, f1, dr, f2), (dr, f2, dl, f1))

    # a premise whose root is a cut is exposed only when the other
    # premise's root cannot be commuted at once (a cut root never can)
    left_cut = isinstance(dl.rule, Cut)
    if left_cut or isinstance(dr.rule, Cut):
        done = _commute_either(sides, g, formula, trace, path)
        if done is not None:
            return done
        return (dl, dr), 0 if left_cut else 1

    # (ii) axiom premises
    for mine in (dl, dr):
        rtag = mine.rule
        if isinstance(rtag, AxiomMu):
            raise InternalInvariantError(
                "axmu node inside an intermediate-system proof"
            )
        if isinstance(rtag, Axiom):
            _trace(trace, path, "axiom-context", formula)
            return ax(g, rtag.p)

    # (vi) replacement: mu side against an Omega introducing its dual
    for om_side, f_om, mu_side, f_mu in sides:
        rtag = om_side.rule
        if isinstance(rtag, Omega) and omega_phi(rtag.target) == f_om:
            if rtag.target != f_mu:
                raise InternalInvariantError(
                    "omega target disagrees with the dual cut formula"
                )
            _trace(trace, path, "omegabar-%d" % rtag.h, formula)
            old_fam = om_side.premises

            def fn(dl_, w):
                # the new family's own call has already checked old_fam's domain
                out = old_fam.admitted(dl_, w)
                want = dl_.union(g)
                if out.conclusion == want:
                    return out
                if out.conclusion != want.add(f_om):
                    raise InternalInvariantError(
                        "replacement family output has unexpected shape"
                    )
                if f_om == f1:
                    return cut_fit(want, formula, out, weaken(mu_side, dl_))
                return cut_fit(want, formula, weaken(mu_side, dl_), out)

            return omegabar_node(g, rtag.target, mu_side, fn)

    # (iv) conjunction against disjunction, both principal
    for d_and, f_and, d_or, f_or in sides:
        if f_and[0] != "and":
            continue
        atag, otag = d_and.rule, d_or.rule
        if (
            isinstance(atag, And)
            and atag.principal == f_and
            and isinstance(otag, Or)
            and otag.principal == f_or
        ):
            _trace(trace, path, "decompose", formula)
            and_is_f1 = f_and == f1
            cf = formula if and_is_f1 else negate(formula)
            comp_d, comp_e = cf[1], cf[2]
            n_dp = prime(negate(comp_d))
            e_p = prime(comp_e)
            p11 = _scrub(
                d_and.premises[0], g.add(prime(comp_d)), formula, and_is_f1, d_or
            )
            p12 = _scrub(d_and.premises[1], g.add(e_p), formula, and_is_f1, d_or)
            p2 = _scrub(
                d_or.premises[0],
                g.union((n_dp, prime(negate(comp_e)))),
                formula,
                not and_is_f1,
                d_and,
            )
            step1 = cut_fit(g.add(n_dp), comp_e, weaken(p12, (n_dp,)), p2)
            return cut_fit(g, comp_d, p11, step1)

    # (v) box principal against its diamond-part dual
    for d_b, f_b, d_d, f_d in sides:
        if f_b[0] != "box":
            continue
        btag, dtag = d_b.rule, d_d.rule
        b_ready = isinstance(btag, Box) and btag.principal == f_b
        if b_ready and _dia_stuck(dtag, d_d, f_d):
            _trace(trace, path, "modal", formula)
            # comp is the box side's body: f_b = box(comp'), f_d = dia((~comp)')
            comp = (formula if f_b == f1 else negate(formula))[1]
            p1 = d_b.premises[0]
            p2 = d_d.premises[0]
            a1 = prime(comp)
            b2 = prime(negate(comp))
            a2 = dtag.principal[1]
            if a1 not in p1.conclusion or b2 not in p2.conclusion:
                raise InternalInvariantError(
                    "box premises lack the bodies of the modal cut pair"
                )
            gam_n = p1.conclusion.without(a1).union(
                p2.conclusion.without(a2).without(b2)
            )
            inner = cut_fit(gam_n.add(a2), comp, p1, p2)
            packet = gam_n.dia().add(dtag.principal)
            if not packet.issubset(g):
                raise InternalInvariantError(
                    "box packet escapes the cut conclusion in the modal case"
                )
            return box_node(g, dtag.principal, g.difference(packet), inner)

    # (iii) commute past a premise root not involving its cut formula
    done = _commute_either(sides, g, formula, trace, path)
    if done is not None:
        return done
    raise InternalInvariantError(
        "no reduction case applies at %s (cut on %r)" % (path, formula)
    )


def _commute_either(sides, g, formula, trace, path):
    """Case (iii) on the first premise, left first, whose root does not
    involve its cut formula; None when neither root can be commuted."""
    for mine, f_m, other, _ in sides:
        if _commutable(mine.rule, mine, f_m):
            _trace(trace, path, "commute", formula)
            return _commute(mine, f_m, other, g, formula)
    return None


def _rebuilt(cut, premises, i, q):
    """cut with premise i of premises (f1 side first) replaced by q."""
    premises = (q, premises[1]) if i == 0 else (premises[0], q)
    return make_node(cut.conclusion, cut.rule, premises)


def _exposed(d, budget, trace, path):
    """d reduced at the root until its root is not a cut.  A cut that waits
    for one of its premises to be exposed goes on an explicit stack, so
    nested cuts take no Python frames."""
    pending = []
    while True:
        if isinstance(d.rule, Cut):
            step = _reduce_root(d, budget, trace, path)
            if type(step) is tuple:
                premises, i = step
                pending.append((d, premises, i, path))
                d = premises[i]
                path = "%s.%d" % (path, i)
            else:
                d = step
        elif pending:
            cut, premises, i, path = pending.pop()
            d = _rebuilt(cut, premises, i, d)
        else:
            return d


def reduce_head(p, fuel=DEFAULT_FUEL, trace=None):
    """One head reduction of the root cut of p.  When it needs the root of
    a premise that is a cut, that premise's cut chain is reduced instead,
    and the result is the cut over the exposed premise."""
    budget = _Budget(fuel)
    step = _reduce_root(p, budget, trace, "root")
    if type(step) is not tuple:
        return step
    premises, i = step
    q = _exposed(premises[i], budget, trace, "root.%d" % i)
    return _rebuilt(p, premises, i, q)


# ---------------------------------------------------------------------------
# full elimination


def eliminate(p, fuel=DEFAULT_FUEL, trace=None):
    """A proof of the same conclusion with every reachable cut reduced
    away, lazily, within the given fuel."""
    budget = _Budget(fuel)
    return _eliminate(p, budget, trace, "root")


def _eliminate(p, budget, trace, path):
    """p with its cuts reduced away on demand; a plain proof has no cut,
    so it is its own result."""
    if p.plain:
        return p
    return Proof.defer(p.conclusion, lambda: _eliminate_now(p, budget, trace, path))


def _eliminate_now(p, budget, trace, path):
    d = _exposed(p, budget, trace, path)
    tag = d.rule
    if d.plain or isinstance(tag, (Axiom, AxiomMu)):
        return d
    return map_premises(
        d,
        d.conclusion,
        lambda q, pos: _eliminate(
            q, budget, trace, path + "." + premise_label(tag, pos)
        ),
    )
