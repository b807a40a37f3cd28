"""Cut elimination by local head reductions.

eliminate removes every cut reachable in any finite observation of the
result, working lazily: the root cut chain is reduced eagerly (bottommost
first, left premise first), and premises are wrapped so deeper cuts reduce
on demand.  Each single reduction spends one unit of fuel.

A cut on formula A has premises carrying A' and (~A)' (priming is the
identity on the base language, so plain finite proofs are covered by the
same code).  Reduction cases, tried in order on the exposed premise roots:

  0. the cut is redundant (a primed cut formula already sits in the
     conclusion): keep the premise that proves the conclusion directly;
  i. a premise is an axiom whose pair contains its cut formula: the other
     premise already proves the conclusion;
 ii. a premise is an axiom whose pair survives in the conclusion: conclude
     by that axiom;
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


def weaken(d, extra):
    """Admissible weakening: the same proof with extra conclusion formulas
    threaded through every rule (box rules absorb them into the side
    sequent; induction nodes admit no context and cannot be weakened)."""
    extra = Sequent(extra).difference(d.conclusion)
    if not extra:
        return d
    c2 = d.conclusion.union(extra)
    return Proof.defer(c2, lambda: _weaken_now(d, extra, c2))


def _weaken_now(d, extra, c2):
    tag = d.rule
    if isinstance(tag, Box):
        return make_node(c2, Box(tag.principal, tag.side.union(extra)), d.premises)
    if isinstance(tag, Ind):
        raise InternalInvariantError("cannot weaken an induction node")
    return map_premises(d, c2, lambda q, _: weaken(q, extra))


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
    """One head reduction of the root cut of d (premise cut roots are
    exposed first, spending fuel)."""
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

    # expose premise roots so the case analysis sees real rules
    if isinstance(dl.rule, Cut):
        dl = _exposed(dl, budget, trace, path + ".0")
        return make_node(g, tag, (dl, dr))
    if isinstance(dr.rule, Cut):
        dr = _exposed(dr, budget, trace, path + ".1")
        return make_node(g, tag, (dl, dr))

    sides = ((dl, f1, dr, f2), (dr, f2, dl, f1))

    # (i)/(ii) axiom premises
    for mine, f_m, other, f_o in sides:
        rtag = mine.rule
        if isinstance(rtag, AxiomMu):
            raise InternalInvariantError(
                "axmu node inside an intermediate-system proof"
            )
        if isinstance(rtag, Axiom):
            pair = (rtag.p, negate(rtag.p))
            if f_m in pair:
                _trace(trace, path, "axiom-pair", formula)
                return fit(other, g)
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

            def fn(dl_, w, old_fam=old_fam, mu_side=mu_side, f_om=f_om):
                # the new family's own call has already run old_fam's predicate
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

            return omegabar_node(
                g, rtag.h, rtag.target, mu_side, old_fam.admits, fn
            )

    ltag = dl.rule
    rtag = dr.rule

    # (iv) conjunction against disjunction, both principal
    if f1[0] == "and" or f2[0] == "and":
        if f1[0] == "and":
            d_and, f_and, d_or, f_or, cf = dl, f1, dr, f2, formula
            and_is_f1 = True
        else:
            d_and, f_and, d_or, f_or, cf = dr, f2, dl, f1, negate(formula)
            and_is_f1 = False
        atag = d_and.rule
        otag = d_or.rule
        if (
            isinstance(atag, And)
            and atag.principal == f_and
            and isinstance(otag, Or)
            and otag.principal == f_or
        ):
            _trace(trace, path, "decompose", formula)
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
    if f1[0] == "box" or f2[0] == "box":
        if f1[0] == "box":
            d_b, f_b, d_d, f_d, cf = dl, f1, dr, f2, formula
        else:
            d_b, f_b, d_d, f_d, cf = dr, f2, dl, f1, negate(formula)
        btag = d_b.rule
        dtag = d_d.rule
        b_ready = isinstance(btag, Box) and btag.principal == f_b
        d_stuck = _dia_stuck(dtag, d_d, f_d)
        if b_ready and d_stuck:
            _trace(trace, path, "modal", formula)
            comp = cf[1]  # cf = box(comp); f_b = box(comp'), f_d = dia((~comp)')
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
    if _commutable(ltag, dl, f1):
        _trace(trace, path, "commute", formula)
        return _commute(dl, f1, dr, g, formula)
    if _commutable(rtag, dr, f2):
        _trace(trace, path, "commute", formula)
        return _commute(dr, f2, dl, g, formula)
    raise InternalInvariantError(
        "no reduction case applies at %s (cut on %r)" % (path, formula)
    )


def _exposed(d, budget, trace, path):
    while isinstance(d.rule, Cut):
        d = _reduce_root(d, budget, trace, path)
    return d


def reduce_head(p, fuel=DEFAULT_FUEL, trace=None):
    """One head reduction of the root cut (premise cut chains are exposed
    first when the case analysis needs their roots)."""
    return _reduce_root(p, _Budget(fuel), trace, "root")


# ---------------------------------------------------------------------------
# full elimination


def eliminate(p, fuel=DEFAULT_FUEL, trace=None):
    """A proof of the same conclusion with every reachable cut reduced
    away, lazily, within the given fuel."""
    budget = _Budget(fuel)
    return _eliminate(p, budget, trace, "root")


def _eliminate(p, budget, trace, path):
    return Proof.defer(p.conclusion, lambda: _eliminate_now(p, budget, trace, path))


def _eliminate_now(p, budget, trace, path):
    d = _exposed(p, budget, trace, path)
    tag = d.rule
    if isinstance(tag, (Axiom, AxiomMu)):
        return d
    return map_premises(
        d,
        d.conclusion,
        lambda q, pos: _eliminate(
            q, budget, trace, path + "." + premise_label(tag, pos)
        ),
    )
