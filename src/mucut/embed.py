"""Embedding finite proofs into the intermediate systems.

embed turns a finite proof (with cuts and induction) into a proof of the
same sequent, with chosen formulas primed, in the intermediate system
whose index bounds every formula level of the input.  No construction
takes a system index: each builds the same derivation for every Omega_k,
and only the judge says which one it is judged in.  The pieces:

  * identity laws: cut-free derivations of A, ~A for mu formulas, in the
    plain form (a nu rule whose approximant premises grow by closure
    steps) and the half-primed form (a replacement rule whose family
    un-primes each witness);
  * monotonicity: from B, C conclude (~A)(B), A(C), by recursion on the
    operator A, with a primed variant targeting A'(C'), built in its final
    context so that only the shared proofs at the leaves are weakened;
  * un-priming: rewrite a cut-free derivation of Gamma, A' into one of
    Gamma, A (the replacement-rule case rebuilds the plain nu rule from
    the family, synthesizing the witness chain it feeds);
  * context substitution: rewrite a cut-free derivation whose conclusion
    mentions a primed mu formula t so that chosen occurrences become B or
    B', cutting against the two induction-premise embeddings whenever a
    closure step unfolds t itself;
  * induction conversion: package context substitution as the family of a
    replacement rule, turning an induction step into an Omega inference.

Selections are sets of conclusion formulas to prime; they propagate to
premises part-dominantly (a principal's selection decides its immediate
parts) and every premise is fitted by weakening, so incidental formula
collisions never block the construction.

The walks lay out no premises themselves: embedding, un-priming and
context substitution hand proofs.map_premises the rule with its rewritten
principal and rebuild each premise from what proofs.premise_added says it
adds, and a box rule is refitted around its new premise by proofs.box_fit.

Three constructions recur, and each is written once: every cut over
primed sides is cutelim.cut_fit; every premise of a rule that keeps its
context is fitted by _fit_premise to one of the two readings the checker
accepts (the principal dropped or kept); and every nu rule whose i-th
approximant premise is derived from the (i-1)-th by monotonicity is
_nu_over over a _chain, which builds its derivations once each and in
index order, so a far premise costs no stack frame per index; the
approximants themselves come from kernel.iterate, which builds each once.

One embedding builds each identity law of each mu once (_law), weakens
each proof by each context once (cutelim.weaken) and builds monotonicity
for each operator without the variable once per context (_mono), since
that derivation never reaches monotonicity's input; so every request gets
the same proof object.  An axmu node's law is built in the node's context
(_law_in), as monotonicity is, so that only shared links are weakened.
The memo (_owned) belongs to the embed call, lives as long as the
embedding's root and is never shared between calls.

With nothing primed, cuts come only from cuts and inductions, and
replacement rules only from inductions and from identity laws of
formulas outside the base language.  So the builders mark plain
(proofs.mark_plain) what has neither by construction, and cut
elimination and collapsing pass it through as itself: the identity law
of a base-language mu, on its nu node, and the embedding of each
subproof that embeds_plainly under an inert selection, one that priming
leaves as it is.  A cut's premises carry its selected cut formula, so
the rule asks for inertness, not an empty selection: the embedding of a
cut-free premise, as of a whole proof without cuts and inductions, is
its own eliminated and collapsed stage.  Truth introductions and the
weakenings of plain proofs are marked in proofs and cutelim.
"""

from __future__ import annotations

from weakref import finalize

from mucut.cutelim import cut_fit, fit, weaken
from mucut.errors import InternalInvariantError
from mucut.kernel import (
    TOP,
    has_free_var,
    is_fully_primed,
    is_l0,
    iterate,
    negate,
    occurs,
    prime,
    replace_subterm,
    substitute,
    unfolding,
    validate,
)
from mucut.proofs import (
    And,
    Axiom,
    AxiomMu,
    Box,
    Clo,
    Cut,
    Ind,
    Omega,
    OmegaBar,
    Or,
    Proof,
    _flawless,
    _require,
    and_node,
    ax,
    box_fit,
    box_node,
    clo_node,
    finite_nodes,
    map_premises,
    mark_plain,
    nu_node,
    omega_node,
    omega_phi,
    or_node,
    parts_checked,
    premise_added,
    top_intro,
)
from mucut.sequents import Sequent, _check, from_checked


def _fit_premise(p, concl, principal, parts):
    """Fit p as the premise of a rule concluding concl that adds parts: to
    concl without principal plus parts when p fits there, otherwise to
    concl plus parts, the two readings the checker accepts.  A principal
    of None (an omegabar rule) is never dropped."""
    strict = concl.without(principal).union(parts)
    if p.conclusion.issubset(strict):
        return fit(p, strict)
    return fit(p, concl.union(parts))


def _chain(first, step):
    """The derivations d_0 = first() and d_i = step(i, d_(i-1)) as a
    function of i, each built once, on demand and in index order, so that
    no index recurses into the one below it."""
    links = []

    def link(i):
        while len(links) <= i:
            links.append(step(len(links), links[-1]) if links else first())
        return links[i]

    return link


def _owned(build):
    """build(memo) for a fresh memo that lives as long as the proof
    returned.  It holds identity laws keyed by (builder, mu) (_law), laws
    built in an axmu node's context by (mu, context) (_law_in), weakenings
    by (proof, formulas) (cutelim.weaken) and monotonicity derivations by
    (a, nb, ac, ctx, primed) (_mono).  No two kinds of key meet: a
    monotonicity key has five items, and of the pairs a law's starts with
    a function, an in-context law's with a formula, a tuple, and a
    weakening's with a proof, which equals only itself.  Their thunks
    hold the memo that holds them;
    emptying it when that proof is freed breaks the cycle, so that
    reference counting frees the proof (entries made after that are still
    shared, but left to the cyclic collector)."""
    memo = {}
    out = build(memo)
    finalize(out, memo.clear)
    return out


def _law(build, mu, memo):
    """The identity law build(mu, memo), built once per (build, mu) in
    memo (_owned)."""
    key = (build, mu)
    law = memo.get(key)
    if law is None:
        law = memo[key] = build(mu, memo)
    return law


def _nu_over(concl, nu, derive):
    """The nu rule on nu, a member of concl, whose i-th premise is
    derive(i, a_i) for the i-th approximant a_i, fitted as _fit_premise
    does.  nu is a checked member, so its approximants are closed and
    valid and go in unchecked."""
    body = nu[1]

    def fn(i):
        a_i = iterate(body, TOP, i)
        return _fit_premise(derive(i, a_i), concl, nu, from_checked((a_i,)))

    return nu_node(concl, nu, fn)


# The rules that un-priming and context substitution settle before their
# own cases: the axiom they rebuild and the rules they refuse.
_LEAVES = (Axiom, AxiomMu, Ind, Cut)


def _leaf(tag, new_c, rewriter):
    """The axiom tag rebuilt to conclude new_c, or the refusal of the
    finitary-only rule or cut tag by the rewriter so named."""
    if isinstance(tag, Axiom):
        return ax(new_c, tag.p)
    if isinstance(tag, Cut):
        raise InternalInvariantError("%s requires a cut-free derivation" % rewriter)
    raise InternalInvariantError(
        "finitary-only rule inside an intermediate-system derivation"
    )


# ---------------------------------------------------------------------------
# selections


def apply_sigma(s, sel):
    """The sequent with the selected formulas primed.  Only formulas that
    priming changes are taken out and put back in their primed form."""
    if not sel:
        return s
    sel = frozenset(sel)
    if not s.issuperset(sel):
        stray = sorted(f for f in sel if f not in s)
        raise ValueError("selection outside the sequent: %r" % (stray,))
    # priming changes exactly the formulas with a plain nu binder, and no
    # prime has one: the formulas to move are those no selected prime
    # equals, and their primes are derived from members of the checked s
    moved = sel.difference(map(prime, sel))
    return from_checked((s - moved).union(map(prime, moved))) if moved else s


# ---------------------------------------------------------------------------
# identity laws


def identity_mu(mu):
    """Cut-free derivation of mu, ~mu (mu closed and mu-rooted, checked
    here): the nu rule on ~mu, each approximant premise obtained from the
    previous one by monotonicity plus a closure step.  Those premises are
    the links of one chain; embed builds an axmu node's law in the node's
    context over the same links (_law_in): this law weakened there."""
    return _owned(lambda memo: _identity_mu(mu, memo, Sequent))


def _identity_mu(mu, memo, sequent=from_checked):
    """identity_mu's law; mu is checked already, unless sequent checks it,
    and closed, as mu-rooted.  Its i-th premise is link i itself, which
    concludes mu and a_i alone."""
    _require(mu[0] == "mu", "identity law needs a mu-rooted formula")
    n = negate(mu)
    nbody = n[1]
    concl = sequent((mu, n))

    # mu is checked, so each approximant of the body of its closed
    # negation is closed and valid: the sequents pairing them are trusted
    def step(i, prev):
        a_prev = iterate(nbody, TOP, i - 1)
        mono = _monotone(prev, nbody, mu, a_prev, False, memo)
        return clo_node(from_checked((mu, iterate(nbody, TOP, i))), mu, mono)

    link = _chain(lambda: top_intro(from_checked((mu,))), step)
    law = _nu_over(concl, n, lambda i, a_i: link(i))
    # a base-language mu has no nub subformula, so monotonicity asks only
    # for laws of this kind: nu, closure and the propositional rules
    return mark_plain(law) if is_l0(mu) else law


def _law_in(mu, cs, memo):
    """The identity law of the checked mu weakened to conclude cs, node
    for node, but built there, once per (mu, E) in memo, E = cs - {mu, ~mu}:
    premise 0 is the law's first link weakened by E, and premise i the
    law's closure step built in E less the i-th approximant a_i, whose
    monotonicity (from link i - 1 to nb, the unfolding of mu, beside a_i)
    weakens only the shared links at its leaves."""
    law = _law(_identity_mu, mu, memo)
    ctx = cs.difference(law.conclusion)
    if not ctx or not law.conclusion.issubset(cs):
        return fit(law, cs)  # the law itself, or the refusal to fit it
    key = (mu, ctx)
    out = memo.get(key)
    if out is None:
        n = negate(mu)
        nbody, nb, link = n[1], unfolding(mu), law.premises

        def fn(i):
            if i == 0:
                return weaken(link(0), ctx, memo)
            a_i = iterate(nbody, TOP, i)
            e_i = ctx.without(a_i)
            if not e_i:
                return link(i)
            mono = _mono(link(i - 1), nbody, nb, a_i, e_i, False, memo)
            return clo_node(from_checked((mu, a_i)).union(e_i), mu, mono)

        out = memo[key] = nu_node(cs, n, fn)
        if law.plain:
            mark_plain(out)
    return out


def identity_mu_primed(mu):
    """Cut-free derivation of mu, (~mu)' by the replacement rule on mu's
    prime: each family output un-primes its witness.  When mu is already
    fully primed the witness is returned as is."""
    return _owned(lambda memo: _identity_mu_primed(mu, memo))


def _identity_mu_primed(mu, memo):
    _require(mu[0] == "mu", "identity law needs a mu-rooted formula")
    t = prime(mu)
    phi = omega_phi(t)
    concl = Sequent((mu, phi))

    def fn(delta, w):
        return _fit_premise(_deprime(w, mu, memo), concl, phi, delta)

    return omega_node(concl, t, fn)


# ---------------------------------------------------------------------------
# monotonicity


def monotone(d, a, b, c):
    """From d proving b, c: a derivation of (~a)(b), a(c), by recursion on
    the operator a (one free variable at most; closed binder subterms are
    discharged by the identity laws).  a, b and c are validated here: the
    construction trusts what it is given."""
    for f in (a, b, c):
        validate(f)
    return _owned(lambda memo: _monotone(d, a, b, c, False, memo))


def monotone_primed(d, a, b, c):
    """From d proving b, c': a derivation of (~a)(b), a'(c'), the primed
    twin of monotonicity, its arguments validated as monotone's are."""
    for f in (a, b, c):
        validate(f)
    return _owned(lambda memo: _monotone(d, a, b, c, True, memo))


def _same(f):
    return f


_EMPTY = from_checked(())


def _monotone(d, a, b, c, primed, memo):
    """Test the input once, then recurse on a without checks.  a, b and c
    are valid, a with at most the one variable free: the public entries
    validate them, and every caller here passes an approximant from
    iterate, a checked member or its memoized negation, or the validated
    formulas of an ind node.  So the test only compares d's conclusion
    with {b, img(c)} as a set, which makes b and the image of c closed as
    d's members are, and builds no Sequent to check them again.
    Every formula the recursion builds substitutes b or c into a (negated)
    subterm of a, possibly primed, so it is closed and valid, and its
    sequents are trusted."""
    img = prime if primed else _same
    _require(
        d.conclusion == frozenset((b, img(c))),
        "monotonicity input must conclude b and the image of c",
    )
    nb = substitute(negate(a), b)
    return _mono(d, a, nb, img(substitute(a, c)), _EMPTY, primed, memo)


def _mono(d, a, nb, ac, ctx, primed, memo):
    """Monotonicity for a, built in its final conclusion: nb = (~a)(b), ac
    = the image of a(c), and ctx, what the rules nearer the root add.  That
    is the proof built without ctx and weakened by it, node for node, but
    only the shared proofs at the leaves (d and the identity laws) are
    weakened, each by one context once per embedding (memo).  negate,
    substitute and prime distribute over and/or/box/dia roots, so a
    child's two formulas are components of its parent's.  Below an a
    without the variable the recursion never reaches d, so its derivation
    is built once per (a, nb, ac, ctx, primed) in memo, and every
    approximant step that asks for it gets the same object."""
    t = a[0]
    if t == "var":
        return weaken(d, ctx, memo)
    if has_free_var(a):
        return _mono_rule(d, a, nb, ac, ctx, primed, memo)
    key = (a, nb, ac, ctx, primed)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _mono_rule(d, a, nb, ac, ctx, primed, memo)
    return out


def _mono_rule(d, a, nb, ac, ctx, primed, memo):
    """_mono's derivation for an a that is not the variable, built anew."""
    t = a[0]
    if t == "mu" or t == "nu" or t == "nub":
        # a binder binds the variable, so a is closed and its own image:
        # nb is ~a and ac the image of a
        if t == "mu":
            return weaken(_law(_identity_mu, ac, memo), ctx, memo)
        if t == "nu" and not primed:
            return weaken(_law(_identity_mu, nb, memo), ctx, memo)
        _require(
            primed or is_fully_primed(a),
            "annotated binder subterm must be fully primed",
        )
        return weaken(_law(_identity_mu_primed, nb, memo), ctx, memo)
    own = from_checked((nb, ac))
    concl = own.union(ctx)
    if t == "atom" or t == "natom":
        return ax(concl, a if t == "atom" else negate(a))
    # a box rule takes the context into its side; the premises of an
    # and/or case carry it on
    ctx = ctx.difference(own)
    if t == "box" or t == "dia":
        ih = _mono(d, a[1], nb[1], ac[1], _EMPTY, primed, memo)
        return box_node(concl, ac if t == "box" else nb, ctx, ih)
    # a validated a is now an and or an or: the and rule splits p; its j-th
    # premise is the or rule on q over the j-th child, in a context grown
    # by the other component of q
    p, q = (ac, nb) if t == "and" else (nb, ac)

    def premise(j):
        grown = ctx.union(from_checked((q[3 - j],)))
        ih = _mono(d, a[j], nb[j], ac[j], grown, primed, memo)
        return or_node(from_checked((p[j], q)).union(ctx), q, ih)

    return and_node(concl, p, premise(1), premise(2))


# ---------------------------------------------------------------------------
# un-priming


def deprime(d, a):
    """Rewrite the cut-free derivation d, whose conclusion may contain the
    prime of a, into one concluding with a instead."""
    return _owned(lambda memo: _deprime(d, a, memo))


def _deprime(d, a, memo):
    ap = prime(a)
    if ap == a or ap not in d.conclusion:
        return d
    _require(is_l0(a), "un-priming target must be a base-language formula")
    new_c = d.conclusion.without(ap).add(a)
    return Proof.defer(new_c, lambda: _deprime_now(d, a, ap, new_c, memo))


def _deprime_now(d, a, ap, new_c, memo):
    tag = d.rule

    if isinstance(tag, _LEAVES):
        return _leaf(tag, new_c, "un-priming")

    if isinstance(tag, Box):
        p1 = d.premises[0]
        if ap == tag.principal:
            return box_fit(new_c, a, _deprime(p1, a[1], memo))
        if ap[0] == "dia" and ap[1] in p1.conclusion:
            p1 = _deprime(p1, a[1], memo)
        return box_fit(new_c, tag.principal, p1)

    if isinstance(tag, Omega) and omega_phi(tag.target) == ap:
        _require(a[0] == "nu", "replacement formula must prime a nu formula")
        _require(
            tag.target == prime(negate(a)),
            "replacement target disagrees with the un-priming target",
        )
        a0 = a[1]
        t2 = tag.target
        fam = d.premises

        # a is a checked member of new_c, so the approximants of its body
        # are closed and valid, and t2 is checked by the first link, built
        # before any step: the sequents pairing them are trusted
        def step(j, prev):
            a_prev = iterate(a0, TOP, j - 1)
            mono = _monotone(prev, negate(a0), a_prev, negate(a), True, memo)
            return clo_node(from_checked((iterate(a0, TOP, j), t2)), t2, mono)

        wit = _chain(lambda: top_intro((t2,)), step)

        def derive(i, a_i):
            if i == 0:
                return top_intro(d.conclusion.without(ap))
            return _deprime(fam(from_checked((a_i,)), wit(i)), a, memo)

        return _nu_over(new_c, a, derive)

    # a principal ap becomes a, and each premise first un-primes its parts;
    # in context the primed element rides along into the premises
    rewrite = isinstance(tag, (Or, And, Clo)) and tag.principal == ap
    if rewrite:
        tag = type(tag)(a)
    if isinstance(tag, OmegaBar):
        principal = None
    elif isinstance(tag, Omega):
        principal = omega_phi(tag.target)
    else:
        principal = tag.principal

    def fn(q, position):
        added = premise_added(tag, position)
        if rewrite:
            for x in added:
                q = _deprime(q, x, memo)
        return _fit_premise(_deprime(q, a, memo), new_c, principal, added)

    return map_premises(d, new_c, fn, tag if rewrite else None)


# ---------------------------------------------------------------------------
# context substitution

MODE_DELTA = "d"
MODE_S1 = "s1"
MODE_S2 = "s2"
_D = frozenset((MODE_DELTA,))
_SIGS = frozenset((MODE_S1, MODE_S2))


def _eff(modes, f, t):
    """Effective mode set: substitution modes only matter on formulas that
    actually contain the target."""
    if modes is _D or not occurs(f, t):
        return _D
    return modes


def _images(f, modes, t, b):
    out = []
    if MODE_DELTA in modes:
        out.append(f)
    if MODE_S1 in modes:
        out.append(replace_subterm(f, t, b))
    if MODE_S2 in modes:
        out.append(replace_subterm(f, t, prime(b)))
    return tuple(out)


def _merge(*mode_sets):
    acc = frozenset()
    for m in mode_sets:
        acc = acc | m
    return acc if acc else _D


class _Subst:
    """One context-substitution pass: replace chosen occurrences of the
    primed mu formula t (per-formula mode sets) by b or b', cutting
    against the induction-premise embeddings at every closure step that
    unfolds t itself."""

    def __init__(self, asm1, asm2, mu, b):
        self.asm1 = asm1
        self.asm2 = asm2
        self.b = b
        self.t = prime(mu)
        self.cf = substitute(mu[1], b)

    def images(self, f, modes):
        return _images(f, _eff(modes, f, self.t), self.t, self.b)

    def img_sequent(self, s, rho):
        """The images of the members of the checked sequent s under rho:
        each is a member or a member with occurrences of t replaced by the
        checked b or its prime, so none is checked again."""
        acc = []
        for f in s:
            acc.extend(self.images(f, rho.get(f, _D)))
        return from_checked(acc)

    def _principal_image(self, phi, rho):
        imgs = self.images(phi, rho.get(phi, _D))
        if len(imgs) != 1:
            raise InternalInvariantError(
                "principal formula with several substitution images"
            )
        return imgs[0]

    def _child_rho(self, premise_concl, rho, parent_concl, parts, part_modes):
        out = {}
        for x in premise_concl:
            sets = []
            if x in parent_concl:
                sets.append(_eff(rho.get(x, _D), x, self.t))
            if x in parts:
                sets.append(_eff(part_modes, x, self.t))
            out[x] = _merge(*sets)
        return out

    def sub(self, d, rho):
        """d rewritten under rho, or d itself when no formula of its
        conclusion has a mode other than delta."""
        rho = {f: _eff(rho.get(f, _D), f, self.t) for f in d.conclusion}
        if all(m == _D for m in rho.values()):
            return d
        new_c = self.img_sequent(d.conclusion, rho)
        return Proof.defer(new_c, lambda: self._run(d, rho, new_c))

    def _run(self, d, rho, new_c):
        tag = d.rule
        c = d.conclusion

        if isinstance(tag, _LEAVES):
            return _leaf(tag, new_c, "context substitution")

        if isinstance(tag, Clo) and tag.principal == self.t:
            modes = _eff(rho.get(self.t, _D), self.t, self.t)
            if modes & _SIGS:
                return self._clo_on_target(d, rho, modes, new_c)

        if isinstance(tag, Box):
            phi = tag.principal
            body_modes = _eff(rho.get(phi, _D), phi, self.t)
            p1 = d.premises[0]
            rho2 = {}
            for x in p1.conclusion:
                sets = []
                if x == phi[1]:
                    sets.append(_eff(body_modes, x, self.t))
                dx = ("dia", x)
                if dx in c:
                    sets.append(_eff(rho.get(dx, _D), dx, self.t))
                rho2[x] = _merge(*sets)
            phi_img = self._principal_image(phi, rho)
            return box_fit(new_c, phi_img, self.sub(p1, rho2))

        new_tag = None
        if isinstance(tag, (Omega, OmegaBar)):
            phi2 = omega_phi(tag.target)
            if (rho.get(phi2, _D) & _SIGS) and occurs(phi2, self.t):
                raise InternalInvariantError(
                    "replacement formula carries a substitution mode"
                )
            if isinstance(tag, Omega):
                _flawless(tag, new_c)
            part_modes = _D
        else:
            phi = tag.principal
            if phi != self.t and (rho.get(phi, _D) & _SIGS) and occurs(
                phi, self.t
            ) and phi[0] in ("mu", "nu", "nub"):
                raise InternalInvariantError(
                    "binder-rooted substitution image other than the target"
                )
            new_tag = type(tag)(self._principal_image(phi, rho))
            part_modes = _eff(rho.get(phi, _D), phi, self.t)
        checked = parts_checked(tag, c)

        def fn(q, position):
            parts = premise_added(tag, position)
            rho2 = self._child_rho(q.conclusion, rho, c, parts, part_modes)
            imgs = [g for x in parts for g in self.images(x, part_modes)]
            if checked:
                # images of the parts of c's checked principal, and of b
                imgs = from_checked(imgs)
            return fit(self.sub(q, rho2), new_c.union(imgs))

        return map_premises(d, new_c, fn, new_tag)

    def _clo_on_target(self, d, rho, modes, new_c):
        c = d.conclusion
        t = self.t
        u = unfolding(t)
        f_star = prime(self.cf)
        u_modes = frozenset()
        if MODE_DELTA in modes:
            u_modes = u_modes | _D
        if modes & _SIGS:
            u_modes = u_modes | frozenset((MODE_S2,))
        prem = d.premises[0]
        rho2 = self._child_rho(prem.conclusion, rho, c, (u,), u_modes)
        cur = self.sub(prem, rho2)
        if MODE_DELTA in modes:
            cur = clo_node(cur.conclusion.without(u).add(t), t, cur)
        # each cut drops f_star, unless f_star is the image it adds (as it
        # is for mu X . X, whose unfolding is the invariant itself)
        if MODE_S1 in modes:
            gcut = cur.conclusion.add(self.b)
            if MODE_S2 not in modes and f_star != self.b:
                gcut = gcut.without(f_star)
            cur = cut_fit(gcut, self.cf, cur, self.asm1)
        if MODE_S2 in modes:
            gcut = cur.conclusion.add(prime(self.b))
            if f_star != prime(self.b):
                gcut = gcut.without(f_star)
            cur = cut_fit(gcut, self.cf, cur, self.asm2)
        _require(
            cur.conclusion == new_c,
            "substitution stack does not reach the image sequent",
        )
        return cur


def subst_context(d, rho, asm1, asm2, mu, b):
    """Rewrite the cut-free derivation d according to the mode map rho
    (formula -> set of modes): delta keeps a formula, s1 replaces the
    primed mu target by b in it, s2 by b'.  asm1 and asm2 prove the primed
    negated unfolding alongside b and b' respectively; they are cut in at
    every closure step on the target itself.  b is checked here, once:
    the images put it in sequents unchecked."""
    _check(b)
    return _Subst(asm1, asm2, mu, b).sub(d, rho)


# ---------------------------------------------------------------------------
# induction conversion


def ind_to_omega(asm1, asm2, mu, b):
    """From embeddings of the induction premise (asm1 proving the primed
    negated unfolding with b, asm2 with b'), the pair of replacement-rule
    derivations concluding phi, b and phi, b' where phi is the primed
    negation of mu."""
    t = prime(mu)
    ncf_p = prime(negate(substitute(mu[1], b)))
    _require(
        asm1.conclusion.equals((ncf_p, b)),
        "first induction embedding has the wrong conclusion",
    )
    _require(
        asm2.conclusion.equals((ncf_p, prime(b))),
        "second induction embedding has the wrong conclusion",
    )
    # b and b' are checked members there; phi, a closed binder, is derived
    # from mu, which they vouch for only where its body is not the variable
    phi = validate(omega_phi(t))

    def mk(sig_mode, b_img):
        concl = from_checked((phi, b_img))

        def fn(delta, w):
            rho = {x: _D for x in delta}
            modes = frozenset((sig_mode,))
            if t in delta:
                modes = modes | _D
            rho[t] = modes
            out = _Subst(asm1, asm2, mu, b).sub(w, rho)
            return _fit_premise(out, concl, phi, delta)

        return omega_node(concl, t, fn)

    return mk(MODE_S1, b), mk(MODE_S2, prime(b))


# ---------------------------------------------------------------------------
# the embedding

# The rules that embed copies, with nothing primed, without adding a cut or
# a replacement rule.
_PLAIN = (Axiom, AxiomMu, Or, And, Box, Clo)


def embeds_plainly(p):
    """True when embedding p with nothing primed gives a proof without cuts
    and replacement rules: p has only the rules of _PLAIN, and every axmu
    formula is in the base language, so that its identity law is built
    from nu, closure and the propositional rules alone.  The walk stops at
    the first node that fails."""
    for q in finite_nodes(p):
        tag = q.rule
        if not isinstance(tag, _PLAIN) or isinstance(tag, AxiomMu) and not is_l0(tag.mu):
            return False
    return True


def embed(p, sel=()):
    """Embed the finite proof p into the intermediate systems, priming the
    selected conclusion formulas: the result is the same in every Omega_k,
    and it checks in those whose index is at least the level bound of p.
    The embedding of every subproof that embeds_plainly says has no cut
    and no replacement rule, under a selection that priming leaves as it
    is, is marked plain (_embed), the root's included."""
    sel = frozenset(sel)
    if not p.conclusion.issuperset(sel):
        raise ValueError("selection outside the end sequent")
    return _owned(lambda memo: _embed(p, sel, memo))


def _embed(p, sel, memo, plain=False):
    """The embedding of p under sel, deferred, and marked plain when p
    embeds_plainly and priming changes no selected formula.  Each premise
    of a marked embedding is marked too (plain), without a walk: its
    subproof embeds plainly, and the parts of an inert formula are inert."""
    cs = apply_sigma(p.conclusion, sel)
    if not plain and isinstance(p.rule, _PLAIN):
        plain = not sel.difference(map(prime, sel)) and embeds_plainly(p)
    out = Proof.defer(cs, lambda: _embed_now(p, sel, cs, memo, plain))
    return mark_plain(out) if plain else out


def _embed_now(p, sel, cs, memo, plain):
    tag = p.rule

    if isinstance(tag, Axiom):
        return ax(cs, tag.p)

    if isinstance(tag, AxiomMu):
        # an input axmu's formula enters here, and _identity_mu trusts it
        m = tag.mu
        mu = validate(prime(m) if m in sel else m)
        if negate(m) in sel:
            return fit(_law(_identity_mu_primed, mu, memo), cs)
        return _law_in(mu, cs, memo)

    if isinstance(tag, Box):
        # the body follows the principal, every other formula its diamond
        phi = tag.principal
        body = phi[1]
        q = p.premises[0]
        sp = q.conclusion.intersection([f[1] for f in sel if f[0] == "dia"]) - {body}
        phis = phi in sel
        if phis and body in q.conclusion:
            sp |= {body}
        return box_fit(cs, prime(phi) if phis else phi, _embed(q, sp, memo, plain))

    if isinstance(tag, (Or, And, Clo)):
        # the principal's selection decides its parts
        phi = tag.principal
        phis = phi in sel
        img = prime if phis else _same
        phi_img = img(phi)
        checked = parts_checked(tag, p.conclusion)

        def fn(q, j):
            parts = premise_added(tag, j)
            sp = (q.conclusion & sel).difference(parts)
            if phis:
                sp |= q.conclusion.intersection(parts)
            imgs = [img(x) for x in parts]
            if checked:
                imgs = from_checked(imgs)
            return _fit_premise(_embed(q, sp, memo, plain), cs, phi_img, imgs)

        return map_premises(p, cs, fn, type(tag)(phi_img))

    if isinstance(tag, Cut):
        cf = tag.formula
        ncf = negate(cf)
        g = p.conclusion
        q1, q2 = p.premises
        if not q1.conclusion.is_add(g, cf):
            q1, q2 = q2, q1
        _require(
            q1.conclusion.is_add(g, cf) and q2.conclusion.is_add(g, ncf),
            "cut premises do not match the cut formula",
        )
        s1 = q1.conclusion & sel | {cf}
        s2 = q2.conclusion & sel | {ncf}
        return cut_fit(cs, cf, _embed(q1, s1, memo), _embed(q2, s2, memo))

    if isinstance(tag, Ind):
        return _embed_ind(p, tag, sel, cs, memo)

    raise InternalInvariantError(
        "rule not part of the finitary system: %r" % (tag,)
    )


def _embed_ind(p, tag, sel, cs, memo):
    # the conclusion checks only what equals ~m and b, and monotonicity
    # trusts what it is given, so both are validated here, once per node
    m = validate(tag.mu)
    bb = validate(tag.b)
    n = negate(m)
    aop = m[1]
    cf = substitute(aop, bb)
    ncf = negate(cf)
    prem = p.premises[0]

    if n in sel:
        asm1 = _embed(prem, frozenset((ncf,)), memo)
        asm2 = _embed(prem, frozenset((ncf, bb)), memo)
        o1, o2 = ind_to_omega(asm1, asm2, m, bb)
        return fit(o2 if bb in sel else o1, cs)

    bsel = bb in sel
    b_img = prime(bb) if bsel else bb
    naop = negate(aop)
    s1 = frozenset((ncf,)) | (frozenset((bb,)) if bsel else frozenset())
    ih1 = _embed(prem, s1, memo)
    ih2 = _embed(prem, frozenset((ncf, bb)), memo)
    pb = prime(bb)

    # link j pairs the monotonicity step into the j-th approximant with
    # the chain derivation of that approximant and b'.  n is a checked
    # member of cs, so the approximants of its body are closed and valid,
    # and b' is checked by the first link, built before any step; b_img
    # is checked where it joins an approximant
    def step(j, prev):
        a_prev = iterate(naop, TOP, j - 1)
        mono = _monotone(prev[1], aop, a_prev, bb, True, memo)
        return mono, cut_fit(from_checked((iterate(naop, TOP, j), pb)), cf, mono, ih2)

    link = _chain(lambda: (None, top_intro((pb,))), step)

    def derive(i, a_i):
        if i == 0:
            return top_intro((b_img,))
        return cut_fit(from_checked((a_i,)).add(b_img), cf, link(i)[0], ih1)

    return _nu_over(cs, n, derive)
