"""Collapsing replacement rules out of a cut-free proof.

A bar-replacement node of level l concludes Gamma from a first premise
Gamma, t together with a family over (Delta, witness) pairs.  Feeding the
family Delta = Gamma with the node's own first premise as witness yields
another proof of Gamma that no longer starts with that node; repeating
this until the root is an ordinary rule, and recursing into premises,
removes every replacement rule above the chosen level.  Witnesses are
collapsed one level down first, so each family sees an argument from the
system below it.  The family's domain, which its target fixes, is the one
check of a plug's argument: Gamma must be l-positive.

collapse(p, 0) on a cut-free proof leaves only the plain infinitary
rules, so the collapsed proof is itself the S-infinity derivation; the
S-infinity judge of the checker says whether a window of it is one.

Neither eliminate nor collapse rewrites a plain proof (Proof.plain: a
rule of S-infinity at every node), so each returns a marked proof
itself, at the root or at any premise, where it would otherwise copy it
node by node.  The marked proofs are the identity laws on base-language
formulas, truth introductions, their weakenings and the embedding of a
proof without cuts and inductions, which is then its own eliminated and
collapsed stage.

verdict says whether one run of the pipeline passed: every stage is free
of error leaves and checks in its own system, and the final window is
cut-free and nub-free.
"""

from __future__ import annotations

from collections import namedtuple

from mucut.cutelim import DEFAULT_FUEL, eliminate
from mucut.checker import (
    SYSTEM_SINF,
    check_observation,
    in_l0,
    level_bound,
    omega_system,
)
from mucut.embed import embed
from mucut.errors import FuelExhausted, InternalInvariantError
from mucut.proofs import (
    Axiom,
    AxiomMu,
    Cut,
    Omega,
    OmegaBar,
    Proof,
    map_premises,
    observation_errors,
    observation_rules,
    observe,
)

# The most plugs collapse makes at one node it forces.
MAX_PLUGS = 100_000

# The stages pipeline returns, in the order verdict reads them.
STAGES = ("embedded", "eliminated", "collapsed", "sinf")


def collapse(p, h=0):
    """Remove every replacement rule of level above h from the cut-free
    proof p, lazily, preserving the conclusion.  A plain proof has none,
    so it is its own result."""
    if p.plain:
        return p
    return Proof.defer(p.conclusion, lambda: _collapse_now(p, h))


def _collapse_now(p, h):
    """collapse(p, h), forced: plug the root while it is a bar-replacement
    rule of level above h, then collapse the premises.  A plug calls the
    node's family on its conclusion and its first premise collapsed one
    level down, and the family refuses an argument outside its domain,
    such as a conclusion that is not positive enough, before it runs or
    forces the witness."""
    d = p
    for _ in range(MAX_PLUGS):
        tag = d.rule
        if not (isinstance(tag, OmegaBar) and tag.h > h):
            break
        prem = d.premises
        witness = collapse(prem.first, tag.h - 1)
        d = prem.fam(d.conclusion, witness)
        if d.conclusion != p.conclusion:
            raise InternalInvariantError(
                "collapse plug changed the conclusion"
            )
    else:
        raise FuelExhausted("collapse plug budget exhausted")

    tag = d.rule
    if isinstance(tag, Cut):
        raise InternalInvariantError("collapse requires a cut-free proof")
    if isinstance(tag, (Omega, OmegaBar)) and tag.h > h:
        raise InternalInvariantError(
            "replacement rule above the collapse level at the root"
        )
    if d.plain or isinstance(tag, (Axiom, AxiomMu)):
        return d
    return map_premises(d, d.conclusion, lambda q, _: collapse(q, h))


def pipeline(p, fuel=DEFAULT_FUEL, trace=None):
    """The full transformation: embed (no formulas primed), eliminate
    cuts and collapse the replacement rules.  Returns the four stages, all
    lazy; the last, the plain infinitary proof, is the collapsed proof
    itself.  fuel bounds the cut reductions of eliminate only; collapse
    does not draw on it and instead allows at most MAX_PLUGS plugs at each
    node it forces.

    eliminate and collapse pass a plain proof through as itself, so when
    embed marks the embedding plain (embeds_plainly: p has no cut and no
    induction, and its axmu formulas are in the base language), the
    embedded proof is the eliminated and the collapsed stage, the same
    object, and no reduction, fuel or trace step is spent.  The stages do
    not depend on the index of the system they are judged in; verdict
    reads it off p."""
    embedded = embed(p)
    eliminated = eliminate(embedded, fuel=fuel, trace=trace)
    collapsed = collapse(eliminated, 0)
    return dict(zip(STAGES, (embedded, eliminated, collapsed, collapsed)))


# A stage's name, its observe window, the name of its system, the judge's
# report and the text of its first failure; report and failure are None
# when nothing was judged, and failure is None when the stage passed.
StageVerdict = namedtuple("StageVerdict", "name window system report failure")
# k is the index of the intermediate system; error is the first error leaf
# as (stage, text), and when it is set nothing is judged.
Verdict = namedtuple("Verdict", "k error stages cut_free nubar_free passed")


def verdict(p, stages, depth, samples=(0, 1, 2), probe_budget=1):
    """Whether the stages pipeline made from the S proof p pass, read off
    their observe windows: with no error leaf, the embedded and eliminated
    stages are judged in Omega_k, k = level_bound(p) as kept on p, and the
    collapsed and sinf stages in S-infinity.  A stage fails with its
    report's first violation, at the depth bound too, where the judge
    reads each node's rule.  The final window must also be cut-free and
    nub-free."""
    k = level_bound(p)
    windows = [observe(stages[s], depth, samples, probe_budget) for s in STAGES]
    error = next(
        ((name, e) for name, o in zip(STAGES, windows) for e in observation_errors(o)),
        None,
    )
    omega, judged = omega_system(k), []
    for name, o in zip(STAGES, windows):
        system = SYSTEM_SINF if name in ("collapsed", "sinf") else omega
        report = failure = None
        if error is None:
            report = check_observation(o, system, depth)
            failure = None if report.ok else "%s: %s" % report.violations[0]
        judged.append(StageVerdict(name, o, system.name, report, failure))
    cut_free = not any(isinstance(r, Cut) for r in observation_rules(windows[-1]))
    nubar_free = in_l0(windows[-1])
    passed = not error and cut_free and nubar_free and all(not s.failure for s in judged)
    return Verdict(k, error, tuple(judged), cut_free, nubar_free, passed)
