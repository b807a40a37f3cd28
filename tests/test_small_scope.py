"""A small-scope sweep: every closed mu-rooted formula up to size 5 over
p0, p1 and their negations, through the fixed-point axiom and the
top-invariant induction cut of the benchmark's generator, passes the
pipeline's verdict, and the level bound its S check keeps is the one a
fresh walk finds.  There is no skip list.  The sweep up to size 6 is
marked `sweep` and deselected by default; run it with `-m sweep`."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "pipebench")]

from gen import axmu, top_induction_cut  # noqa: E402
from mucut.checker import check_finite, level_bound  # noqa: E402
from mucut.collapse import pipeline, verdict  # noqa: E402
from mucut.kernel import X, atom, has_free_var, natom  # noqa: E402
from mucut.sexpr import proof_dumps, proof_loads  # noqa: E402
from mucut.syntax import print_form  # noqa: E402

LEAVES = (atom(0), atom(1), natom(0), natom(1), X)


def formulas_of_size(n):
    """Every formula of exactly n nodes over LEAVES, the unary box, dia, mu
    and nu, and the binary and, or."""
    if n == 1:
        return list(LEAVES)
    out = [(t, b) for t in ("box", "dia", "mu", "nu") for b in formulas_of_size(n - 1)]
    for i in range(1, n - 1):
        for left in formulas_of_size(i):
            for right in formulas_of_size(n - 1 - i):
                out += [("and", left, right), ("or", left, right)]
    return out


def small_mu_formulas(max_size):
    """The closed mu-rooted formulas of size at most max_size."""
    return [
        f
        for n in range(2, max_size + 1)
        for f in formulas_of_size(n)
        if f[0] == "mu" and not has_free_var(f)
    ]


def _failures(forms):
    """What fails for each formula, through both proof builders: its S
    check, the level bound that check keeps, or the pipeline's verdict."""
    failed = []
    for f in forms:
        for build in (axmu, top_induction_cut):
            p = build(f)
            fresh = proof_loads(proof_dumps(p))
            if not check_finite(p).ok or level_bound(p) != level_bound(fresh):
                failed.append("%s %s: level bound" % (build.__name__, print_form(f)))
            if not verdict(p, pipeline(p), 6).passed:
                failed.append("%s %s" % (build.__name__, print_form(f)))
    return failed


def test_every_small_mu_formula_passes_the_pipeline():
    forms = small_mu_formulas(5)
    assert len(forms) == 1075
    assert _failures(forms) == []


@pytest.mark.sweep
def test_every_mu_formula_up_to_size_6_passes_the_pipeline():
    forms = small_mu_formulas(6)
    assert len(forms) == 8155
    assert _failures(forms) == []
