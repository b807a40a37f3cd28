"""Shared test helpers: the deterministic Hypothesis profile, the
refused system spellings, Hypothesis strategies of literals and of
closed mu formulas, the pipeline's pass assertion, an in-process
command-line runner, a counter of the walks level_bound makes, a switch
that turns the plain mark off, one that turns splicing off, a window made
afresh, the window a proof keeps and a reset of the windows kept.  The
proof and formula builders the tests share live in `mucut.corpus`."""

from __future__ import annotations

import contextlib
import gc
import io
import random
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mucut import checker, proofs
from mucut.checker import check_finite
from mucut.collapse import pipeline, verdict
from mucut.corpus import random_form
from mucut.kernel import atom, natom, size
from mucut.proofs import Proof, observe

# Property tests draw the same examples on every run and keep no example
# database, so a failure found once is found again on every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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


def _closed_mu(seed):
    """The first mu-rooted formula of size 12 or less that
    corpus.random_form draws from the seed: closed, in the base language
    and of level 1-3."""
    rng = random.Random(seed)
    while True:
        f = random_form(rng, rng.randint(2, 12), rng.randint(1, 3))
        if f[0] == "mu" and size(f) <= 12:
            return f


# Closed base-language mu formulas, drawn by the corpus's formula builder.
CLOSED_MUS = st.integers(0, 2**32 - 1).map(_closed_mu)


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


def _unmarked(p):
    return p


@contextlib.contextmanager
def plain_marks_off():
    """No proof built or forced inside gets the plain mark, so cut
    elimination and collapsing copy every node: each module of the
    package that calls proofs.mark_plain gets a stand-in that marks
    nothing.  The shared probe witnesses were marked when they were
    built, so their memo is emptied on entry and again on exit.  A lazy
    proof made inside must be observed inside."""
    mark = proofs.mark_plain
    users = [
        module for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "mucut" and getattr(module, "mark_plain", None) is mark
    ]
    with pytest.MonkeyPatch.context() as mp:
        for module in users:
            mp.setattr(module, "mark_plain", _unmarked)
        proofs._probe.cache_clear()
        try:
            yield
        finally:
            proofs._probe.cache_clear()


@contextlib.contextmanager
def splicing_off():
    """observe shares no subwindow: each step of a walk drops the window
    its proof keeps and makes it afresh, flagging none, so neither a
    (proof, depth) pair met again nor a marked proof's window is shared.
    Each window is walked whole, and the plain marks stay on.  The proofs
    keep the last windows made inside, which a later walk outside shares
    as any other."""
    walk = proofs._observe

    def unshared(p, depth, samples, probe_budget, splice):
        p._window = None
        return walk(p, depth, samples, probe_budget, False)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proofs, "_observe", unshared)
        yield


def fresh_window(p, depth, samples=(0, 1, 2), probe_budget=1):
    """The window observe gives p, made afresh with splicing off: whole,
    with no subwindow flagged and no report or text kept yet."""
    with splicing_off():
        return observe(p, depth, samples, probe_budget)


def kept_windows(p):
    """The windows the proof p keeps: none, or the last one made for it."""
    return [] if p._window is None else [p._window[1]]


def forget_windows():
    """Every proof alive drops the window it keeps, so the windows proofs
    keep afterwards are the ones the walks that follow make."""
    for q in gc.get_objects():
        if isinstance(q, Proof):
            q._window = None
