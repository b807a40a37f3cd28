"""Shared test helpers: a seeded formula generator and an in-process
command-line runner.  Everything here is deterministic."""

from __future__ import annotations

import contextlib
import io
import random

from hypothesis import settings

from mucut.kernel import level, size

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


def run_cli(argv):
    """Run the command-line front end in-process.

    Returns (exit_code, stdout, stderr)."""
    from mucut.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
