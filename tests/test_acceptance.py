"""Acceptance gate: one test per criterion A1-A8.

Each test prints exactly one ``A<n> <label>: PASS/FAIL (<seconds>)`` line
(visible under ``pytest -s``) and enforces its wall-clock budget.  The
helpers used by A2-A6 return the artifacts they produce as bytes so that
A7 can rerun them and compare runs byte for byte.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import Counter

from conftest import run_cli
from mutation_harness import classify_accepted, run_harness

from mucut.checker import (
    SYSTEM_SINF,
    check_bounded,
    check_observation,
    level_bound,
    omega_system,
    subformula_report,
)
from mucut.collapse import collapse
from mucut.corpus import CORPUS, lemma_suite, random_formulas
from mucut.cutelim import DEFAULT_FUEL, eliminate
from mucut.embed import (
    apply_sigma,
    deprime,
    embed,
    identity_mu,
    identity_mu_primed,
    monotone,
    monotone_primed,
)
from mucut.kernel import atom, level, natom, negate, prime, size, substitute
from mucut.proofs import (
    SINF_TAGS,
    AxiomMu,
    Cut,
    Ind,
    ax,
    observation_errors,
    observation_rules,
    observation_sequents,
    observe,
)
from mucut.sequents import Sequent
from mucut.sexpr import observation_dumps, report_dumps
from mucut.syntax import parse_form, parse_formula, print_form


@contextlib.contextmanager
def _criterion(label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("%s: FAIL (%.2fs)" % (label, time.perf_counter() - t0))
        raise
    dt = time.perf_counter() - t0
    if budget is None:
        print("%s: PASS (%.2fs)" % (label, dt))
    else:
        assert dt < budget, "%s exceeded %ss budget: %.2fs" % (label, budget, dt)
        print("%s: PASS (%.2fs < %ds)" % (label, dt, budget))


def test_a1_syntax_laws():
    with _criterion("A1 syntax laws", 5):
        forms = random_formulas(101, 10_000)
        assert len(forms) == 10_000
        for f in forms:
            assert size(f) <= 30 and level(f) <= 3
            assert negate(negate(f)) == f
            assert level(negate(f)) == level(f)
            pf = prime(f)
            assert level(pf) == level(f)
            assert prime(pf) == pf
            assert parse_formula(print_form(f)) == f
            assert parse_form(print_form(pf)) == pf


def _a2_artifacts():
    suite = lemma_suite()
    assert len(suite) == 12
    assert sorted({level(m) for m in suite}) == [1, 2]
    arts = {}
    for m in suite:
        system = omega_system(level(m))
        a = m[1]
        b, c = natom(5), atom(5)
        d = ax(Sequent((b, c)), c)
        outs = {
            "identity_mu": identity_mu(m),
            "identity_mu_primed": identity_mu_primed(m),
            "monotone": monotone(d, a, b, c),
            "monotone_primed": monotone_primed(d, a, b, c),
        }
        outs["deprime"] = deprime(outs["identity_mu_primed"], negate(m))
        assert outs["identity_mu"].conclusion == Sequent((m, negate(m)))
        assert outs["identity_mu_primed"].conclusion == Sequent(
            (m, prime(negate(m)))
        )
        assert outs["monotone"].conclusion == Sequent(
            (substitute(negate(a), b), substitute(a, c))
        )
        assert outs["monotone_primed"].conclusion == Sequent(
            (substitute(negate(a), b), prime(substitute(a, c)))
        )
        assert outs["deprime"].conclusion == Sequent((m, negate(m)))
        for fn, q in outs.items():
            report = check_bounded(q, system, 8, samples=(0, 1, 2, 3), probe_budget=1)
            assert report.ok, (print_form(m), fn, report.violations[:2])
            assert not report.violations
            key = "%s|%s" % (print_form(m), fn)
            arts[key] = (
                observation_dumps(observe(q, 4)) + report_dumps(report)
            ).encode()
    return arts


def test_a2_identity_monotonicity_suite():
    with _criterion("A2 identity/monotonicity suite", 10):
        _a2_artifacts()


def _a3_artifacts():
    arts = {}
    n_embeds = 0
    for name, build in CORPUS.items():
        p = build()
        k = level_bound(p)
        system = omega_system(k)
        forms = p.conclusion.forms
        for r in range(len(forms) + 1):
            for sel in itertools.combinations(forms, r):
                q = embed(p, sel)
                assert q.conclusion == apply_sigma(p.conclusion, frozenset(sel))
                o = observe(q, 6)
                assert not any(
                    isinstance(t, (Ind, AxiomMu))
                    for t in observation_rules(o)
                    if t is not None
                ), (name, sel)
                report = check_bounded(q, system, 6)
                assert report.ok, (name, sel, report.violations[:2])
                key = "%s|%s" % (name, ",".join(print_form(f) for f in sel))
                arts[key] = (observation_dumps(o) + report_dumps(report)).encode()
                n_embeds += 1
    assert n_embeds == 12
    return arts


def test_a3_embedding_all_selections():
    with _criterion("A3 embedding, all selections", 10):
        _a3_artifacts()


def _a4_artifacts():
    assert DEFAULT_FUEL == 100_000
    arts = {}
    for name, build in CORPUS.items():
        p = build()
        q = eliminate(embed(p))
        assert q.conclusion == p.conclusion
        for depth in (4, 6, 8):
            o = observe(q, depth)
            assert not any(
                isinstance(t, Cut) for t in observation_rules(o) if t is not None
            ), (name, depth)
            assert not observation_errors(o), (name, depth)
            arts["%s|depth%d" % (name, depth)] = observation_dumps(o).encode()
    return arts


def test_a4_cut_elimination():
    with _criterion("A4 cut elimination", 30):
        _a4_artifacts()


def _a5_artifacts():
    arts = {}
    for name, build in CORPUS.items():
        p = build()
        s = collapse(eliminate(embed(p)), 0)
        assert s.conclusion == p.conclusion
        o = observe(s, 6)
        # the S-infinity judge checks the nodes above the depth bound; the
        # rules at the bound are read off the window
        assert check_observation(o, SYSTEM_SINF, 6).ok, name
        assert all(
            isinstance(t, SINF_TAGS) for t in observation_rules(o) if t is not None
        ), name
        assert all(sq.max_nubar_level() < 0 for sq in observation_sequents(o)), name
        assert not observation_errors(o), name
        report = subformula_report(s, 6)
        assert report.ok, (name, report.violations[:2])
        arts[name] = (observation_dumps(o) + report_dumps(report)).encode()
    return arts


def test_a5_collapse_to_plain_system():
    with _criterion("A5 collapse to the plain system", 30):
        _a5_artifacts()


def _a6_artifacts(base_dir):
    src = base_dir / "src"
    out = base_dir / "out"
    code, stdout, stderr = run_cli(["corpus", "--out", str(src)])
    assert code == 0, stderr
    arts = {"corpus-listing": stdout.encode()}
    for f in sorted(src.iterdir()):
        arts["src|" + f.name] = f.read_bytes()
    for sproof in sorted(src.glob("*.sproof")):
        trace = out / (sproof.stem + ".trace")
        code, stdout, stderr = run_cli(
            [
                "pipeline",
                str(sproof),
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0, (sproof.name, stderr)
        assert stdout == "cut-free: yes, nubar-free: yes\n", (sproof.name, stdout)
    for f in sorted(out.iterdir()):
        arts["out|" + f.name] = f.read_bytes()
    nested_trace = (out / "e4-nested.trace").read_text()
    assert any(" omegabar-2 " in line for line in nested_trace.splitlines())
    assert any(" omegabar-1 " in line for line in nested_trace.splitlines())
    return arts


def test_a6_pipeline_end_to_end(tmp_path):
    with _criterion("A6 pipeline end to end", 60):
        arts = _a6_artifacts(tmp_path)
        stems = ("e1-ind-top", "e2-top-cut", "e3-axmu", "e4-nested")
        stages = ("embedded", "eliminated", "collapsed", "sinf")
        for stem in stems:
            assert "out|%s.summary" % stem in arts
            for stage in stages:
                assert "out|%s.%s.obs" % (stem, stage) in arts


def test_a7_determinism(tmp_path):
    with _criterion("A7 determinism", None):
        assert _a2_artifacts() == _a2_artifacts()
        assert _a3_artifacts() == _a3_artifacts()
        assert _a4_artifacts() == _a4_artifacts()
        assert _a5_artifacts() == _a5_artifacts()
        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        assert _a6_artifacts(run1) == _a6_artifacts(run2)


def test_a8_mutation_robustness():
    with _criterion("A8 mutation robustness", None):
        records = run_harness(20240816, 200)
        assert len(records) == 200
        rejected = sum(1 for r in records if not r[4])
        assert rejected / len(records) >= 0.95, rejected
        families = Counter(
            classify_accepted(name, path, kind, detail)
            for name, path, kind, detail, accepted in records
            if accepted
        )
        assert families == Counter(
            {"cut-premise-order": 6, "axiom-weakening": 2}
        ), families
        kinds_drawn = {r[2] for r in records}
        assert kinds_drawn == {
            "add-form",
            "drop-form",
            "tweak-atom",
            "swap-premises",
            "retag",
            "graft-axiom",
        }, kinds_drawn
