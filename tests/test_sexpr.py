"""Serialization: s-expression reading/writing, proof and report text,
and exact canonical strings."""

from __future__ import annotations

import re

import pytest

from mucut.checker import check_finite
from mucut.corpus import CORPUS
from mucut.kernel import TOP, atom, natom
from mucut.proofs import observe, top_intro
from mucut.sexpr import (
    SexprError,
    Sym,
    dumps,
    loads,
    observation_dumps,
    proof_dumps,
    proof_loads,
    report_dumps,
    step_to_sx,
    summary_to_sx,
)
from mucut.sequents import seq


def test_dumps_oracles():
    assert dumps(3) == "3"
    assert dumps("ok") == '"ok"'
    assert dumps(Sym("ok")) == "ok"
    assert dumps(("a", ("b", 1), "c")) == '("a" ("b" 1) "c")'
    assert dumps(()) == "()"


def test_loads_oracles():
    assert loads("3") == 3
    assert loads('"x"') == "x"
    assert loads("x") == Sym("x")
    assert loads("(a b)") == [Sym("a"), Sym("b")]
    assert loads('(a (b 1) "c")') == [Sym("a"), [Sym("b"), 1], "c"]
    assert loads('("a\\"b" "c\\\\" -3 +4 -x 1_0)\n') == [
        'a"b', "c\\", -3, 4, Sym("-x"), 10
    ]


def test_loads_roundtrip():
    for text in (
        '(report ok)',
        '(report fail (violation "root" "boom"))',
        '(step "root.0" omegabar-2 (rank 2 9))',
        '(summary (endsequent (seq "(p0 | ~p0)")) (cut-free yes) (nubar-free no))',
    ):
        assert dumps(loads(text)) == text


def test_loads_errors():
    for text, message in (
        ("(a (b)", "unclosed parenthesis at position 6"),
        (")", "unmatched closing parenthesis at position 0"),
        ("(a))", "trailing input after s-expression at position 3"),
        ("", "unexpected end of input at position 0"),
        (" \n", "unexpected end of input at position 2"),
        ('"unterminated', "unclosed string at position 13"),
        ('"bc\\', "dangling escape at position 3"),
        ("(a #)", "unexpected character '#' at position 3"),
    ):
        with pytest.raises(SexprError, match="^%s$" % re.escape(message)):
            loads(text)


def test_loads_is_not_bounded_by_the_python_stack():
    depth = 100_000
    sx = loads("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        assert len(sx) == 1
        sx = sx[0]
    assert sx == Sym("x")


def test_proof_dumps_oracle():
    assert proof_dumps(top_intro(())) == (
        '(rule (or "(p0 | ~p0)") (seq "(p0 | ~p0)")'
        ' (rule (axiom "p0") (seq "p0" "~p0")))\n'
    )


def test_proof_roundtrip_corpus():
    for name, build in CORPUS.items():
        p = build()
        text = proof_dumps(p)
        q = proof_loads(text)
        assert q.conclusion == p.conclusion
        assert proof_dumps(q) == text
        assert check_finite(q).ok, name


def test_proof_loads_rejects_junk():
    with pytest.raises(SexprError):
        proof_loads("(frob)")
    with pytest.raises(SexprError):
        proof_loads('(rule (axiom "p0"))')  # missing sequent
    with pytest.raises(SexprError):
        proof_loads("3")


def test_report_dumps_oracles():
    assert report_dumps(check_finite(top_intro(()))) == "(report ok)\n"
    from mucut.proofs import Axiom, Proof

    bad = Proof.make(seq(atom(1)), Axiom(atom(1)), ())
    assert report_dumps(check_finite(bad)) == (
        '(report fail (violation "root"'
        ' "axiom pair p1, ~p1 not in conclusion"))\n'
    )


def test_summary_and_step_oracles():
    assert dumps(summary_to_sx(seq(TOP), True, False)) == (
        '(summary (endsequent (seq "(p0 | ~p0)"))'
        ' (cut-free yes) (nubar-free no))'
    )
    assert dumps(step_to_sx("root.0", "omegabar-2", (2, 9))) == (
        '(step "root.0" omegabar-2 (rank 2 9))'
    )


def test_observation_dumps_oracles():
    p = top_intro(())
    assert observation_dumps(observe(p, 1)) == proof_dumps(p)
    assert observation_dumps(observe(p, 0)) == (
        '(rule (or "(p0 | ~p0)") (seq "(p0 | ~p0)") (truncated))\n'
    )


def test_observation_dumps_is_deterministic():
    e4 = CORPUS["nested"]()
    a = observation_dumps(observe(e4, 5))
    b = observation_dumps(observe(CORPUS["nested"](), 5))
    assert a == b
