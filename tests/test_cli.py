"""The command-line front end: subcommands, exit codes, and artifacts."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from conftest import REFUSED_SYSTEMS, level_walks, run_cli
from mucut import cli, cutelim
from mucut.checker import check_finite, level_bound
from mucut.collapse import pipeline, verdict
from mucut.cli import (
    EXIT_CHECK,
    EXIT_FUEL,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
)
from mucut.corpus import CORPUS, axmu, nested, random_formulas, top_induction_cut
from mucut.errors import InternalInvariantError
from mucut.proofs import Proof, or_node
from mucut.sequents import Sequent
from mucut.sexpr import loads, proof_dumps, proof_loads
from mucut.syntax import parse_formula, print_form
from test_small_scope import small_mu_formulas


def _write_corpus(tmp_path):
    code, out, err = run_cli(["corpus", "--out", str(tmp_path)])
    assert code == EXIT_OK, err
    return out


def test_corpus_listing(tmp_path):
    out = _write_corpus(tmp_path)
    lines = out.splitlines()
    assert lines == [
        "e1-ind-top.sproof\tlevel 1\t{(p0 | ~p0), nu X . X}",
        "e2-top-cut.sproof\tlevel 0\t{(p0 | ~p0)}",
        "e3-axmu.sproof\tlevel 1\t{mu X . (p1 | X), nu X . (~p1 & X)}",
        "e4-nested.sproof\tlevel 2\t{nu X . (X | nu X . ((~p3 | p3) & X))}",
    ]
    for line in lines:
        assert (tmp_path / line.split("\t")[0]).exists()


def test_parse_formula_file(tmp_path):
    f = tmp_path / "t.form"
    f.write_text("mu X.(p1|X)")
    code, out, err = run_cli(["parse", str(f)])
    assert code == EXIT_OK
    assert out == "mu X . (p1 | X)\n"
    # print is an alias
    code2, out2, _ = run_cli(["print", str(f)])
    assert (code2, out2) == (code, out)


def test_print_proof_file(tmp_path):
    _write_corpus(tmp_path)
    path = tmp_path / "e1-ind-top.sproof"
    code, out, err = run_cli(["print", str(path)])
    assert code == EXIT_OK
    assert out == path.read_text()


def test_parse_error_exit(tmp_path):
    f = tmp_path / "bad.form"
    for text in ("mu X . (", "p\u00b2"):  # superscript two, not an index
        f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["parse", str(f)])
        assert code == EXIT_PARSE
        assert "parse error" in err


def test_unknown_extension(tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("p0")
    code, _, err = run_cli(["parse", str(f)])
    assert code == EXIT_PARSE
    assert "unsupported file extension" in err


def test_missing_file(tmp_path):
    code, _, err = run_cli(["parse", str(tmp_path / "nope.form")])
    assert code == EXIT_PARSE
    assert "io error" in err


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path):
    f = tmp_path / "bad.sproof"
    f.write_bytes(b'(rule (axiom "p0") (seq "\xff"))')
    code, out, err = run_cli(["print", str(f)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: 'utf-8' codec can't decode byte 0xff")


def test_other_value_errors_are_internal_failures(tmp_path, monkeypatch):
    _write_corpus(tmp_path)
    e2 = str(tmp_path / "e2-top-cut.sproof")

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "pipeline", broken)
    code, out, err = run_cli(["pipeline", e2, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert out == ""
    assert err == "internal failure: boom\n"


def test_a_broken_invariant_is_an_internal_failure(tmp_path, monkeypatch):
    _write_corpus(tmp_path)
    e2 = str(tmp_path / "e2-top-cut.sproof")

    def broken(*args, **kwargs):
        raise InternalInvariantError("boom")

    monkeypatch.setattr(cli, "pipeline", broken)
    code, out, err = run_cli(["pipeline", e2, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert out == ""
    assert err == "internal invariant failure: boom\n"


def test_pipeline_fails_a_stage_with_an_error_leaf(tmp_path, monkeypatch):
    # a sinf stage that cannot be forced is observed as an error leaf, and
    # nothing is judged
    _write_corpus(tmp_path)
    real = cli.pipeline

    def unforceable():
        raise InternalInvariantError("no node")

    def pipeline(proof, **kwargs):
        stages = real(proof, **kwargs)
        stages["sinf"] = Proof.defer(proof.conclusion, unforceable)
        return stages

    monkeypatch.setattr(cli, "pipeline", pipeline)
    e2 = str(tmp_path / "e2-top-cut.sproof")
    code, out, err = run_cli(["pipeline", e2, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVARIANT
    assert out == ""
    assert err == "stage sinf produced an error leaf: no node\n"


def test_check_takes_only_a_proof_file(tmp_path):
    # the suffix decides the kind before the file is read, so the error
    # names the kind, with no position or excerpt, even for a malformed
    # formula file or one of no kind at all
    runs = [
        ("check", "x.form", "p0", "'.form' (want .sproof)"),
        ("check", "bad.form", "p0 &", "'.form' (want .sproof)"),
        ("pipeline", "bad.form", "p0 &", "'.form' (want .sproof)"),
        ("check", "x.txt", "p0", "'.txt' (want .sproof)"),
        ("parse", "x.txt", "p0", "'.txt' (want .form or .sproof)"),
    ]
    for command, name, text, what in runs:
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run_cli([command, str(f)])
        assert code == EXIT_PARSE, (command, name)
        assert out == ""
        assert err == "parse error: unsupported file extension %s\n" % what


def test_an_atom_index_too_long_for_int_is_a_parse_error(tmp_path):
    # int refuses strings of more digits than the interpreter's limit
    # (4,300 by default): the reader words that as a parse error at the
    # index, in a formula file and in a proof file's formulas
    ones = "1" * 5000
    (tmp_path / "a.form").write_text("p" + ones)
    (tmp_path / "n.form").write_text("(p0 & ~p" + ones + ")")
    proof = tmp_path / "e2.sproof"
    _write_corpus(tmp_path)
    proof.write_text((tmp_path / "e2-top-cut.sproof").read_text().replace("p1", "p" + ones))
    runs = [
        (["parse", str(tmp_path / "a.form")], 1),
        (["parse", str(tmp_path / "n.form")], 8),
        (["check", str(proof)], 1),
        (["pipeline", str(proof), "--out", str(tmp_path / "out")], 1),
    ]
    for argv, pos in runs:
        code, out, err = run_cli(argv)
        assert code == EXIT_PARSE, argv
        assert out == ""
        assert err.startswith(
            "parse error: atom index of 5000 digits is too long at position %d " % pos
        )


def test_nesting_too_deep_is_a_resource_limit(tmp_path):
    f = tmp_path / "deep.form"
    f.write_text("[]" * 3000 + "p0")
    code, out, err = run_cli(["print", str(f)])
    assert code == EXIT_FUEL
    assert out == ""
    assert err == "nesting too deep: input exceeds the stack limit\n"


def test_nesting_the_pipeline_built_too_deep_names_the_flags_that_size_it(tmp_path):
    # a 75-byte file that check passes: what runs out of stack is the
    # approximant of index 500 the pipeline builds for it, not the input
    _write_corpus(tmp_path)
    path = tmp_path / "e3-axmu.sproof"
    assert len(path.read_bytes()) == 75
    assert run_cli(["check", str(path)])[0] == EXIT_OK
    argv = ["pipeline", str(path), "--samples", "0,500", "--out", str(tmp_path / "out")]
    assert run_cli(argv) == (EXIT_FUEL, "", (
        "nesting too deep: a formula or window the pipeline built exceeds the "
        "stack limit (--samples and --depth set their size)\n"
    ))


# Valid S proofs from the corpus builders: nested(2) to nested(4), and
# axmu and top_induction_cut over every closed mu formula of size 3 or less.
_BUILT = {"nested-%d" % n: (nested, n) for n in (2, 3, 4)} | {
    "%s-%d" % (build.__name__, i): (build, f)
    for i, f in enumerate(small_mu_formulas(3))
    for build in (axmu, top_induction_cut)
}


@pytest.mark.parametrize("name", _BUILT)
def test_a_file_check_passes_goes_through_the_pipeline(tmp_path, name):
    # the method's theorem at the command line: an S proof that check
    # passes has a cut-free, nub-free S-infinity proof, which pipeline
    # builds and judges at default flags
    build, arg = _BUILT[name]
    path = tmp_path / (name + ".sproof")
    path.write_text(proof_dumps(build(arg)), encoding="utf-8")
    assert run_cli(["check", str(path)]) == (EXIT_OK, "(report ok)\n", "")
    assert run_cli(["pipeline", str(path)]) == (
        EXIT_OK, "cut-free: yes, nubar-free: yes\n", ""
    )


def test_check_ok_and_fail(tmp_path):
    _write_corpus(tmp_path)
    e1 = str(tmp_path / "e1-ind-top.sproof")
    code, out, _ = run_cli(["check", e1])
    assert code == EXIT_OK
    assert out == "(report ok)\n"
    code2, out2, _ = run_cli(["check", e1, "--system", "omega:1"])
    assert code2 == EXIT_CHECK
    assert out2 == (
        '(report fail (violation "root"'
        ' "rule ind is not part of system omega:1"))\n'
    )
    # only a system's name: each other spelling is one line of error
    for text in REFUSED_SYSTEMS:
        code3, out3, err3 = run_cli(["check", e1, "--system", text])
        assert (code3, out3) == (EXIT_PARSE, "")
        assert err3.startswith("parse error: unknown system %r" % text)
        assert err3.count("\n") == 1 and err3.endswith("\n")
    code4, _, err4 = run_cli(["check", e1, "--system", "omega:-1"])
    assert code4 == EXIT_PARSE
    assert "system index must be at least 0" in err4


def test_messages_name_a_rule_as_files_do(tmp_path):
    # a rule is named in messages as in files and traces: axmu, not axiommu
    _write_corpus(tmp_path)
    e3 = tmp_path / "e3-axmu.sproof"
    code, out, _ = run_cli(["check", str(e3), "--system", "sinf"])
    assert code == EXIT_CHECK
    assert out == '(report fail (violation "root" "rule axmu is not part of system sinf"))\n'
    leaf = e3.read_text().strip()
    bad = tmp_path / "bad.sproof"
    bad.write_text("%s %s)\n" % (leaf[:-1], leaf))
    code, out, err = run_cli(["check", str(bad)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "parse error: axmu rule takes 0 premise(s), got 1 at position 0\n"


def test_bad_samples_flag(tmp_path):
    _write_corpus(tmp_path)
    e1 = str(tmp_path / "e1-ind-top.sproof")
    args = build_parser().parse_args(["pipeline", e1, "--samples", "0,2"])
    assert args.samples == (0, 2)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["pipeline", e1, "--samples", "0,x"])


@pytest.mark.parametrize("samples", ["0,0", "1,0", "0,,1", ",0,1,"])
def test_pipeline_takes_only_strictly_increasing_samples(tmp_path, capsys, samples):
    # each of these wrote the same observations as 0 or 0,1
    _write_corpus(tmp_path)
    e1 = str(tmp_path / "e1-ind-top.sproof")
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", e1, "--out", str(outdir), "--samples", samples])
    assert exc.value.code == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert "error: argument --samples" in errors[0]
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--depth", "--probes", "--fuel"])
def test_pipeline_rejects_a_negative_bound(tmp_path, capsys, flag):
    # a negative bound used to run unbounded (depth) or as 0 (probes)
    _write_corpus(tmp_path)
    e4 = str(tmp_path / "e4-nested.sproof")
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", e4, "--out", str(outdir), flag, "-1"])
    assert exc.value.code == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [
        "mucut pipeline: error: argument %s: '-1' is not a natural number" % flag
    ]
    assert not outdir.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--depth", "\u0661\u0662"), ("--samples", "\u0663"), ("--probes", "\u0661"),
     ("--fuel", "\uff19"), ("--depth", " 6"), ("--depth", "6\n"), ("--samples", " 3"),
     ("--probes", "1 "), ("--fuel", "\t9")],
)
def test_pipeline_takes_only_ascii_digits(tmp_path, capsys, flag, value):
    # int reads Arabic-Indic and fullwidth digits, and spaces around digits
    _write_corpus(tmp_path)
    e4 = str(tmp_path / "e4-nested.sproof")
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", e4, "--out", str(outdir), flag, value])
    assert exc.value.code == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [
        "mucut pipeline: error: argument %s: %r is not a natural number" % (flag, value)
    ]
    assert not outdir.exists()


@pytest.mark.parametrize("n", ["2", "10"])
def test_pipeline_refuses_more_probes_than_there_are(tmp_path, capsys, n):
    # each family has one probe, so a larger count would run as 1
    _write_corpus(tmp_path)
    e4 = str(tmp_path / "e4-nested.sproof")
    outdir = tmp_path / "out"
    assert run_cli(["pipeline", e4, "--out", str(outdir)])[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", e4, "--out", str(outdir), "--probes", n])
    assert exc.value.code == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [
        "mucut pipeline: error: argument --probes: '%s' probes asked for, but each"
        " family has one" % n
    ]
    # nothing is written or deleted
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before
    for ok in ("0", "1"):
        code, _, err = run_cli(["pipeline", e4, "--out", str(outdir), "--probes", ok])
        assert code == EXIT_OK, err


def test_pipeline_accepts_depth_zero(tmp_path):
    _write_corpus(tmp_path)
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e4-nested.sproof"),
        "--out", str(tmp_path / "out"), "--depth", "0",
    ])
    assert code == EXIT_OK, err
    assert out == "cut-free: yes, nubar-free: yes\n"


def test_check_takes_no_observation_flags(tmp_path):
    # check_finite is exhaustive, so observation and fuel settings do not apply
    _write_corpus(tmp_path)
    e1 = str(tmp_path / "e1-ind-top.sproof")
    for flag in ("--depth", "--samples", "--probes", "--fuel"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", e1, flag, "1"])


def test_pipeline_artifacts(tmp_path):
    _write_corpus(tmp_path)
    outdir = tmp_path / "out"
    trace = tmp_path / "e4.trace"
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e4-nested.sproof"),
        "--out", str(outdir), "--trace", str(trace),
    ])
    assert code == EXIT_OK, err
    assert out == "cut-free: yes, nubar-free: yes\n"
    for stage in ("embedded", "eliminated", "collapsed", "sinf"):
        assert (outdir / ("e4-nested.%s.obs" % stage)).exists()
    summary = (outdir / "e4-nested.summary").read_text()
    assert summary == (
        '(summary (endsequent'
        ' (seq "nu X . (X | nu X . ((~p3 | p3) & X))"))'
        ' (cut-free yes) (nubar-free yes)'
        ' (check embedded omega:2 ok) (check eliminated omega:2 ok)'
        ' (check collapsed sinf ok) (check sinf sinf ok))\n'
    )
    lines = trace.read_text().splitlines()
    assert lines[0] == '(step "root.0" omegabar-2 (rank 2 9))'
    assert lines[1] == '(step "root" omegabar-1 (rank 1 6))'
    cases = {str(loads(line)[2]) for line in lines}
    assert "omegabar-2" in cases and "omegabar-1" in cases


def test_pipeline_all_examples(tmp_path):
    _write_corpus(tmp_path)
    for stem in ("e1-ind-top", "e2-top-cut", "e3-axmu", "e4-nested"):
        code, out, err = run_cli([
            "pipeline", str(tmp_path / (stem + ".sproof")),
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK, (stem, err)
        assert out == "cut-free: yes, nubar-free: yes\n"


@pytest.mark.parametrize("depth", [1, 3, 6, 10])
def test_pipeline_passes_the_top_induction_cut_over_trivial_mu(tmp_path, depth):
    # {top} by a cut on mu X . X against an induction with invariant top:
    # its collapsed and sinf stages used to carry an error leaf
    src = tmp_path / "trivial-mu.sproof"
    src.write_text(proof_dumps(top_induction_cut(parse_formula("mu X . X"))))
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        ["pipeline", str(src), "--out", str(outdir), "--depth", str(depth)]
    )
    assert code == EXIT_OK, err
    assert out == "cut-free: yes, nubar-free: yes\n"
    assert (outdir / "trivial-mu.summary").read_text() == (
        '(summary (endsequent (seq "(p0 | ~p0)"))'
        " (cut-free yes) (nubar-free yes)"
        " (check embedded omega:1 ok) (check eliminated omega:1 ok)"
        " (check collapsed sinf ok) (check sinf sinf ok))\n"
    )


def test_pipeline_samples_a_far_approximant(tmp_path):
    # the approximant chains are built in index order, not by recursing
    # once per index: premise 3000 of every nu rule is within reach
    _write_corpus(tmp_path)
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e1-ind-top.sproof"),
        "--out", str(tmp_path / "out"), "--samples", "0,3000",
    ])
    assert code == EXIT_OK, err
    assert out == "cut-free: yes, nubar-free: yes\n"


def test_pipeline_samples_a_far_premise_of_an_identity_law(tmp_path):
    # the identity law's premise 400 is built from the 400th approximant,
    # which the kernel builds once, one step from the one before it
    _write_corpus(tmp_path)
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e3-axmu.sproof"),
        "--out", str(tmp_path / "out"), "--samples", "0,400",
    ])
    assert code == EXIT_OK, err
    assert out == "cut-free: yes, nubar-free: yes\n"


def test_pipeline_summary_carries_stage_verdicts(tmp_path, monkeypatch):
    # a cut-free, nubar-free sinf stage that uses axmu, a rule S-infinity
    # lacks: the summary says "yes, yes" but its sinf verdict fails
    _write_corpus(tmp_path)
    real = cli.pipeline

    def pipeline(proof, **kwargs):
        stages = real(proof, **kwargs)
        stages["sinf"] = CORPUS["axmu"]()
        return stages

    monkeypatch.setattr(cli, "pipeline", pipeline)
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        ["pipeline", str(tmp_path / "e3-axmu.sproof"), "--out", str(outdir)]
    )
    assert code == EXIT_CHECK
    assert out == "cut-free: yes, nubar-free: yes\n"
    assert err == (
        "stage sinf fails its check in sinf: root:"
        " rule axmu is not part of system sinf\n"
    )
    summary = (outdir / "e3-axmu.summary").read_text()
    assert summary.endswith(
        " (check embedded omega:1 ok) (check eliminated omega:1 ok)"
        " (check collapsed sinf ok) (check sinf sinf fail))\n"
    )



def test_pipeline_fails_a_collapsed_stage_outside_sinf(tmp_path, monkeypatch):
    # the sinf stage is the collapsed proof: an induction left at its root
    # is a judge violation in both stages, not an error leaf
    _write_corpus(tmp_path)
    real = cli.pipeline

    def pipeline(proof, **kwargs):
        stages = real(proof, **kwargs)
        stages["collapsed"] = stages["sinf"] = CORPUS["ind-top"]()
        return stages

    monkeypatch.setattr(cli, "pipeline", pipeline)
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e1-ind-top.sproof"), "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_CHECK
    assert err == "; ".join(
        "stage %s fails its check in sinf: root: rule ind is not part of system sinf"
        % name for name in ("collapsed", "sinf")
    ) + "\n"


def test_pipeline_fails_a_foreign_rule_at_the_depth_bound(tmp_path, monkeypatch):
    # the judge reads the rule of the axmu node at --depth, and fails the
    # sinf stage with the report's first violation
    _write_corpus(tmp_path)
    real = cli.pipeline

    def pipeline(proof, **kwargs):
        stages = real(proof, **kwargs)
        p = CORPUS["axmu"]()
        a, b = p.conclusion
        stages["sinf"] = or_node(Sequent((("or", a, b),)), ("or", a, b), p)
        return stages

    monkeypatch.setattr(cli, "pipeline", pipeline)
    outdir = tmp_path / "out"
    code, out, err = run_cli([
        "pipeline", str(tmp_path / "e3-axmu.sproof"), "--out", str(outdir), "--depth", "1",
    ])
    assert code == EXIT_CHECK
    assert out == "cut-free: yes, nubar-free: yes\n"
    assert err == (
        "stage sinf fails its check in sinf: root.0: rule axmu is not part of"
        " system sinf\n"
    )
    summary = (outdir / "e3-axmu.summary").read_text()
    assert summary.endswith(" (check collapsed sinf ok) (check sinf sinf fail))\n")

def test_pipeline_rejects_invalid_input(tmp_path):
    bad = tmp_path / "bad.sproof"
    bad.write_text('(rule (axiom "p0") (seq "p0"))\n')
    code, out, err = run_cli(["pipeline", str(bad)])
    assert code == EXIT_CHECK
    assert err == (
        'input is not a valid S proof: (report fail (violation "root"'
        ' "axiom pair p0, ~p0 not in conclusion"))\n'
    )


def test_pipeline_fuel_exit(tmp_path):
    _write_corpus(tmp_path)
    code, _, err = run_cli([
        "pipeline", str(tmp_path / "e4-nested.sproof"),
        "--out", str(tmp_path / "out"), "--fuel", "1",
    ])
    assert code == EXIT_FUEL
    assert "fuel exhausted" in err


def test_a_failed_rerun_leaves_no_artifact_of_the_earlier_run(tmp_path):
    # the rerun runs out of fuel in the eliminated stage: the first run's
    # later stages, its trace and its summary, which says every check
    # passed, must not stay next to the rerun's embedded stage
    _write_corpus(tmp_path)
    outdir = tmp_path / "d"
    argv = [
        "pipeline", str(tmp_path / "e4-nested.sproof"),
        "--out", str(outdir), "--trace", str(outdir / "t.trace"),
    ]
    assert run_cli(argv)[0] == EXIT_OK
    assert len(list(outdir.iterdir())) == 6
    code, _, err = run_cli([*argv, "--fuel", "1"])
    assert code == EXIT_FUEL
    assert "fuel exhausted" in err
    assert [p.name for p in outdir.iterdir()] == ["e4-nested.embedded.obs"]


@pytest.mark.parametrize("argv, clash, what", [
    (["notes.summary"], "notes.summary", "the input"),
    (["f.sproof", "--trace", "sub/../f.sproof"], "sub/../f.sproof", "the input"),
    (["v2.sproof", "--out", "out", "--trace", "out/../out/v2.embedded.obs"],
     "out/../out/v2.embedded.obs", "another output"),
], ids=["input-is-the-summary", "trace-is-the-input", "trace-is-an-observation"])
def test_pipeline_refuses_an_output_that_is_its_input_or_another_output(
    tmp_path, argv, clash, what
):
    # the run deletes its outputs before it reads its input and writes the
    # trace after the observations: a clash used to delete the input, or
    # leave the trace where an observation should be
    text = proof_dumps(CORPUS["nested"]())
    for name in ("notes.summary", "f.sproof", "v2.sproof"):
        (tmp_path / name).write_text(text)
    first = ["pipeline", str(tmp_path / "v2.sproof"), "--out", str(tmp_path / "out")]
    assert run_cli(first)[0] == EXIT_OK
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, out, err = run_cli(
        ["pipeline", *(a if a.startswith("--") else str(tmp_path / a) for a in argv)]
    )
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "path clash: output %s is %s\n" % (tmp_path / clash, what)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_pipeline_help_says_what_fuel_bounds(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--help"])
    assert exc.value.code == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "--fuel FUEL bounds only the cut reductions of eliminate, one unit per"
        " root visit (default 100000); collapse has its own limit of 100,000"
        " plugs per forced node"
    ) in text
    assert (
        "--probes PROBES 0 or 1: 0 skips families, 1 feeds each family its one"
        " canonical probe (default 1)"
    ) in text
    # and so it is: a run needs one unit per root visit, and the plugs of
    # collapse (e4 collapses at two levels) take none
    _write_corpus(tmp_path)
    e4 = str(tmp_path / "e4-nested.sproof")
    visits = []
    reduce_root = cutelim._reduce_root

    def counting(d, budget, trace, path):
        visits.append(path)
        return reduce_root(d, budget, trace, path)

    monkeypatch.setattr(cutelim, "_reduce_root", counting)
    assert run_cli(["pipeline", e4, "--out", str(tmp_path / "a")])[0] == EXIT_OK
    n = len(visits)
    assert n > 0
    fuel = ["--fuel", str(n)]
    assert run_cli(["pipeline", e4, "--out", str(tmp_path / "b"), *fuel])[0] == EXIT_OK
    fuel = ["--fuel", str(n - 1)]
    assert run_cli(["pipeline", e4, "--out", str(tmp_path / "c"), *fuel])[0] == EXIT_FUEL


def test_pipeline_default_out_is_input_dir(tmp_path):
    _write_corpus(tmp_path)
    code, _, err = run_cli(["pipeline", str(tmp_path / "e2-top-cut.sproof")])
    assert code == EXIT_OK, err
    assert (tmp_path / "e2-top-cut.summary").exists()


def test_cli_entry_point_subprocess(tmp_path):
    # the module entry point behaves identically across processes
    _write_corpus(tmp_path)
    runs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "mucut", "pipeline",
             str(tmp_path / "e3-axmu.sproof"), "--out", str(outdir)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "cut-free: yes, nubar-free: yes\n"
        runs.append({
            p.name: p.read_bytes() for p in sorted(outdir.iterdir())
        })
    assert runs[0] == runs[1]


def test_pipeline_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # every artifact of every corpus proof, written by the module entry
    # point under two hash seeds, is the same byte for byte
    _write_corpus(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        outdir = tmp_path / ("seed" + seed)
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        for proof in sorted(tmp_path.glob("*.sproof")):
            trace = outdir / (proof.stem + ".trace")
            proc = subprocess.run(
                [sys.executable, "-m", "mucut", "pipeline", str(proof),
                 "--depth", "8", "--out", str(outdir), "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
        runs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert len(runs[0]) == 4 * 6  # four observations, summary and trace each
    assert runs[0] == runs[1]


@pytest.mark.parametrize("filename", [filename for filename, _ in cli.CORPUS_FILES])
def test_pipeline_walks_its_input_only_to_check_it(tmp_path, monkeypatch, filename):
    # check_finite keeps the input's level bound: pipeline, verdict and a
    # later level_bound read it, and no one walks the input again
    _write_corpus(tmp_path)
    path = tmp_path / (filename + ".sproof")
    walks = level_walks(monkeypatch)
    code, _, err = run_cli(["pipeline", str(path), "--out", str(tmp_path / "out")])
    assert (code, err) == (EXIT_OK, "")
    p = proof_loads(path.read_text())
    assert check_finite(p).ok
    v = verdict(p, pipeline(p), 6)
    assert v.passed and level_bound(p) == v.k
    assert walks == []


# Each fuzzed input is a corpus .sproof text or a .form text with a few
# edits at some offset: a byte replacement, insertion or deletion, drawn
# mostly from the bytes the two syntaxes use plus bytes that are not
# UTF-8, or a word or number of the text put in place of another word or
# number of it, which often keeps the text readable and so reaches the
# checker, or a run put in at a word of the text: 20-40 digits, or one
# more than the interpreter reads as an int, after it (an atom index that
# parses, or one too long: exit 2), or opening parentheses or boxes before
# it, 500-700 (too deep for a fresh `mucut parse`) or as many as the
# stack limit when drawn (Hypothesis raises that limit while a test runs,
# so only these reach exit 3 here).
_SPROOFS = [proof_dumps(CORPUS[name]()).encode() for _, name in cli.CORPUS_FILES]
_FORMS = [print_form(f).encode() for f in random_formulas(8, 12)] + [
    print_form(f).encode() for _, name in cli.CORPUS_FILES for f in CORPUS[name]().conclusion
]
_BYTES = st.lists(st.sampled_from(list(b'()" .,~&|[]<>01239pXmunvseqrtaxiocb\n\xff\xc3')), max_size=3)
_RUNS = st.one_of(
    st.integers(20, 40).map(lambda n: b"9" * n),
    st.just(b"9" * (sys.get_int_max_str_digits() + 1)),
    st.tuples(st.sampled_from([b"(", b"[]"]), st.integers(500, 700)).map(lambda r: r[0] * r[1]),
    st.sampled_from([b"(", b"[]"]).map(lambda b: b * sys.getrecursionlimit()),
)
_AT = st.integers(0, 1 << 16)
_EDITS = st.one_of(
    st.lists(st.tuples(st.just("w"), _AT, st.just(b"")), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from("rid"), _AT, _BYTES.map(bytes)), min_size=1, max_size=3),
    st.tuples(st.just("n"), _AT, _RUNS).map(lambda edit: [edit]),
)
_WORD = re.compile(rb"[A-Za-z]+|[0-9]+")


def _edited(data, edits):
    data = bytearray(data)
    for op, at, chunk in edits:
        i = at % (len(data) + 1)
        words = list(_WORD.finditer(data))
        if op == "w" and words:
            w = words[at % len(words)]
            alike = [v.group() for v in words if v.group().isdigit() == w.group().isdigit()]
            data[w.start() : w.end()] = alike[at // len(words) % len(alike)]
        elif op == "n" and words:
            w = words[at % len(words)]
            i = w.end() if chunk[:1].isdigit() else w.start()
            data[i:i] = chunk
        elif op == "r":
            data[i : i + max(1, len(chunk))] = chunk
        elif op == "i":
            data[i:i] = chunk
        else:
            del data[i : i + 1 + len(chunk)]
    return bytes(data)


def test_the_fuzzers_runs_reach_exit_2_and_exit_3(tmp_path):
    # in a fresh process, as a user runs it, an index run past the
    # interpreter's limit is a parse error and a box run of 500 nests too
    # deep (in process, Hypothesis's raised stack limit, or what the kernel
    # memos already hold, can let a box run of this depth parse)
    path = tmp_path / "runs.form"
    digits = sys.get_int_max_str_digits() + 1
    for chunk, code, line in (
        (b"9" * digits, EXIT_PARSE, "parse error: atom index of %d digits" % (digits + 1)),
        (b"[]" * 500, EXIT_FUEL, "nesting too deep: "),
    ):
        path.write_bytes(_edited(b"p1", [("n", 0, chunk)]))
        proc = subprocess.run(
            [sys.executable, "-m", "mucut", "parse", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code and proc.stderr.startswith(line), proc.stderr


def _assert_total(argv):
    """The command ends in an exit code 0-3, never the internal failure
    4, with at most one line on standard error, and no traceback
    anywhere."""
    code, out, err = run_cli(argv)
    assert 0 <= code <= 3, (code, err)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), err
    assert "Traceback" not in out + err


@hypothesis_settings(max_examples=150, deadline=None)
@given(text=st.sampled_from(_SPROOFS), edits=_EDITS)
def test_mutated_proof_files_end_in_an_exit_code_and_one_line(tmp_path_factory, text, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.sproof"
    path.write_bytes(_edited(text, edits))
    out = str(tmp_path_factory.getbasetemp() / "fuzz-out")
    for argv in (
        ["check", str(path)],
        ["check", str(path), "--system", "sinf"],
        ["parse", str(path)],
        ["pipeline", str(path), "--out", out],
    ):
        _assert_total(argv)


@hypothesis_settings(max_examples=150, deadline=None)
@given(text=st.sampled_from(_FORMS), edits=_EDITS)
def test_mutated_formula_files_end_in_an_exit_code_and_one_line(tmp_path_factory, text, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.form"
    path.write_bytes(_edited(text, edits))
    _assert_total(["parse", str(path)])


# The flags, fuzzed: drawn and edge values of each observation and fuel
# flag of pipeline, and of check's --system, well formed or not.  Sample
# indices go up to 400: the kernel builds each approximant once, one step
# from the one before it, so a far index is cheap.  Depths stay at 40 or
# less, since the observer recurses once per level of depth.
_FILES = st.sampled_from([filename for filename, _ in cli.CORPUS_FILES])


def _corpus_path(tmp_path_factory, filename):
    out = tmp_path_factory.getbasetemp() / "flags-corpus"
    if not out.exists():
        _write_corpus(out)
    return str(out / (filename + ".sproof"))


def _flag_exit(argv):
    """The exit code of the command, argparse's SystemExit included, with
    no traceback in its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, err.getvalue()


_ODD = st.sampled_from(["", " ", "-1", "abc", "1e3", "+2", "0x10", "4.0", ",", " 3 "])
_FLAGS = {
    "--depth": st.one_of(st.integers(0, 40).map(str), _ODD),
    "--samples": st.one_of(
        st.lists(st.integers(0, 400), min_size=1, max_size=4, unique=True).map(
            lambda xs: ",".join(map(str, sorted(xs)))
        ),
        st.sampled_from(["0,1e3", "0,,2", "0, 2", "1,x", "-1,0", ",0", "1,0", "0,0", "0,2,1"]),
        _ODD,
    ),
    "--probes": st.one_of(st.sampled_from(["0", "1", "2", "10"]), _ODD),
    "--fuel": st.one_of(st.integers(0, 400).map(str), st.just("100000"), _ODD),
}
_SYSTEMS = st.one_of(
    st.sampled_from([
        "s", "sinf", "S", " sinf ", "omega:0", "omega:1", "omega:2", "omega:40",
        "omega-k=3", "OMEGA:1", "omega:-1", "omega:", "omega:x", "omega:1.5", "frob",
    ]),
    st.integers(-3, 10**6).map("omega:{}".format),
    _ODD,
)


@hypothesis_settings(max_examples=100, deadline=None)
@given(filename=_FILES, flags=st.fixed_dictionaries({}, optional=_FLAGS))
def test_pipeline_flags_end_in_an_exit_code(tmp_path_factory, filename, flags):
    argv = ["pipeline", _corpus_path(tmp_path_factory, filename)]
    argv += ["--out", str(tmp_path_factory.getbasetemp() / "flags-out")]
    for flag, value in flags.items():
        argv += [flag, value]
    code, err = _flag_exit(argv)
    assert 0 <= code <= 3, (code, err)


@hypothesis_settings(max_examples=60, deadline=None)
@given(filename=_FILES, system=_SYSTEMS)
def test_check_systems_end_in_an_exit_code(tmp_path_factory, filename, system):
    path = _corpus_path(tmp_path_factory, filename)
    code, err = _flag_exit(["check", path, "--system", system])
    assert 0 <= code <= 3, (code, err)


@pytest.mark.parametrize(
    "flag, value",
    [("--depth", "abc"), ("--probes", "2"), ("--samples", ","), ("--samples", "0,1e3")],
)
def test_a_bad_flag_value_exits_2(tmp_path, flag, value):
    _write_corpus(tmp_path)
    argv = ["pipeline", str(tmp_path / "e3-axmu.sproof"), "--out", str(tmp_path / "out")]
    code, err = _flag_exit(argv + [flag, value])
    assert code == EXIT_PARSE
    assert "error: argument %s" % flag in err
    assert not (tmp_path / "out").exists()
