"""Serialization: s-expression reading/writing, proof and report text,
and exact canonical strings."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LITERALS, cut_chain, cut_tree, deep_cut_chain, run_cli
from mucut import sexpr
from mucut.cli import EXIT_PARSE
from mucut.checker import check_finite
from mucut.collapse import pipeline
from mucut.corpus import CORPUS, lemma_suite
from mucut.embed import identity_mu, identity_mu_primed
from mucut.kernel import TOP, atom, natom, negate, prime, substitute
from mucut.proofs import (
    ALL_TAGS,
    FINITE_TAGS,
    SINF_TAGS,
    And,
    Axiom,
    AxiomMu,
    Box,
    Clo,
    Cut,
    Ind,
    Nu,
    Observation,
    Omega,
    OmegaBar,
    Or,
    Proof,
    ax,
    axmu_node,
    box_fit,
    box_node,
    clo_node,
    cut_node,
    nu_node,
    observation_rules,
    observe,
    omega_phi,
    or_node,
    top_intro,
)
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
    sx_to_proof,
    sx_to_tag,
)
from mucut import sequents
from mucut.sequents import Sequent, seq
from mucut.syntax import ParseError, print_form
from mucut.syntax import parse_formula as pf


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


def test_sequent_members_are_read_in_order():
    # the first bad member decides the error, whether its text or its type
    with pytest.raises(ParseError):
        proof_loads('(rule (axiom "p0") (seq "(p0 &" x "p0" "~p0"))')
    with pytest.raises(SexprError, match="^sequent members must be quoted"):
        proof_loads('(rule (axiom "p0") (seq x "(p0 &" "p0" "~p0"))')
    # a text read before is looked up, one read for the first time parsed
    p = proof_loads('(rule (axiom "p0") (seq "p0" "~p0" "p1"))')
    assert p.conclusion == seq(atom(0), natom(0), atom(1))


def test_every_rule_is_read_and_written_by_its_tag_class(tmp_path):
    m = pf("mu X . (p1 | X)")
    t = prime(m)
    tags = [
        Axiom(atom(1)),
        AxiomMu(m),
        Or(TOP),
        And(pf("(p1 & p2)")),
        Box(pf("[] p1"), seq(atom(2), pf("<> p3"))),
        Clo(m),
        Ind(m, TOP),
        Cut(atom(1)),
        Nu(pf("nu X . (p1 & X)")),
        Omega(1, t),
        OmegaBar(2, t),
    ]
    # the rule names are unique and cover every system's rules
    names = [cls.name for cls in ALL_TAGS]
    assert len(set(names)) == len(names)
    assert set(ALL_TAGS) == set(FINITE_TAGS) | set(SINF_TAGS) | {Omega, OmegaBar}
    assert [type(tag) for tag in tags] == list(ALL_TAGS)
    # each tag round-trips through the writer and the reader
    for tag in tags:
        text = observation_dumps(Observation(seq(atom(1)), tag))
        sx = loads(text)
        assert sx[1][0] == type(tag).name
        assert sx_to_tag(sx[1], {}) == tag
    # malformed tags
    for text in (
        '(cut "p1" "p2")',  # an argument too many
        '(ind "mu X . (p1 | X)")',  # an argument too few
        "(omega 1)",
        "(or p1)",  # a symbol where a formula belongs
        '(omegabar x "mu X . (p1 | X)")',  # a level that is not an integer
        '(omega "1" "mu X . (p1 | X)")',
        '(box "[] p1" "p2")',  # a side that is not a (seq ...)
        '(box "[] p1" (frob "p2"))',
        '(frob "p1")',  # an unknown rule
        "(3)",
    ):
        with pytest.raises(SexprError):
            sx_to_tag(loads(text), {})
    # a rule with infinitely many premises is no part of a proof file
    n = "nu X . (p1 & X)"
    bad = tmp_path / "nu.sproof"
    bad.write_text('(rule (nu "%s") (seq "%s"))\n' % (n, n), encoding="utf-8")
    code, out, err = run_cli(["check", str(bad)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (
        "parse error: rule nu cannot appear in a finite proof file at position 0\n"
    )


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


# ---------------------------------------------------------------------------
# the reader on generated documents and mangled text


def _typed(sx):
    """A value with the type of every atom spelled out, so that Sym("x")
    and "x" compare unequal."""
    if isinstance(sx, list):
        return ["list"] + [_typed(x) for x in sx]
    return (type(sx).__name__, sx)


_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \t"])
_BODIES = st.text(alphabet='p0~&|()[]<>muX. "\\', max_size=12)


@st.composite
def _seq_groups(draw):
    """A (seq ...) group: quoted strings with and without escapes, now and
    then a symbol or an integer, spaced by any mix of whitespace (none
    included, so that tokens abut)."""
    parts = [draw(_SPACES), "seq"]
    for _ in range(draw(st.integers(0, 5))):
        parts.append(draw(_SPACES))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            parts.append(draw(st.sampled_from(["x", "seq", "-3", "12", "+"])))
        else:
            parts.append(dumps(draw(_BODIES)))
    parts.append(draw(_SPACES))
    return "(" + "".join(parts) + ")"


@st.composite
def _documents(draw):
    """Proof-shaped text built around seq groups, whole or cut short."""
    groups = draw(st.lists(_seq_groups(), min_size=1, max_size=3))
    text = "(rule (axiom %s)%s%s)" % (
        dumps("p0"), draw(_SPACES), draw(_SPACES).join(groups)
    )
    if draw(st.booleans()):
        text = draw(st.sampled_from(groups))
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _small_proofs():
    yield top_intro(())
    for build in CORPUS.values():
        yield build()
    a, b = atom(1), atom(2)
    yield cut_node(
        seq(TOP), a, top_intro((a,)), top_intro((natom(1),))
    )
    yield cut_node(
        seq(TOP),
        a,
        cut_node(seq(a, TOP), b, top_intro((a, b)), top_intro((a, natom(2)))),
        top_intro((natom(1),)),
    )


_DUMPS = [proof_dumps(p) for p in _small_proofs()]


@st.composite
def _mutated_dumps(draw):
    """proof_dumps output, truncated or with characters replaced."""
    text = draw(st.sampled_from(_DUMPS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from(list('()" \\\tsq0x-')))
        text = text[:i] + c + text[i + 1 :]
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _not_an_integer(word):
    try:
        int(word)
    except ValueError:
        return True
    return False


# Documents as loads returns them: integers, strings with any character
# (quotes, backslashes and line breaks included) and symbols of every
# word character, a word that reads as an integer excepted.
_SX_ATOMS = st.one_of(
    st.integers(-(10**9), 10**9),
    st.text(max_size=8),
    st.from_regex(r"[A-Za-z0-9_\-:.+]+", fullmatch=True)
    .filter(_not_an_integer)
    .map(Sym),
)
_SX = st.recursive(_SX_ATOMS, lambda kids: st.lists(kids, max_size=4), max_leaves=16)


@settings(deadline=None, max_examples=300)
@given(_SX)
def test_loads_reads_back_what_dumps_writes(sx):
    assert _typed(loads(dumps(sx))) == _typed(sx)


@settings(deadline=None, max_examples=300)
@given(st.one_of(_seq_groups(), _documents(), _mutated_dumps()))
def test_loads_is_total_on_mangled_text(text):
    # a value that reads back through dumps, or a SexprError inside the text
    try:
        sx = loads(text)
    except SexprError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert _typed(loads(dumps(sx))) == _typed(sx)


def test_loads_seq_groups_oracles():
    seq_ = Sym("seq")
    for text, want in (
        ("(seq)", [seq_]),
        ('(seq "a" "b")', [seq_, "a", "b"]),
        (' ( seq\t"a"\n"b" ) ', [seq_, "a", "b"]),
        ('(seq"a")', [seq_, "a"]),
        ('(seq "a""b")', [seq_, "a", "b"]),
        ('(seq "a\\"b" "c")', [seq_, 'a"b', "c"]),
        ('(seq x 3 "a")', [seq_, Sym("x"), 3, "a"]),
        ('(seq "a" (seq "b"))', [seq_, "a", [seq_, "b"]]),
        ('(seqx "a")', [Sym("seqx"), "a"]),
    ):
        assert _typed(loads(text)) == _typed(want), text
    for text, message in (
        ('(seq "a" "b"', "unclosed parenthesis at position 12"),
        ('(seq "a', "unclosed string at position 7"),
    ):
        with pytest.raises(SexprError, match="^%s$" % re.escape(message)):
            loads(text)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(LITERALS, max_size=4, unique_by=lambda f: f[1]),
    st.lists(LITERALS, max_size=30, unique_by=lambda f: f[1]),
)
def test_proof_text_roundtrips_cut_trees_and_chains(tree_atoms, chain_atoms):
    for p in (cut_tree(tuple(tree_atoms)), cut_chain(chain_atoms)):
        text = proof_dumps(p)
        q = proof_loads(text)
        assert q.conclusion == p.conclusion
        assert proof_dumps(q) == text
        assert check_finite(q).ok


# ---------------------------------------------------------------------------
# proof_loads against the general reader


def _box_and_clo():
    """A valid S proof with a box rule (its side not empty) above a
    closure rule, the two rules no corpus proof uses."""
    m = pf("mu X . (p1 | X)")
    u = substitute(m[1], m)
    leaf = ax(seq(atom(1), m, natom(1)), atom(1))
    clo = clo_node(seq(m, natom(1)), m, or_node(seq(u, natom(1)), u, leaf))
    conclusion = seq(("box", m), ("dia", natom(1)), atom(2))
    return box_fit(conclusion, ("box", m), clo)


def _general(text):
    return sx_to_proof(loads(text), {})


def _proof_outcome(read, text):
    try:
        return "value", proof_dumps(read(text))
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return type(exc).__name__, str(exc)


_LITERAL_LISTS = st.lists(LITERALS, max_size=6, unique_by=lambda f: f[1])


@st.composite
def _proof_texts(draw):
    """The writer's text of a tree, chain, mirrored chain or comb of atom
    cuts, of a corpus proof or of the box and closure proof."""
    shape = draw(st.sampled_from(["tree", "chain", "mirror", "comb", "fixed"]))
    atoms = draw(_LITERAL_LISTS)
    if shape == "tree":
        p = cut_tree(tuple(atoms[:3]))
    elif shape == "chain":
        p = cut_chain(atoms)
    elif shape == "mirror":
        p = cut_chain(atoms, mirror=True)
    elif shape == "comb":
        teeth = [atom(41 + j) for j in range(len(atoms))]
        p = cut_chain(atoms, teeth=teeth)
    else:
        builds = [*CORPUS.values(), _box_and_clo]
        p = draw(st.sampled_from(builds))()
    return proof_dumps(p)


# The tokens of proof text: parentheses, strings and words.
_PROOF_TOKEN = re.compile(r'[()]|"[^"\\]*"|[^\s()"]+')
_TAG_NAME = re.compile(r"\(rule \((\w+)")
_FIRST_ARG = re.compile(r'\(rule \(\w+( "[^"]*")')


@st.composite
def _mutated_proof_texts(draw):
    """The writer's text with one or two edits: inserted whitespace (also
    inside a string), an escaped character, truncation, a dropped or
    duplicated token, an unknown or infinitary rule tag, an argument too
    many or too few, a dropped or duplicated premise, or trailing input."""
    text = draw(_proof_texts())
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(
            ["space", "inner space", "escape", "truncate", "drop", "duplicate",
             "tag", "arity", "premise", "trailing"]
        ))
        tokens = [m.span() for m in _PROOF_TOKEN.finditer(text)]
        tags = [m.span(1) for m in _TAG_NAME.finditer(text)]
        if edit == "space":
            i = draw(st.integers(0, len(text)))
            space = draw(st.sampled_from([" ", "  ", "\n", "\t", "\r\n"]))
            text = text[:i] + space + text[i:]
        elif edit in ("escape", "inner space"):
            strings = [(a, b) for a, b in tokens if b - a > 2 and text[a] == '"']
            if strings:
                a, b = draw(st.sampled_from(strings))
                i = draw(st.integers(a + 1, b - 1))
                text = text[:i] + ("\\" if edit == "escape" else " ") + text[i:]
        elif edit == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif edit in ("drop", "duplicate") and tokens:
            a, b = draw(st.sampled_from(tokens))
            kept = text[a:b] + " " + text[a:b] if edit == "duplicate" else ""
            text = text[:a] + kept + text[b:]
        elif edit == "tag" and tags:
            a, b = draw(st.sampled_from(tags))
            name = draw(st.sampled_from(["frob", "nu", "omega 1", "omegabar 2"]))
            text = text[:a] + name + text[b:]
        elif edit == "arity":
            args = [m.span(1) for m in _FIRST_ARG.finditer(text)]
            if args:
                a, b = draw(st.sampled_from(args))
                if draw(st.booleans()):  # one argument more after the first
                    extra = draw(st.sampled_from(['"p1"', "(seq)", "3"]))
                    text = text[:b] + " " + extra + text[b:]
                else:  # the first argument dropped
                    text = text[:a] + text[b:]
        elif edit == "premise":
            premises = _premise_spans(text, tokens)
            if premises:
                a, b = draw(st.sampled_from(premises))
                kept = text[a:b] + text[a:b] if draw(st.booleans()) else ""
                text = text[:a] + kept + text[b:]
        elif edit == "trailing":
            text += draw(st.sampled_from([")", " x", "\n\n", _DUMPS[0]]))
    return text


def _premise_spans(text, tokens):
    """The span of each premise, with the space before it, found by
    matching parentheses token by token (formulas hold parentheses only
    inside strings)."""
    spans, opened = [], []
    for a, b in tokens:
        if text[a:b] == "(":
            opened.append(a)
        elif text[a:b] == ")":
            start = opened.pop() if opened else None
            if start is not None and opened and text.startswith(" (rule ", start - 1):
                spans.append((start - 1, b))
    return spans


@settings(deadline=None, max_examples=150)
@given(_proof_texts())
def test_proof_loads_reads_back_the_writers_text(text):
    assert proof_dumps(proof_loads(text)) == text


@settings(deadline=None, max_examples=400)
@given(_mutated_proof_texts())
def test_proof_loads_matches_the_general_reader(text):
    assert _proof_outcome(proof_loads, text) == _proof_outcome(_general, text)


def test_proof_loads_matches_the_general_reader_oracles():
    for text in (
        '(rule (axiom "p0") (seq "p0" "~p0"))',
        ' (rule (axiom "p0") (seq "p0" "~p0"))\n',
        '(rule (axiom "p0")  (seq "p0" "~p0"))\n',
        '(rule (axiom "p\\0") (seq "p0" "~p0"))\n',
        '(rule (axiom "p0") (seq "p0" "~p0")) x',
        '(rule (axiom "p0") (seq "p0" "~p0")',
        '(rule (axiom "p0") (seq "p0" "~p0") (rule (axiom "p0") (seq "p0" "~p0")))',
        '(rule (axiom "p0" "p0") (seq "p0" "~p0"))',
        '(rule (axiom) (seq "p0" "~p0"))',
        '(rule (nu "nu X . X") (seq "nu X . X"))',
        '(rule (axiom "p0 &") (seq "p0" "~p0"))',
        '(rule (axiom "p0") (seq "p0" "~p0 &"))',
        '(rule (box "[] p1" (seq "p2")) (seq "[] p1" "p2"))',
        '(rule (box "[] p1" "p2") (seq "[] p1" "p2"))',
        '(rule (ind "mu X . X") (seq "p0"))',
        "",
        "3",
    ):
        got = _proof_outcome(proof_loads, text)
        assert got == _proof_outcome(_general, text), text
    # premises set off by anything but one space
    top_cut = proof_dumps(CORPUS["top-cut"]())
    for sep in ("", "x", "\n", "  ", " 3 "):
        text = top_cut.replace(") (rule", ")%s(rule" % sep, 1)
        got = _proof_outcome(proof_loads, text)
        assert got == _proof_outcome(_general, text), text


def test_canonical_text_never_reaches_the_general_reader(monkeypatch):
    # the writer's text of proofs that use every rule of S is read by the
    # node reader alone: a change to the writer or to a rule's pattern
    # that sent it down the general reader would fail here
    proofs = [*_small_proofs(), _box_and_clo()]
    proofs += [cut_tree((atom(1), natom(2))), cut_chain([atom(1), natom(2)])]
    texts = [proof_dumps(p) for p in proofs]

    def refuse(*args):
        raise AssertionError("canonical text went to the general reader")

    monkeypatch.setattr(sexpr, "loads", refuse)
    monkeypatch.setattr(sexpr, "sx_to_proof", refuse)
    rules = set()
    for text in texts:
        q = proof_loads(text)
        assert proof_dumps(q) == text
        rules.update(type(r) for r in observation_rules(observe(q, 10**6)))
    assert rules == set(FINITE_TAGS)
    with pytest.raises(AssertionError, match="general reader"):
        proof_loads(texts[0].replace(" ", "  ", 1))


# ---------------------------------------------------------------------------
# the one-pass writer against the recursive list builders it replaced

# Copies of the recursive writer: each proof or observation became a tree
# of lists, symbols and strings, which the generic dumps then wrote.


def _ref_dumps(sx):
    if isinstance(sx, (list, tuple)):
        return "(%s)" % " ".join(_ref_dumps(x) for x in sx)
    if isinstance(sx, Sym):
        return str(sx)
    if isinstance(sx, bool):
        raise TypeError("booleans do not serialize")
    if isinstance(sx, int):
        return str(sx)
    if isinstance(sx, str):
        return '"%s"' % sx.replace("\\", "\\\\").replace('"', '\\"')
    raise TypeError("cannot serialize %r" % (sx,))


def _ref_seq(s):
    return [Sym("seq")] + [print_form(f) for f in s]


def _ref_tag(tag):
    if isinstance(tag, Axiom):
        return [Sym("axiom"), print_form(tag.p)]
    if isinstance(tag, AxiomMu):
        return [Sym("axmu"), print_form(tag.mu)]
    if isinstance(tag, Or):
        return [Sym("or"), print_form(tag.principal)]
    if isinstance(tag, And):
        return [Sym("and"), print_form(tag.principal)]
    if isinstance(tag, Box):
        return [Sym("box"), print_form(tag.principal), _ref_seq(tag.side)]
    if isinstance(tag, Clo):
        return [Sym("clo"), print_form(tag.principal)]
    if isinstance(tag, Ind):
        return [Sym("ind"), print_form(tag.mu), print_form(tag.b)]
    if isinstance(tag, Cut):
        return [Sym("cut"), print_form(tag.formula)]
    if isinstance(tag, Nu):
        return [Sym("nu"), print_form(tag.principal)]
    if isinstance(tag, Omega):
        return [Sym("omega"), tag.h, print_form(tag.target)]
    if isinstance(tag, OmegaBar):
        return [Sym("omegabar"), tag.h, print_form(tag.target)]
    raise TypeError("unknown tag: %r" % (tag,))


def _ref_proof(p):
    tag = p.rule
    if isinstance(tag, (Nu, Omega, OmegaBar)):
        raise TypeError(
            "infinitary proofs serialize only as observations (rule %s)" % tag.name
        )
    out = [Sym("rule"), _ref_tag(tag), _ref_seq(p.conclusion)]
    out.extend(_ref_proof(q) for q in p.premises)
    return out


def _ref_observation(o):
    if o.error is not None:
        return [Sym("error"), o.error]
    out = [Sym("rule"), _ref_tag(o.rule), _ref_seq(o.conclusion)]
    out.extend(_ref_observation(c) for c in o.children)
    if o.sampled is not None:
        out.append([Sym("samples")] + list(o.sampled))
    if o.probes is not None:
        out.append([Sym("probes")] + [_ref_seq(d) for d in o.probes])
    if o.truncated:
        out.append([Sym("truncated")])
    return out


def _raise(exc):
    raise exc


def _windows():
    """Observations of every kind of node the writer meets."""
    for p in CORPUS.values():
        stages = pipeline(p())
        for stage in ("embedded", "eliminated", "collapsed", "sinf"):
            for depth in (0, 1, 6):
                yield observe(stages[stage], depth)
    for m in lemma_suite()[:4]:
        yield observe(identity_mu(m, 2), 4, (0, 3))
        yield observe(identity_mu_primed(m, 2), 3, (1,), 0)
    # error leaves, with and without a conclusion, whose messages need
    # escaping
    msg = 'a "quoted" \\ message'
    yield observe(Proof.defer(seq(TOP), lambda: _raise(ValueError(msg))), 3)
    n = pf("nu X . (p1 & X)")
    yield observe(nu_node(seq(n), n, lambda i: _raise(ValueError(msg))), 2)
    # a box rule with an empty side writes (seq)
    q = atom(2)
    prem = ax(seq(atom(1), natom(1), q), atom(1))
    conc = Sequent((("dia", atom(1)), ("dia", natom(1)), ("box", q)))
    yield observe(box_node(conc, ("box", q), Sequent(), prem), 2)
    yield Observation(Sequent(), Axiom(atom(0)))


def test_observation_dumps_matches_the_recursive_writer():
    n = 0
    for o in _windows():
        assert observation_dumps(o) == _ref_dumps(_ref_observation(o)) + "\n"
        n += 1
    assert n == 4 * 4 * 3 + 4 * 2 + 4


def test_proof_dumps_matches_the_recursive_writer():
    for p in _small_proofs():
        assert proof_dumps(p) == _ref_dumps(_ref_proof(p)) + "\n"
    n = pf("nu X . (p1 & X)")
    inf = nu_node(seq(n), n, lambda i: top_intro((n,)))
    with pytest.raises(TypeError) as got:
        proof_dumps(cut_node(seq(TOP), atom(1), top_intro((atom(1),)), inf))
    with pytest.raises(TypeError) as want:
        _ref_proof(cut_node(seq(TOP), atom(1), top_intro((atom(1),)), inf))
    assert str(got.value) == str(want.value)


def test_proof_dumps_of_a_deep_cut_chain():
    # 1,000 nested cuts: deeper than the Python stack allows a recursive
    # writer or reader to go
    p = deep_cut_chain(1000)
    assert check_finite(p).ok
    text = proof_dumps(p)
    sx = loads(text)
    depth = 0
    while len(sx) == 5:  # (rule (cut ...) (seq ...) left right)
        sx = sx[4]
        depth += 1
    assert depth == 1000
    assert sx[:2] == [Sym("rule"), [Sym("or"), print_form(TOP)]]
    q = proof_loads(text)
    assert proof_dumps(q) == text
    assert check_finite(q).ok


def test_check_reads_a_deep_cut_chain(tmp_path):
    f = tmp_path / "chain.sproof"
    f.write_text(proof_dumps(deep_cut_chain(1000)))
    assert run_cli(["check", str(f)]) == (0, "(report ok)\n", "")


def test_observing_and_writing_sorts_only_the_window(monkeypatch):
    # sequents are ordered when read: observing the eliminated stage of a
    # 50-cut chain and writing it sorts each sequent of the window at most
    # once, and no sequent the elimination built but did not show
    atoms = [atom(i) if i % 2 else natom(i) for i in range(1, 51)]
    eliminated = pipeline(cut_chain(atoms))["eliminated"]
    sorted_sets = []
    canonical = sequents._canonical

    def counting(members):
        sorted_sets.append(members)
        return canonical(members)

    monkeypatch.setattr(sequents, "_canonical", counting)
    o = observe(eliminated, 6)
    observation_dumps(o)
    window, todo = [], [o]
    while todo:
        node = todo.pop()
        todo.extend(node.children)
        window.append(node.conclusion)
        window.extend(node.probes or ())
        if isinstance(node.rule, Box):
            window.append(node.rule.side)
    assert 0 < len(sorted_sets) <= len(window)
    assert set(sorted_sets) <= {s._set for s in window}


# ---------------------------------------------------------------------------
# the texts the observation writer keeps on sequents and tags


def _kept_text_inputs():
    """The text of two proofs whose stage windows share their values: a
    cut at two levels (its eliminated stage has probes) and the
    fixed-point axiom on a formula whose identity law has box rules (its
    first three stages are one object)."""
    m = pf("mu X . ([] X | <> p1)")
    return [proof_dumps(CORPUS["nested"]()), proof_dumps(axmu_node(seq(m, negate(m)), m))]


@pytest.mark.parametrize("text", _kept_text_inputs(), ids=["nested", "axmu-box"])
def test_stage_texts_do_not_depend_on_the_order_they_are_written(text):
    stages = ("embedded", "eliminated", "collapsed", "sinf")
    first, second = pipeline(proof_loads(text)), pipeline(proof_loads(text))
    forward = [observation_dumps(observe(first[s], 8)) for s in stages]
    backward = [observation_dumps(observe(second[s], 8)) for s in reversed(stages)]
    assert forward == backward[::-1]
    fresh = pipeline(proof_loads(text))
    assert forward == [
        _ref_dumps(_ref_observation(observe(fresh[s], 8))) + "\n" for s in stages
    ]
    assert any("(box " in t for t in forward) or any("(probes (seq" in t for t in forward)


def _nodes(p):
    todo, seen = [p], []
    while todo:
        q = todo.pop()
        seen.append(q)
        todo.extend(q.premises)
    return seen


@pytest.mark.parametrize("text", _kept_text_inputs(), ids=["nested", "axmu-box"])
def test_proof_dumps_keeps_no_text(text):
    p = proof_loads(text)
    assert proof_dumps(p) == text
    values = []
    for q in _nodes(p):
        values += [q.conclusion, q.rule]
        if isinstance(q.rule, Box):
            values.append(q.rule.side)
    assert all(v._text is None for v in values)
    assert "_text" not in vars(p.rule)
    observation_dumps(observe(p, 100))
    assert all(v._text is not None for v in values)


def test_box_sides_and_probe_deltas_are_written_through_their_kept_text():
    q = atom(2)
    prem = ax(seq(atom(1), natom(1), q), atom(1))
    side = seq(atom(3))
    conc = side.union((("dia", atom(1)), ("dia", natom(1)), ("box", q)))
    box = observe(box_node(conc, ("box", q), side, prem), 1)
    delta = seq(TOP)
    target = prime(pf("mu X . (p1 | X)"))
    omega = Observation(seq(omega_phi(target)), Omega(1, target), (), True, None, (delta,))
    kept = '(seq "kept")'
    object.__setattr__(side, "_text", kept)
    object.__setattr__(delta, "_text", kept)
    assert observation_dumps(box).startswith('(rule (box "[] p2" %s) ' % kept)
    assert observation_dumps(omega).endswith("(probes %s) (truncated))\n" % kept)
    # unkept, the same values are written as the writer keeps them
    side, delta = seq(atom(3)), seq(TOP)
    box = observe(box_node(conc, ("box", q), side, prem), 1)
    omega = Observation(omega.conclusion, omega.rule, (), True, None, (delta,))
    for o, value in ((box, side), (omega, delta)):
        text = observation_dumps(o)
        assert value._text is not None and value._text in text
        assert text == _ref_dumps(_ref_observation(o)) + "\n"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_a_window_keeps_its_text(name):
    stages = pipeline(CORPUS[name]())
    for stage, p in stages.items():
        o = observe(p, 5)
        text = observation_dumps(o)
        assert observation_dumps(o) is text
        cold = observe(pipeline(CORPUS[name]())[stage], 5)
        assert observation_dumps(cold).encode("utf-8") == text.encode("utf-8")
        assert cold == o
