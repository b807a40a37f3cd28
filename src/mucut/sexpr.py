"""Canonical s-expression serialization.

Finite proofs, observations, check reports, and summaries all serialize
as single-line s-expressions: lists in parentheses, lowercase symbols,
integers, and formulas as double-quoted strings of the grammar.  Sequents
serialize in canonical order, so equal values are byte-identical.
"""

from __future__ import annotations

import re

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
    make_node,
)
from mucut.sequents import from_checked
from mucut.syntax import parse_formula, print_form


class Sym(str):
    """A bare symbol (as opposed to a quoted string)."""

    __slots__ = ()


_SEQ = Sym("seq")
_SAMPLES = Sym("samples")


class SexprError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------------
# generic reader / writer


def dumps(sx):
    if isinstance(sx, (list, tuple)):
        return "(%s)" % " ".join(dumps(x) for x in sx)
    if isinstance(sx, Sym):
        return str(sx)
    if isinstance(sx, bool):
        raise TypeError("booleans do not serialize")
    if isinstance(sx, int):
        return str(sx)
    if isinstance(sx, str):
        return '"%s"' % sx.replace("\\", "\\\\").replace('"', '\\"')
    raise TypeError("cannot serialize %r" % (sx,))


# One token after optional whitespace: an open or a close parenthesis, a
# complete string (its body in group 3, escapes still in), or a symbol or
# integer.  When no token follows (end of input, a bad character or an
# unterminated string), the match is the whitespace alone.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:(\()|(\))|"([^"\\]*(?:\\.[^"\\]*)*)"|([A-Za-z0-9_\-:.+]+))?',
    re.S,
)
_SPACE = re.compile(r"[ \t\r\n]*")
_STRING_START = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
_OPEN, _CLOSE, _STRING, _WORD = 1, 2, 3, 4
# The rest of a (seq "..." ...) group after its open parenthesis, when
# every member is a string without escapes set off by whitespace: the
# strings in group 1.  Any other group is read token by token.
_SEQ_REST = re.compile(r'[ \t\r\n]*seq((?:[ \t\r\n]+"[^"\\]*")*)[ \t\r\n]*\)')
_SEQ_ITEM = re.compile(r'"([^"\\]*)"')


def _no_token(text, pos, depth):
    """Raise the error for a position at which no token starts."""
    if pos == len(text):
        raise SexprError(
            "unclosed parenthesis" if depth else "unexpected end of input", pos
        )
    if text[pos] == '"':
        end = _STRING_START.match(text, pos).end()
        if end < len(text):  # stopped at a backslash that ends the input
            raise SexprError("dangling escape", end)
        raise SexprError("unclosed string", end)
    raise SexprError("unexpected character %r" % text[pos], pos)


def loads(text):
    """Read one s-expression, iteratively: nesting depth is not bounded by
    the Python stack."""
    stack = []  # the lists still open, outermost first
    pos = 0
    match = _TOKEN.match
    seq_rest = _SEQ_REST.match
    while True:
        m = match(text, pos)
        kind = m.lastindex
        if kind is None:
            _no_token(text, m.end(), len(stack))
        pos = m.end()
        if kind == _OPEN:
            g = seq_rest(text, pos)
            if g is None:
                stack.append([])
                continue
            pos = g.end()
            value = [_SEQ]
            value.extend(_SEQ_ITEM.findall(text, g.start(1), g.end(1)))
        elif kind == _CLOSE:
            if not stack:
                raise SexprError("unmatched closing parenthesis", pos - 1)
            value = stack.pop()
        elif kind == _STRING:
            value = m.group(_STRING)
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        else:
            value = m.group(_WORD)
            if value[0] in "0123456789+-":
                try:
                    value = int(value)
                except ValueError:
                    value = Sym(value)
            else:
                value = Sym(value)
        if not stack:
            break
        stack[-1].append(value)
    pos = _SPACE.match(text, pos).end()
    if pos != len(text):
        raise SexprError("trailing input after s-expression", pos)
    return value


# ---------------------------------------------------------------------------
# the one-pass writer of proofs and observations
#
# print_form never emits a double quote or a backslash, so a formula is
# written as its printed form between double quotes, with no escaping;
# every other string goes through dumps.


def _seq_text(s):
    texts = [print_form(f) for f in s]
    return '(seq "%s")' % '" "'.join(texts) if texts else "(seq)"


def _tag_text(tag):
    if isinstance(tag, Axiom):
        return '(axiom "%s")' % print_form(tag.p)
    if isinstance(tag, AxiomMu):
        return '(axmu "%s")' % print_form(tag.mu)
    if isinstance(tag, Or):
        return '(or "%s")' % print_form(tag.principal)
    if isinstance(tag, And):
        return '(and "%s")' % print_form(tag.principal)
    if isinstance(tag, Box):
        return '(box "%s" %s)' % (print_form(tag.principal), _seq_text(tag.side))
    if isinstance(tag, Clo):
        return '(clo "%s")' % print_form(tag.principal)
    if isinstance(tag, Ind):
        return '(ind "%s" "%s")' % (print_form(tag.mu), print_form(tag.b))
    if isinstance(tag, Cut):
        return '(cut "%s")' % print_form(tag.formula)
    if isinstance(tag, Nu):
        return '(nu "%s")' % print_form(tag.principal)
    if isinstance(tag, Omega):
        return '(omega %s "%s")' % (dumps(tag.h), print_form(tag.target))
    if isinstance(tag, OmegaBar):
        return '(omegabar %s "%s")' % (dumps(tag.h), print_form(tag.target))
    raise TypeError("unknown tag: %r" % (tag,))


def _write(root, parts):
    """The text of the tree under root and a newline, written in one pass
    over an explicit stack, so nesting depth is not bounded by the Python
    stack.  parts(node) gives the text that opens a node, its children and
    the text that closes it."""
    out = []
    todo = [root]
    while todo:
        node = todo.pop()
        if type(node) is str:
            out.append(node)
            continue
        head, children, tail = parts(node)
        out.append(head)
        todo.append(tail)
        for q in reversed(children):
            todo.append(q)
            todo.append(" ")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# sequents


def seq_to_sx(s):
    return [Sym("seq")] + [print_form(f) for f in s]


def _formula(text, parsed):
    """parse_formula(text), parsed once per distinct text: `parsed` maps
    the texts read so far to their formulas."""
    f = parsed.get(text)
    if f is None:
        f = parsed[text] = parse_formula(text)
    return f


def sx_to_seq(sx, parsed):
    if not isinstance(sx, list) or not sx or sx[0] != _SEQ:
        raise SexprError("expected (seq ...)", 0)
    texts = sx[1:]
    if set(map(type, texts)) <= {str}:
        return from_checked([_formula(t, parsed) for t in texts])
    forms = []
    for item in texts:
        if not isinstance(item, str) or isinstance(item, Sym):
            raise SexprError("sequent members must be quoted formulas", 0)
        forms.append(_formula(item, parsed))
    return from_checked(forms)


def _want_forms(sx, n, what, parsed):
    if len(sx) != n + 1:
        raise SexprError("%s takes %d argument(s)" % (what, n), 0)
    out = []
    for item in sx[1:]:
        if not isinstance(item, str) or isinstance(item, Sym):
            raise SexprError("%s arguments must be quoted formulas" % what, 0)
        out.append(_formula(item, parsed))
    return out


def sx_to_tag(sx, parsed):
    if not isinstance(sx, list) or not sx or not isinstance(sx[0], Sym):
        raise SexprError("expected a rule tag", 0)
    head = str(sx[0])
    if head == "axiom":
        return Axiom(_want_forms(sx, 1, "axiom", parsed)[0])
    if head == "axmu":
        return AxiomMu(_want_forms(sx, 1, "axmu", parsed)[0])
    if head == "or":
        return Or(_want_forms(sx, 1, "or", parsed)[0])
    if head == "and":
        return And(_want_forms(sx, 1, "and", parsed)[0])
    if head == "box":
        if len(sx) != 3 or not isinstance(sx[1], str) or isinstance(sx[1], Sym):
            raise SexprError("box takes a formula and a side sequent", 0)
        return Box(_formula(sx[1], parsed), sx_to_seq(sx[2], parsed))
    if head == "clo":
        return Clo(_want_forms(sx, 1, "clo", parsed)[0])
    if head == "ind":
        mu, b = _want_forms(sx, 2, "ind", parsed)
        return Ind(mu, b)
    if head == "cut":
        return Cut(_want_forms(sx, 1, "cut", parsed)[0])
    if head == "nu":
        return Nu(_want_forms(sx, 1, "nu", parsed)[0])
    if head in ("omega", "omegabar"):
        if len(sx) != 3 or not isinstance(sx[1], int):
            raise SexprError("%s takes a level and a target" % head, 0)
        if not isinstance(sx[2], str) or isinstance(sx[2], Sym):
            raise SexprError("%s target must be a quoted formula" % head, 0)
        cls = Omega if head == "omega" else OmegaBar
        return cls(sx[1], _formula(sx[2], parsed))
    raise SexprError("unknown rule tag %r" % head, 0)


# ---------------------------------------------------------------------------
# finite proofs


_RULE = Sym("rule")


def _open_node(sx, parsed):
    """The tag, conclusion and premise expressions of one (rule ...) node,
    and an empty list for its premises once read."""
    if not isinstance(sx, list) or len(sx) < 3 or sx[0] != _RULE:
        raise SexprError("expected (rule <tag> (seq ...) <premise>...)", 0)
    tag = sx_to_tag(sx[1], parsed)
    if isinstance(tag, (Nu, Omega, OmegaBar)):
        raise SexprError(
            "rule %s cannot appear in a finite proof file"
            % type(tag).__name__.lower(),
            0,
        )
    return tag, sx_to_seq(sx[2], parsed), sx[3:], []


def sx_to_proof(sx, parsed):
    """The finite proof of a (rule ...) expression, read over an explicit
    stack, so nesting depth is not bounded by the Python stack.  Nodes
    are opened in preorder and built once their premises are, so errors
    come in the order a recursive reader would raise them."""
    stack = [_open_node(sx, parsed)]
    while True:
        tag, conclusion, todo, premises = stack[-1]
        if len(premises) < len(todo):
            stack.append(_open_node(todo[len(premises)], parsed))
            continue
        stack.pop()
        try:
            node = make_node(conclusion, tag, premises)
        except ValueError as exc:
            raise SexprError(str(exc), 0)
        if not stack:
            return node
        stack[-1][3].append(node)


def _proof_parts(p):
    tag = p.rule
    if isinstance(tag, (Nu, Omega, OmegaBar)):
        raise TypeError(
            "infinitary proofs serialize only as observations (rule %s)"
            % type(tag).__name__.lower()
        )
    return "(rule %s %s" % (_tag_text(tag), _seq_text(p.conclusion)), p.premises, ")"


def proof_dumps(p):
    return _write(p, _proof_parts)


def proof_loads(text):
    return sx_to_proof(loads(text), {})


# ---------------------------------------------------------------------------
# observations


def _observation_parts(o):
    if o.error is not None:
        return "(error %s)" % dumps(o.error), (), ""
    tail = ""
    if o.sampled is not None:
        tail += " " + dumps([_SAMPLES, *o.sampled])
    if o.probes is not None:
        tail += " (probes%s)" % "".join(" " + _seq_text(d) for d in o.probes)
    if o.truncated:
        tail += " (truncated)"
    head = "(rule %s %s" % (_tag_text(o.rule), _seq_text(o.conclusion))
    return head, o.children, tail + ")"


def observation_dumps(o):
    return _write(o, _observation_parts)


# ---------------------------------------------------------------------------
# reports and summaries


def report_to_sx(report):
    if report.ok:
        return [Sym("report"), Sym("ok")]
    out = [Sym("report"), Sym("fail")]
    for path, msg in report.violations:
        out.append([Sym("violation"), path, msg])
    return out


def report_dumps(report):
    return dumps(report_to_sx(report)) + "\n"


def summary_to_sx(endsequent, cut_free, nubar_free, checks=()):
    """The summary; checks are (stage, system name, ok) verdicts."""
    return [
        Sym("summary"),
        [Sym("endsequent"), seq_to_sx(endsequent)],
        [Sym("cut-free"), Sym("yes" if cut_free else "no")],
        [Sym("nubar-free"), Sym("yes" if nubar_free else "no")],
        *(
            [Sym("check"), Sym(stage), Sym(system), Sym("ok" if ok else "fail")]
            for stage, system, ok in checks
        ),
    ]


def step_to_sx(path, case, rank):
    return [Sym("step"), path, Sym(case), [Sym("rank"), rank[0], rank[1]]]
