"""Canonical s-expression serialization.

Finite proofs, observations, check reports, and summaries all serialize
as single-line s-expressions: lists in parentheses, lowercase symbols,
integers, and formulas as double-quoted strings of the grammar.  Sequents
serialize in canonical order, so equal values are byte-identical.

A proof file as proof_dumps writes it is read straight into proof nodes:
one pattern match per node head up to its (seq, which names no rule,
and str.find and str.split for the conclusion's members.  Each head's
tag text is read by the general reader's sx_to_tag behind a kernel memo
keyed by the text, so the tag table is the one description of tag text.
Any other text, and any that fails to build, is read by the general
reader (loads, then sx_to_proof), so values and errors do not depend on
which reader ran.  Both read formula texts through the parse_formula
memo; the fast reader keeps one member table per file in front of it,
so a member text repeated in a file is a dict lookup.

The observation writer prints each conclusion and probe Delta through a
kernel memo, so windows that share sequents (the stages of one pipeline)
print each once; the values themselves keep no text.  Rule tags, box
sides included, are written afresh, and proof_dumps keeps nothing.  A
window keeps its text, so a spliced window, one that windows hold more
than once (proofs.observe), is written once, wherever the windows that
hold it meet it.
"""

from __future__ import annotations

import re

from mucut.kernel import memo
from mucut.proofs import ALL_TAGS, Proof, make_node
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
    while True:
        m = match(text, pos)
        kind = m.lastindex
        if kind is None:
            _no_token(text, m.end(), len(stack))
        pos = m.end()
        if kind == _OPEN:
            stack.append([])
            continue
        if kind == _CLOSE:
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


# The observation writer's: equal sequents print alike, so one text
# serves every window that shows one of them.
_memo_seq_text = memo(_seq_text)


def _tag_text(tag):
    """The text of a rule tag."""
    rule = _RULES.get(getattr(type(tag), "name", None))
    if rule is None or rule[0] is not type(tag):
        raise TypeError("unknown tag: %r" % (tag,))
    _, _, _, text, get, writers = rule
    # most tags have one argument, which get gives as it is: written with
    # one format and one call, and no list or tuple built per tag
    if len(writers) == 1:
        return text % writers[0](get(tag))
    return text % tuple([write(arg) for write, arg in zip(writers, get(tag))])


def _write(root, parts):
    """The text of the tree under root and a newline, written in one pass
    over an explicit stack, so nesting depth is not bounded by the Python
    stack.  parts(node) gives the text that opens a node, its children and
    the text that closes it.  A spliced window below the root is written
    as the text observation_dumps keeps for it, without its newline."""
    out = []
    todo = [root]
    while todo:
        node = todo.pop()
        if type(node) is str:
            out.append(node)
            continue
        if node.spliced and node is not root:
            out.append(observation_dumps(node)[:-1])
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


def sx_to_seq(sx):
    if not isinstance(sx, list) or not sx or sx[0] != _SEQ:
        raise SexprError("expected (seq ...)", 0)
    forms = []
    for item in sx[1:]:
        if not isinstance(item, str) or isinstance(item, Sym):
            raise SexprError("sequent members must be quoted formulas", 0)
        forms.append(parse_formula(item))
    return from_checked(forms)


# Each kind of rule argument, by the type of the tag field that holds it:
# its slot in the rule's text, its writer, the type of the s-expression it
# is read from, its reader, and how a usage message names it.
_KINDS = {
    "tuple": ('"%s"', print_form, str, parse_formula, "a quoted formula"),
    "Sequent": ("%s", _seq_text, list, sx_to_seq, "a (seq ...) side"),
    "int": ("%s", dumps, int, int, "an integer level"),
}


def _entry(cls):
    """A rule's entry in the table: its tag class, its usage message, the
    expression type and reader of each argument in order, the format of
    its text, the getter of its arguments, and their writers."""
    kinds = [_KINDS[kind] for _, kind in cls.fields]
    slots, writers, types, readers, whats = zip(*kinds)
    text = "(%s)" % " ".join((cls.name,) + slots)
    usage = "%s takes %s" % (cls.name, " and ".join(whats))
    args = tuple(zip(types, readers))
    return cls, usage, args, text, cls._values, writers


# Every rule by its s-expression name.
_RULES = {cls.name: _entry(cls) for cls in ALL_TAGS}


def sx_to_tag(sx):
    if not isinstance(sx, list) or not sx or not isinstance(sx[0], Sym):
        raise SexprError("expected a rule tag", 0)
    rule = _RULES.get(sx[0])
    if rule is None:
        raise SexprError("unknown rule tag %r" % sx[0], 0)
    cls, usage, args, _, _, _ = rule
    if len(sx) != len(args) + 1:
        raise SexprError(usage, 0)
    out = []
    for (want, read), item in zip(args, sx[1:]):
        if type(item) is not want:
            raise SexprError(usage, 0)
        out.append(read(item))
    return cls(*out)


# ---------------------------------------------------------------------------
# finite proofs


_RULE = Sym("rule")


def _open_node(sx):
    """The tag, conclusion and premise expressions of one (rule ...) node,
    and an empty list for its premises once read."""
    if not isinstance(sx, list) or len(sx) < 3 or sx[0] != _RULE:
        raise SexprError("expected (rule <tag> (seq ...) <premise>...)", 0)
    tag = sx_to_tag(sx[1])
    if not isinstance(tag.arity, int):
        raise SexprError("rule %s cannot appear in a finite proof file" % tag.name, 0)
    return tag, sx_to_seq(sx[2]), sx[3:], []


def sx_to_proof(sx):
    """The finite proof of a (rule ...) expression, read over an explicit
    stack, so nesting depth is not bounded by the Python stack.  Nodes
    are opened in preorder and built once their premises are, so errors
    come in the order a recursive reader would raise them."""
    stack = [_open_node(sx)]
    while True:
        tag, conclusion, todo, premises = stack[-1]
        if len(premises) < len(todo):
            stack.append(_open_node(todo[len(premises)]))
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
    text = _tag_text(tag)
    if not isinstance(tag.arity, int):
        raise TypeError(
            "infinitary proofs serialize only as observations (rule %s)" % tag.name
        )
    return "(rule %s %s" % (text, _seq_text(p.conclusion)), p.premises, ")"


def proof_dumps(p):
    """The text of a finite proof.  Unlike observation_dumps it prints its
    sequents past the memo: a proof file is written once, and a batch of
    them would only crowd out the windows' texts."""
    return _write(p, _proof_parts)


# The head of a node as the writer gives it, up to its conclusion's
# members: (rule <tag> (seq, with the tag's text in group 1.  A tag's
# arguments are strings without escapes and (seq ...) sides of them.
_NODE_HEAD = re.compile(
    r'\(rule (\([a-z]+(?: "[^"\\]*"| \(seq(?: "[^"\\]*")*\))*\)) \(seq'
)


@memo
def _finite_tag(text):
    """The tag of a tag's text, read by the general reader, or None when
    the rule is infinitary (the general reader then words the error).
    Tags are immutable values, so equal texts can give one object."""
    tag = sx_to_tag(loads(text))
    return tag if isinstance(tag.arity, int) else None


class _MemberTable(dict):
    """Formulas by member text, for one file: a missing text is parsed."""

    def __missing__(self, text):
        f = self[text] = parse_formula(text)
        return f


def _proof_from_text(text):
    """The finite proof of text when text is as proof_dumps writes it: one
    match reads each node's head up to (seq, find and split read its
    conclusion, a space opens each premise, and a close parenthesis ends a
    node.  None for any other text.  Tags come from the _finite_tag memo,
    and each distinct member text is read through the parse_formula memo
    once per file (both give immutable values, so equal ones can be one
    object).  Nodes are built over an explicit stack; as their tags are
    finite and their premises built here, the premise count is the one
    check of make_node that can fail (then None).

    A conclusion ' "A" "B")' ends at the first '")' and its members are
    split at '" "'.  That cut is the general reader's only because
    parse_formula rejects every text that holds a double quote or a
    backslash: a group cut anywhere else leaves one in some member, which
    raises ParseError and sends the text to the general reader."""
    head = _NODE_HEAD.match
    find = text.find
    member = _MemberTable().__getitem__
    stack = []  # the nodes still open: tag, conclusion, premises read
    pos = 0
    while True:
        m = head(text, pos)
        if m is None:
            return None
        pos = m.end()
        tag = _finite_tag(m.group(1))
        if tag is None:
            return None
        if text.startswith(' "', pos):
            end = find('")', pos)
            if end < 0:
                return None
            members = text[pos + 2 : end].split('" "')
            conclusion = from_checked(map(member, members))
            pos = end + 2
        elif text.startswith(")", pos):
            conclusion = from_checked(())
            pos += 1
        else:
            return None
        stack.append((tag, conclusion, []))
        while text.startswith(")", pos):
            pos += 1
            tag, conclusion, premises = stack.pop()
            if len(premises) != tag.arity:
                return None
            node = Proof.make(conclusion, tag, tuple(premises))
            if not stack:
                return node if _SPACE.match(text, pos).end() == len(text) else None
            stack[-1][2].append(node)
        if not text.startswith(" ", pos):
            return None
        pos += 1


def proof_loads(text):
    """The finite proof of a proof file's text.  Text as proof_dumps writes
    it is read straight into proof nodes; any other text, and any that
    fails to build, goes through the general reader, so values and errors
    are the general reader's."""
    try:
        p = _proof_from_text(text)
    except (ValueError, RecursionError):
        p = None
    if p is None:
        p = sx_to_proof(loads(text))
    return p


# ---------------------------------------------------------------------------
# observations


def _observation_parts(o):
    if o.error is not None:
        return "(error %s)" % dumps(o.error), (), ""
    tail = ""
    if o.sampled is not None:
        tail += " " + dumps([_SAMPLES, *o.sampled])
    if o.probes is not None:
        tail += " (probes%s)" % "".join(" " + _memo_seq_text(d) for d in o.probes)
    if o.truncated:
        tail += " (truncated)"
    head = "(rule %s %s" % (_tag_text(o.rule), _memo_seq_text(o.conclusion))
    return head, o.children, tail + ")"


def observation_dumps(o):
    """The text of an observation, kept on the window, so a repeated
    request writes nothing again.  Each conclusion and probe Delta is
    printed through the _memo_seq_text memo, so windows that share
    sequents (the stages of one pipeline) print each once."""
    return o.keep("text", _write, o, _observation_parts)


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
