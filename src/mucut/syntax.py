"""Formula syntax: operator forms, parser, and canonical printer.

Operator forms are the tuple trees documented in the kernel; this
module adds the concrete ASCII grammar:

    F ::= p<i> | ~p<i> | X | (F & F) | (F | F)
        | [] F | <> F
        | mu X . F | nu X . F | nub X . F
        | top                      -- sugar for (p0 | ~p0)

Whitespace between tokens is ignored.  Binders and modalities extend
maximally to the right.  Redundant grouping parentheses `(F)` are
accepted on input; the printer emits the canonical spelling shown in
the grammar (one space around infix operators and after `[]`/`<>`,
`mu X . F` style binders) and always desugars `top`.  parse_formula
and print_form are kernel memos: equal texts give the same formula
object, and a text that fails is not kept, so it raises on every call.
"""

from __future__ import annotations

from mucut.kernel import TOP, memo, validate


class ParseError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message, text, pos):
        self.text = text
        self.pos = pos
        snippet = text[max(0, pos - 12) : pos + 12].replace("\n", " ")
        super().__init__("%s at position %d (near %r)" % (message, pos, snippet))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.first_free = None  # position of first binder-free X, if any

    def error(self, message, pos=None):
        raise ParseError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self):
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def ident(self):
        """Scan a letter-initial alphanumeric word (no leading ws skip)."""
        t = self.text
        start = self.pos
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start : self.pos]

    def index(self, word, pos):
        """The index of the atom word p<i> read at pos: an index int
        cannot read, one of more digits than the interpreter's limit for
        integer strings, is a parse error at its first digit."""
        try:
            return int(word[1:])
        except ValueError:
            self.error("atom index of %d digits is too long" % (len(word) - 1), pos + 1)

    def form(self, depth):
        c = self.peek()
        start = self.pos
        if c == "":
            self.error("unexpected end of input")
        if c == "(":
            self.pos += 1
            left = self.form(depth)
            op = self.peek()
            if op == ")":
                self.pos += 1
                return left  # redundant grouping parentheses
            if op == "&" or op == "|":
                self.pos += 1
                right = self.form(depth)
                self.expect(")")
                return ("and" if op == "&" else "or", left, right)
            self.error("expected '&', '|' or ')'")
        if c == "[":
            self.pos += 1
            if self.pos >= len(self.text) or self.text[self.pos] != "]":
                self.error("expected ']' immediately after '['")
            self.pos += 1
            return ("box", self.form(depth))
        if c == "<":
            self.pos += 1
            if self.pos >= len(self.text) or self.text[self.pos] != ">":
                self.error("expected '>' immediately after '<'")
            self.pos += 1
            return ("dia", self.form(depth))
        if c == "~":
            self.pos += 1
            self.skip_ws()
            wstart = self.pos
            word = self.ident()
            # str.isdigit alone takes "²", which int refuses, and "١", read as 1
            if not (word[:1] == "p" and word.isascii() and word[1:].isdigit()):
                self.error("'~' must be followed by an atom p<i>", wstart)
            return ("natom", self.index(word, wstart))
        if c.isalpha():
            word = self.ident()
            if word == "X":
                if depth == 0 and self.first_free is None:
                    self.first_free = start
                return ("var",)
            if word == "top":
                return TOP
            if word in ("mu", "nu", "nub"):
                self.skip_ws()
                vstart = self.pos
                v = self.ident()
                if v != "X":
                    self.error("expected variable 'X' after %r" % word, vstart)
                self.expect(".")
                return (word, self.form(depth + 1))
            if word[0] == "p" and word.isascii() and word[1:].isdigit():
                return ("atom", self.index(word, start))
            self.error("unknown token %r" % word, start)
        self.error("unexpected character %r" % c)


def _parse(text):
    """The parser after reading all of text, and the form it read."""
    p = _Parser(text)
    f = p.form(0)
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return p, f


def parse_form(text):
    """Parse text into an operator form (free X allowed)."""
    return validate(_parse(text)[1])


@memo
def parse_formula(text):
    """Parse text into a closed formula; free X is rejected."""
    p, f = _parse(text)
    if p.first_free is not None:
        raise ParseError("free variable X in formula position", text, p.first_free)
    return validate(f)


@memo
def print_form(f):
    """Canonical text; parse_form(print_form(f)) == f for every form f."""
    t = f[0]
    if t == "atom":
        return "p%d" % f[1]
    if t == "natom":
        return "~p%d" % f[1]
    if t == "var":
        return "X"
    if t == "and":
        return "(%s & %s)" % (print_form(f[1]), print_form(f[2]))
    if t == "or":
        return "(%s | %s)" % (print_form(f[1]), print_form(f[2]))
    if t == "box":
        return "[] %s" % print_form(f[1])
    if t == "dia":
        return "<> %s" % print_form(f[1])
    return "%s X . %s" % (t, print_form(f[1]))
