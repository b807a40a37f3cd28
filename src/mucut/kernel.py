"""Formula kernel for the one-variable modal mu-calculus.

Formulas are immutable nested tuples whose first element is a tag string:

    ('atom', i)      positive propositional atom p_i   (i a nonnegative int)
    ('natom', i)     negated atom ~p_i
    ('var',)         the single fixpoint variable X
    ('and', l, r)    conjunction
    ('or', l, r)     disjunction
    ('box', b)       box modality
    ('dia', b)       diamond modality
    ('mu', b)        least fixpoint mu X . b
    ('nu', b)        greatest fixpoint nu X . b
    ('nub', b)       annotated greatest fixpoint nub X . b

There is exactly one variable, so binders carry no name: every ('var',)
occurrence is bound by the nearest enclosing binder, and substitution
stops at binders because they rebind the variable.  Consequently a free
variable occurrence never sits under any binder, which keeps all the
operations here purely structural (no capture bookkeeping is needed).

Negation is defined clause-wise and is an involution; the annotated
binder negates like the plain one (~(nub X . A) = mu X . ~A).  Priming
replaces every plain nu with nub.  The two interact rigidly:

    negate(negate(f)) == f
    negate(prime(f))  == negate(f)
    prime(substitute(f, b)) == substitute(prime(f), prime(b))

The language without 'nub' is the base language: is_l0(f) is
max_nubar_level(f) < 0.  f is fully primed when it has no plain 'nu', so
prime leaves it as it is (is_fully_primed).

The operations that sequents, the printer, the checker and the proof
transformations apply again and again to the same formulas (sort_key,
has_free_var, level, max_nubar_level, negate, prime, unfolding) are
memoized, each in an LRU cache of 4096 entries.  So is _chain, the list
[b, a(b), a^2(b), ...] that iterate keeps per (a, b) and extends on
demand: each approximant and each unfolding is built once, one
substitute step from what it is built on.  syntax.print_form, its
inverse syntax.parse_formula (keyed by text), sexpr._finite_tag (the
rule tag of a proof file's tag text), sexpr._memo_seq_text (the
observation writer's text of a sequent) and proofs._probe (the canonical
probe of a replacement target) are memoized too.  A cache compares keys
by ==, and ('atom', True) and ('atom', 1.0) both equal ('atom', 1), so
it may answer for one what it computed for another.  That is harmless
where the answer is an int, a bool, an int tuple or text.  negate,
prime, unfolding and _chain answer with formulas, so they refuse a bad
atom index when they compute (unfolding and _chain validate their
arguments on a miss, and iterate extends a chain only with the a
validated with it), and no cached answer contains one;
proofs.canonical_probe validates its target before it asks _probe.
validate is not memoized: it must see every atom index itself.
"""

from functools import lru_cache

KERNEL_BACKEND = "python"

memo = lru_cache(maxsize=1 << 12)

X = ("var",)
TOP = ("or", ("atom", 0), ("natom", 0))

_TAG_CODE = {
    "atom": 0,
    "natom": 1,
    "var": 2,
    "and": 3,
    "or": 4,
    "box": 5,
    "dia": 6,
    "mu": 7,
    "nu": 8,
    "nub": 9,
}

_UNARY = ("box", "dia", "mu", "nu", "nub")
_BINARY = ("and", "or")


def atom(i):
    return ("atom", i)


def natom(i):
    return ("natom", i)


def and_(l, r):
    return ("and", l, r)


def or_(l, r):
    return ("or", l, r)


def box(b):
    return ("box", b)


def dia(b):
    return ("dia", b)


def mu(b):
    return ("mu", b)


def nu(b):
    return ("nu", b)


def nub(b):
    return ("nub", b)


def _atom(f):
    """f, an atom node, unless its index is not a nonnegative int."""
    if len(f) != 2 or not isinstance(f[1], int) or isinstance(f[1], bool) or f[1] < 0:
        raise ValueError("bad atom node: %r" % (f,))
    return f


def validate(f):
    """Raise ValueError unless f is a structurally well-formed formula.

    Iterative, so the nesting depth is not bounded by the Python stack."""
    stack = [f]
    while stack:
        g = stack.pop()
        if not isinstance(g, tuple) or not g:
            raise ValueError("formula must be a nonempty tuple: %r" % (g,))
        t = g[0]
        if t == "atom" or t == "natom":
            _atom(g)
        elif t == "var":
            if len(g) != 1:
                raise ValueError("bad var node: %r" % (g,))
        elif t in _UNARY:
            if len(g) != 2:
                raise ValueError("bad unary node: %r" % (g,))
            stack.append(g[1])
        elif t in _BINARY:
            if len(g) != 3:
                raise ValueError("bad binary node: %r" % (g,))
            stack.append(g[2])
            stack.append(g[1])
        else:
            raise ValueError("unknown formula tag: %r" % (t,))
    return f


@memo
def negate(f):
    """Clause-wise negation; an involution fixing the variable."""
    t = f[0]
    if t == "atom":
        return ("natom", _atom(f)[1])
    if t == "natom":
        return ("atom", _atom(f)[1])
    if t == "var":
        return f
    if t == "and":
        return ("or", negate(f[1]), negate(f[2]))
    if t == "or":
        return ("and", negate(f[1]), negate(f[2]))
    if t == "box":
        return ("dia", negate(f[1]))
    if t == "dia":
        return ("box", negate(f[1]))
    if t == "mu":
        return ("nu", negate(f[1]))
    if t == "nu" or t == "nub":
        return ("mu", negate(f[1]))
    raise ValueError("unknown formula tag: %r" % (t,))


@memo
def prime(f):
    """Replace every plain nu binder with the annotated one."""
    t = f[0]
    if t == "atom" or t == "natom":
        return _atom(f)
    if t == "var":
        return f
    if t == "nu":
        return ("nub", prime(f[1]))
    if t == "box" or t == "dia" or t == "mu" or t == "nub":
        return (t, prime(f[1]))
    if t == "and" or t == "or":
        return (t, prime(f[1]), prime(f[2]))
    raise ValueError("unknown formula tag: %r" % (t,))


def substitute(f, b):
    """f with every free variable occurrence replaced by b.

    Binders rebind the variable, so substitution never descends under
    mu/nu/nub.
    """
    t = f[0]
    if t == "var":
        return b
    if t == "atom" or t == "natom":
        return f
    if t == "mu" or t == "nu" or t == "nub":
        return f
    if t == "box" or t == "dia":
        return (t, substitute(f[1], b))
    if t == "and" or t == "or":
        return (t, substitute(f[1], b), substitute(f[2], b))
    raise ValueError("unknown formula tag: %r" % (t,))


@memo
def _chain(a, b):
    """The validated a and the iterates [b, a(b), a^2(b), ...] computed so
    far, extended by iterate.  On a miss a(b) is computed first, so a
    malformed a raises as substitute does, and then a and b are validated.
    iterate extends the chain with the a kept here, never with its
    caller's, which may only equal it, so no chain holds a bad atom
    index."""
    first = substitute(a, b)
    return validate(a), [validate(b), first]


def iterate(a, b, i):
    """The i-th iterate a^i(b): a^0(b) = b, a^{i+1}(b) = substitute(a, a^i(b)).

    One chain per (a, b) is kept in a memo and extended on demand, so
    each iterate is built once, by one substitute step from the one
    before it.  An i of 0 or less answers b itself, with no memo lookup."""
    if i <= 0:
        return b
    a, chain = _chain(a, b)
    while len(chain) <= i:
        chain.append(substitute(a, chain[-1]))
    return chain[i]


@memo
def unfolding(f):
    """The unfolding f[1](f) of a binder-rooted formula f: its body with f
    substituted for the variable, built once per f.  On a miss the
    substitution runs first, so a malformed f raises as substitute does,
    and then f is validated, so no cached unfolding holds a bad atom
    index."""
    u = substitute(f[1], f)
    validate(f)
    return u


@memo
def level(f):
    """Fixpoint nesting depth: binders add one, everything else is flat."""
    t = f[0]
    if t == "atom" or t == "natom" or t == "var":
        return 0
    if t == "box" or t == "dia":
        return level(f[1])
    if t == "and" or t == "or":
        a = level(f[1])
        b = level(f[2])
        return a if a >= b else b
    if t == "mu" or t == "nu" or t == "nub":
        return level(f[1]) + 1
    raise ValueError("unknown formula tag: %r" % (t,))


def size(f):
    """Number of nodes."""
    t = f[0]
    if t == "atom" or t == "natom" or t == "var":
        return 1
    if t == "and" or t == "or":
        return 1 + size(f[1]) + size(f[2])
    return 1 + size(f[1])


@memo
def has_free_var(f):
    """True when a variable occurrence is not under any binder."""
    t = f[0]
    if t == "var":
        return True
    if t == "atom" or t == "natom":
        return False
    if t == "mu" or t == "nu" or t == "nub":
        return False
    if t == "box" or t == "dia":
        return has_free_var(f[1])
    return has_free_var(f[1]) or has_free_var(f[2])


def is_l0(f):
    """True when f contains no annotated binder (base-language formula)."""
    return max_nubar_level(f) < 0


def is_fully_primed(f):
    """True when f contains no plain nu binder."""
    return prime(f) == f


def occurs(f, sub):
    """True when sub occurs as a subformula of f (f itself included)."""
    if f == sub:
        return True
    t = f[0]
    if t == "atom" or t == "natom" or t == "var":
        return False
    if t == "and" or t == "or":
        return occurs(f[1], sub) or occurs(f[2], sub)
    return occurs(f[1], sub)


def replace_subterm(f, old, new):
    """Replace every occurrence of the subformula old by new.

    Whole-formula match wins first; replacement descends under binders
    (it is plain subtree surgery, not variable substitution).
    """
    if f == old:
        return new
    t = f[0]
    if t == "atom" or t == "natom" or t == "var":
        return f
    if t == "and" or t == "or":
        return (t, replace_subterm(f[1], old, new), replace_subterm(f[2], old, new))
    return (t, replace_subterm(f[1], old, new))


@memo
def max_nubar_level(f):
    """Largest level of any nub-rooted subformula, or -1 if none."""
    t = f[0]
    if t == "atom" or t == "natom" or t == "var":
        return -1
    if t == "box" or t == "dia":
        return max_nubar_level(f[1])
    if t == "and" or t == "or":
        a = max_nubar_level(f[1])
        b = max_nubar_level(f[2])
        return a if a >= b else b
    inner = max_nubar_level(f[1])
    if t == "nub":
        own = level(f)
        return own if own >= inner else inner
    return inner


@memo
def sort_key(f):
    """A flat integer tuple whose lexicographic order totally orders formulas.

    Preorder flattening: each node contributes its tag code (atoms also
    their index).  Arity is determined by the tag, so the flattening is
    a prefix code and distinct formulas get incomparable-free keys.
    """
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = g[0]
        out.append(_TAG_CODE[t])
        if t == "atom" or t == "natom":
            out.append(g[1])
        elif t == "var":
            pass
        elif t == "and" or t == "or":
            stack.append(g[2])
            stack.append(g[1])
        else:
            stack.append(g[1])
    return tuple(out)

