"""Every name a module of the package or of the tests imports is used in
that module, every private module-level name is used somewhere in the
package, and every public function or class in the package, the tests or
pipebench.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by an import must occur as a name somewhere in the module.
The package's `__init__.py` is left out, since its imports are
re-exports.  A private name (`_x`) that a module defines at its top level
must be read somewhere in the package besides its own definition, and a
public function or class somewhere in the package, the tests or
pipebench besides its own definition, so a deletion leaves no orphan
behind.  `__all__` names exactly what `__init__.py` imports, plus
`__version__`, so a deleted function leaves no stale export behind.
Importing the package and its command line loads no `dataclasses`, which
with the modules it imports would cost a third of the import, and the
package alone does not load `mucut.corpus`.  No test imports a module of
the benchmark or edits `sys.path`: what both need lives in the package.
The builders `mucut.embed` and `mucut.cutelim` import nothing from the
judge, `mucut.checker`: they build the same proof whatever system it is
judged in.  Only `proofs.mark_plain` sets a proof's plain mark, and only
`Proof`'s constructor clears it; only `proofs._observe` sets a window's
splice flag, only `Observation`'s constructor clears it, and only the
judge's walk and the writer read it.  No module
of the package reads or sets the environment through `os`, and none
calls the builtin `id`: a key made of an identity is valid only while
its object is pinned, and an object that hashes by identity, as a proof
does, is its own key.  Every `except Exception` handler of the package
comes after a handler of `_LIMITS`, the resource limits, in the same
`try`, whose body is a bare `raise`, so no limit is turned into text.
Every module-level memo of the package (a function under `@memo` or a
name bound to a `memo(...)` call) is named in the paragraph of the
`mucut.kernel` docstring that states the memo policy, so that policy
stays described in one place.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mucut"
IMPORTERS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
IMPORTERS += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from m import a, b as c, d\n"
        "a(c.x)\n"
    )
    assert unused_imports(source) == ["d", "os", "regex"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source):
    """The private names that source binds at its top level, sorted."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return sorted(n for n in names if n.startswith("_") and not n.startswith("__"))


def names_read(tree):
    """The names that a syntax tree reads: loaded names, attributes and
    the names its imports bind from other modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def references(source):
    """The names that source reads."""
    return names_read(ast.parse(source))


def unused_privates(sources):
    """(module, name) for each private top-level name that no source reads."""
    read = set().union(*map(references, sources.values()))
    return sorted(
        (module, name)
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    )


def test_unused_privates_are_found():
    sources = {
        "a.py": "_A, _B = 1, 2\ndef _f(): return _A\nclass _C: pass\n_D = 0\n",
        "b.py": "from a import _C\nimport a\na._f()\n__all__ = []\n",
    }
    assert unused_privates(sources) == [("a.py", "_B"), ("a.py", "_D")]


def test_package_reads_every_private_name():
    sources = {
        p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
    }
    assert unused_privates(sources) == []


def unread_publics(package, others):
    """(module, name) for each public function or class that a package
    module defines at its top level and that no source reads outside that
    definition: not the module's other top-level statements, nor another
    package module, nor a source of others."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = {module: names_read(tree) for module, tree in trees.items()}
    outside = set().union(*map(references, others.values()))
    unread = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(r for m, r in read.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere:
                continue
            if not any(node.name in names_read(n) for n in tree.body if n is not node):
                unread.append((module, node.name))
    return sorted(unread)


def test_unread_publics_are_found():
    package = {
        "a.py": "def f(): return f()\ndef g(): pass\nclass C: pass\nclass D: pass\n"
        "def _h(): return g\nE = 0\n",
        "b.py": "from a import C\n",
    }
    others = {"test_a.py": "import a\na.D()\n"}
    assert unread_publics(package, others) == [("a.py", "f")]


def test_every_public_function_and_class_is_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for folder in ("tests", "pipebench")
        for p in sorted((ROOT / folder).glob("*.py"))
    }
    assert unread_publics(package, others) == []


def test_package_exports_exactly_what_it_imports():
    import mucut

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for a in node.names
    }
    assert sorted(mucut.__all__) == sorted(imported | {"__version__"})
    assert len(set(mucut.__all__)) == len(mucut.__all__)
    for name in mucut.__all__:
        assert hasattr(mucut, name), name


def test_importing_the_package_loads_no_dataclasses():
    # a fresh interpreter, so modules the tests loaded do not count
    code = (
        "import sys; before = set(sys.modules); import mucut, mucut.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "mucut.cli" in loaded
    assert "dataclasses" not in loaded
    # the proof builders stay out of the modules `import mucut` compiles
    code = "import sys, mucut; print('mucut.corpus' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def imported_modules(source):
    """The modules that source imports anywhere in it, sorted: for
    `from m import x` both m and m.x, since x may be a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update("%s.%s" % (node.module, a.name) for a in node.names)
    return sorted(names)


def test_imported_modules_are_found():
    source = (
        "import os.path\n"
        "from mucut import checker\n"
        "from . import sibling\n"
        "def f():\n    from mucut.kernel import TOP as T\n"
    )
    assert imported_modules(source) == [
        "mucut", "mucut.checker", "mucut.kernel", "mucut.kernel.TOP", "os.path",
    ]


@pytest.mark.parametrize("module", ["cutelim", "embed"])
def test_the_builders_import_nothing_from_the_checker(module):
    # the system index belongs to the judge: a builder makes one proof for
    # every system and never asks the checker which one it lands in
    source = (PACKAGE / ("%s.py" % module)).read_text(encoding="utf-8")
    assert not [
        m for m in imported_modules(source) if m.startswith("mucut.checker")
    ]


def _is_memo(node):
    return (isinstance(node, ast.Name) and node.id == "memo") or (
        isinstance(node, ast.Attribute) and node.attr == "memo"
    )


def memo_names(source):
    """The names that source memoizes at its top level, sorted: functions
    under @memo and names bound to a memo(...) call."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_memo, node.decorator_list)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_memo(node.value.func):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(names)


def test_memo_names_are_found():
    source = (
        "from mucut.kernel import memo\n"
        "@memo\ndef f(x): return x\n"
        "@kernel.memo\ndef g(x): return x\n"
        "def h(x): return x\n"
        "_h = memo(h)\n"
        "k = other(h)\n"
        "def outer():\n    @memo\n    def inner(x): return x\n"
    )
    assert memo_names(source) == ["_h", "f", "g"]


def test_every_memo_is_named_in_the_kernel_docstring():
    kernel = (PACKAGE / "kernel.py").read_text(encoding="utf-8")
    doc = ast.get_docstring(ast.parse(kernel))
    [policy] = [" ".join(p.split()) for p in doc.split("\n\n") if "LRU cache" in p]
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in memo_names(path.read_text(encoding="utf-8")):
            if path.stem != "kernel":
                name = "%s.%s" % (path.stem, name)
            if not re.search(r"(?<![\w.])%s(?!\w)" % re.escape(name), policy):
                unnamed.append(name)
    assert unnamed == []


def mark_writers(source, mark="plain"):
    """The functions of source that write the mark, an attribute named
    plain unless given, sorted, with "<module>" for a write outside any
    function: an assignment to or deletion of the attribute, or a setattr
    call naming it."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            arg = node.args[1]
            if "setattr" in name and isinstance(arg, ast.Constant) and arg.value == mark:
                found.add(where)
        if any(
            isinstance(n, ast.Attribute) and n.attr == mark
            for t in targets for n in ast.walk(t)
        ):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_mark_writers_are_found():
    source = (
        "p.plain = True\n"
        "def f(p):\n    a, p.plain = 1, True\n    return p.plain\n"
        "def g(p):\n    setattr(p, 'plain', 1)\n    h = lambda: object.__setattr__(p, 'plain', 1)\n"
        "class C:\n    def __init__(self):\n        self.plain: bool = False\n"
        "def k(p):\n    del p.plain\n"
        "def m(p):\n    p.plainly = q.plain\n    setattr(p, 'other', p.plain)\n"
    )
    assert mark_writers(source) == ["<lambda>", "<module>", "__init__", "f", "g", "k"]
    assert mark_writers(source, "plainly") == ["m"]


def _writers(mark):
    """The files of the package, the tests and the benchmark that write
    the mark, with the functions that write it."""
    found = {
        str(p.relative_to(ROOT)): mark_writers(p.read_text(encoding="utf-8"), mark)
        for folder in ("src/mucut", "tests", "pipebench")
        for p in sorted((ROOT / folder).glob("*.py"))
    }
    return {path: names for path, names in found.items() if names}


def test_only_mark_plain_and_the_constructor_write_the_plain_mark():
    # one implementation of the mark: Proof's constructor clears it and
    # proofs.mark_plain, which the plain builders call, sets it
    assert _writers("plain") == {"src/mucut/proofs.py": ["__init__", "mark_plain"]}


def test_only_the_window_keeper_and_the_constructor_write_the_splice_flag():
    # one sharing rule: Observation's constructor clears the flag and
    # proofs._observe, which keeps each window on its proof, sets it on a
    # window met again and at birth on an outermost marked proof's window
    assert _writers("spliced") == {"src/mucut/proofs.py": ["__init__", "_observe"]}


def test_only_the_window_keeper_and_the_constructor_write_the_window_slot():
    # a proof keeps one window: Proof's constructor clears the slot and
    # proofs._observe replaces it with the last window it made for the
    # proof; in the tests only conftest's splicing_off (its unshared walk)
    # and forget_windows drop it
    assert _writers("_window") == {
        "src/mucut/proofs.py": ["__init__", "_observe"],
        "tests/conftest.py": ["forget_windows", "unshared"],
    }


def mark_readers(source, mark):
    """The functions of source that read the attribute mark, sorted, with
    "<module>" for a read outside any function: a load of the attribute,
    an augmented assignment to it, or a getattr call naming it."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr == mark:
            if isinstance(node.ctx, ast.Load):
                found.add(where)
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) == mark:
            found.add(where)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            arg = node.args[1] if len(node.args) > 1 else None
            if isinstance(arg, ast.Constant) and arg.value == mark:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_mark_readers_are_found():
    source = (
        "x = p.spliced\n"
        "def f(o):\n    return o.spliced and o.other\n"
        "def g(o):\n    o.spliced += 1\n"
        "def h(o):\n    return getattr(o, 'spliced', False)\n"
        "def k(o):\n    o.spliced = True\n    del o.spliced\n    return o.splicedness\n"
        "class C:\n    spliced = False\n    m = lambda self: self.spliced\n"
    )
    assert mark_readers(source, "spliced") == ["<lambda>", "<module>", "f", "g", "h"]
    assert mark_readers(source, "splicedness") == ["k"]


def test_only_the_judge_and_the_writer_read_the_splice_flag():
    # a spliced window is one unit to the judge's walk and to the writer;
    # the facts, the pipeline and everything else read the window whole
    found = {
        str(p.relative_to(ROOT)): mark_readers(p.read_text(encoding="utf-8"), "spliced")
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {path: names for path, names in found.items() if names} == {
        "src/mucut/checker.py": ["_walk"],
        "src/mucut/sexpr.py": ["_write"],
    }


# The os functions and mapping through which a program reads or sets its
# environment.
_ENVIRONMENT = frozenset(("environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"))


def environment_reads(source):
    """The lines of source that name one of the os environment functions:
    an attribute os.<name> or an import of the name from os."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENVIRONMENT for a in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_environment_reads_are_found():
    source = (
        "import os\n"
        "a = os.environ['X']\n"
        "from os import getenv as g, path\n"
        "os.putenv('X', '1')\n"
        "b = os.path.join(env.environ, 'getenv')\n"
    )
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_reads_no_environment(path):
    # a setting of the program is a flag or an argument, never a knob read
    # from the environment
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def id_calls(source):
    """The lines of source that call a bare name id, the builtin unless
    the module rebinds it."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "id"
    )


def test_id_calls_are_found():
    source = (
        "key = (d, id(w))\n"
        "n = obj.id(w)\n"
        "ident = id\n"
        "seen = {id(q): q for q in qs}\n"
    )
    assert id_calls(source) == [1, 4]


def test_the_package_calls_no_id():
    # a memo keyed by identity must pin what it keys; a proof, which hashes
    # by identity, keys a memo itself
    found = {
        path.name: id_calls(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def reaches_outside(source, modules):
    """The lines of source that import one of modules or touch sys.path."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sys":
            names = ["sys." + node.attr]
        else:
            continue
        if any(n.split(".")[0] in modules or n == "sys.path" for n in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_reaches_outside_are_found():
    source = (
        "import sys, os.path\n"
        "sys.path.insert(0, 'x')\n"
        "from gen import nested\n"
        "import run as r\n"
        "from sys import path\n"
        "from subprocess import run\n"
        "from mucut import gen\n"
        "gen.run()\n"
    )
    assert reaches_outside(source, {"gen", "run"}) == [2, 3, 4, 5]


def test_no_test_reaches_into_the_benchmark():
    benchmark = {p.stem for p in (ROOT / "pipebench").glob("*.py")}
    assert "gen" in benchmark
    found = {
        p.name: reaches_outside(p.read_text(encoding="utf-8"), benchmark)
        for p in sorted((ROOT / "tests").glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def unguarded_broad_handlers(source):
    """The lines of the `except Exception` handlers of source that no
    earlier handler of the same try guards: one whose type is the name
    `_LIMITS` and whose body is a bare `raise`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Try):
            continue
        guarded = False
        for handler in node.handlers:
            kind, body = handler.type, handler.body
            if isinstance(kind, ast.Name) and kind.id == "_LIMITS":
                guarded = guarded or (
                    len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is None
                )
            elif isinstance(kind, ast.Name) and kind.id == "Exception" and not guarded:
                lines.append(handler.lineno)
    return sorted(lines)


def test_unguarded_broad_handlers_are_found():
    source = (
        "try:\n    f()\nexcept _LIMITS:\n    raise\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\nexcept _LIMITS:\n    raise\n"
        "try:\n    f()\nexcept _LIMITS as e:\n    raise e\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept _LIMITS:\n    g()\n    raise\nexcept Exception:\n    pass\n"
        "def h():\n    try:\n        f()\n    except RecursionError:\n        raise\n"
        "    except Exception:\n        pass\n"
    )
    assert unguarded_broad_handlers(source) == [9, 13, 21, 28, 35]


def test_every_broad_handler_lets_resource_limits_through():
    # a handler that turns any failure into text comes after the one that
    # re-raises fuel exhaustion and recursion errors, so a limit propagates
    found = {
        path.name: unguarded_broad_handlers(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
