"""The value semantics of rule tags, windows, systems and check reports:
what equality, hashing, repr and assignment do on each."""

from __future__ import annotations

import pytest

from mucut.checker import SYSTEM_S, SYSTEM_SINF, CheckReport, System, omega_system
from mucut.kernel import TOP, atom, natom, prime
from mucut.proofs import (
    ALL_TAGS,
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
)
from mucut.sequents import seq
from mucut.syntax import parse_formula

MU = parse_formula("mu X . (p1 | X)")
NU = parse_formula("nu X . (p1 & X)")
BOX = parse_formula("[]p1")
TARGET = prime(MU)

# one tag of each rule: its fields by name, and its repr
TAGS = [
    (Axiom, {"p": atom(0)}, "Axiom(p=('atom', 0))"),
    (
        AxiomMu,
        {"mu": MU},
        "AxiomMu(mu=('mu', ('or', ('atom', 1), ('var',))))",
    ),
    (Or, {"principal": TOP}, "Or(principal=('or', ('atom', 0), ('natom', 0)))"),
    (
        And,
        {"principal": ("and", atom(1), natom(2))},
        "And(principal=('and', ('atom', 1), ('natom', 2)))",
    ),
    (
        Box,
        {"principal": BOX, "side": seq(atom(2), natom(3))},
        "Box(principal=('box', ('atom', 1)), side={p2, ~p3})",
    ),
    (Clo, {"principal": MU}, "Clo(principal=('mu', ('or', ('atom', 1), ('var',))))"),
    (
        Ind,
        {"mu": MU, "b": atom(1)},
        "Ind(mu=('mu', ('or', ('atom', 1), ('var',))), b=('atom', 1))",
    ),
    (Cut, {"formula": atom(4)}, "Cut(formula=('atom', 4))"),
    (Nu, {"principal": NU}, "Nu(principal=('nu', ('and', ('atom', 1), ('var',))))"),
    (
        Omega,
        {"h": 1, "target": TARGET},
        "Omega(h=1, target=%r)" % (TARGET,),
    ),
    (
        OmegaBar,
        {"h": 1, "target": TARGET},
        "OmegaBar(h=1, target=%r)" % (TARGET,),
    ),
]


def test_every_tag_class_is_pinned():
    assert sorted(cls.__name__ for cls, _, _ in TAGS) == sorted(
        cls.__name__ for cls in ALL_TAGS
    )


@pytest.mark.parametrize("cls, fields, text", TAGS, ids=[c.__name__ for c, _, _ in TAGS])
def test_a_tag_is_a_value_of_its_class_and_fields(cls, fields, text):
    tag = cls(*fields.values())
    assert tag == cls(**fields) and hash(tag) == hash(cls(**fields))
    assert not tag != cls(*fields.values())
    assert repr(tag) == text
    for name, value in fields.items():
        assert getattr(tag, name) == value
        other = cls(**{**fields, name: atom(9) if name != "h" else 2})
        assert tag != other and not tag == other
    # a tag of another class over the same fields is another value
    for rival in ALL_TAGS:
        if rival is cls:
            continue
        try:
            twin = rival(*fields.values())
        except TypeError:
            continue
        assert tag != twin and not tag == twin
    assert tag != tuple(fields.values()) and tag != next(iter(fields.values()))


@pytest.mark.parametrize("cls, fields, text", TAGS, ids=[c.__name__ for c, _, _ in TAGS])
def test_a_tag_cannot_be_changed(cls, fields, text):
    tag = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(tag, name, atom(7))
        with pytest.raises(AttributeError):
            delattr(tag, name)
    assert tag == cls(*fields.values()) and repr(tag) == text


def test_a_check_report_is_a_value():
    report = CheckReport(False, (("root.0", "cut formula p1 too deep"),), 2, 1)
    assert repr(report) == (
        "CheckReport(ok=False, violations=(('root.0', 'cut formula p1 too deep'),),"
        " nodes_checked=2, truncation_points=1)"
    )
    same = CheckReport(
        ok=False,
        violations=(("root.0", "cut formula p1 too deep"),),
        nodes_checked=2,
        truncation_points=1,
    )
    assert report == same and hash(report) == hash(same)
    assert report != CheckReport(False, report.violations, 2, 0)
    assert repr(CheckReport(True, (), 3, 0)) == (
        "CheckReport(ok=True, violations=(), nodes_checked=3, truncation_points=0)"
    )
    with pytest.raises(AttributeError):
        report.ok = True


def test_a_window_is_equal_by_its_fields_and_not_by_what_it_keeps():
    c = seq(atom(0), natom(0))
    leaf = Observation(c, Axiom(atom(0)))
    o = Observation(c, Or(TOP), (leaf,), True, (0, 2), None, None)
    same = Observation(
        conclusion=c,
        rule=Or(TOP),
        children=(Observation(c, Axiom(atom(0))),),
        truncated=True,
        sampled=(0, 2),
    )
    assert o == same and not o != same
    assert o.keep("facts", list, "ab") == ["a", "b"]
    assert o.kept == {"facts": ["a", "b"]} and same.kept is None
    assert o == same
    for changed in (
        Observation(None, Or(TOP), (leaf,), True, (0, 2)),
        Observation(c, Clo(TOP), (leaf,), True, (0, 2)),
        Observation(c, Or(TOP), (), True, (0, 2)),
        Observation(c, Or(TOP), (leaf,), False, (0, 2)),
        Observation(c, Or(TOP), (leaf,), True, (0,)),
        Observation(c, Or(TOP), (leaf,), True, (0, 2), ()),
        Observation(c, Or(TOP), (leaf,), True, (0, 2), None, "boom"),
        Observation(c, Or(TOP), (Observation(c, Axiom(atom(1))),), True, (0, 2)),
    ):
        assert o != changed and not o == changed
    assert o != (c, Or(TOP), (leaf,), True, (0, 2), None, None)
    with pytest.raises(TypeError):
        hash(o)


def test_a_window_repr_leaves_out_what_it_keeps():
    o = Observation(seq(atom(0), natom(0)), Axiom(atom(0)), error="boom")
    o.keep("text", str, "x")
    assert repr(o) == (
        "Observation(conclusion={p0, ~p0}, rule=Axiom(p=('atom', 0)), children=(),"
        " truncated=False, sampled=None, probes=None, error='boom')"
    )


def test_a_system_is_a_value():
    assert omega_system(2) == omega_system(2)
    assert hash(omega_system(2)) == hash(omega_system(2))
    assert omega_system(2) != omega_system(1) and omega_system(0) != omega_system(1)
    assert SYSTEM_S != SYSTEM_SINF
    assert SYSTEM_S == System("s", SYSTEM_S.admitted, None)
    assert len({omega_system(1), omega_system(1), SYSTEM_S, SYSTEM_SINF}) == 3
    with pytest.raises(AttributeError):
        SYSTEM_S.k = 3
