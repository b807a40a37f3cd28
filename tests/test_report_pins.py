"""Pinned checker reports.

Two sets of checks are pinned, each as the sha256 of its reports in
order: for every check, its ``report_dumps`` text followed by one line
with ``nodes_checked`` and ``truncation_points``.

  * ``check_finite`` on every draw of A8's mutation harness
    (``draw_mutants(20240816, 200)``), in S, S-infinity and omega:1;
  * ``check_bounded`` at the default samples and probe budget on the four
    pipeline stages of each corpus proof, in S-infinity and omega:0 to
    omega:2, at depths 0, 1, 3 and 6.

The digests were taken while the checker still walked the proof itself,
before it became a judge of the observation window, so a change to how
the checker reaches its nodes must keep every verdict, count and
violation text.  The ``ind-top``, ``nested`` and ``top-cut`` digests were
taken again when the judge began to read the rule of each node at the
depth bound: nine of their reports gained a "rule ... is not part of
system ..." violation there, with every count and other violation kept.
"""

from __future__ import annotations

import hashlib

import pytest

from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    check_bounded,
    check_finite,
    omega_system,
)
from mucut.collapse import pipeline
from mucut.corpus import CORPUS
from mucut.sexpr import report_dumps
from mutation_harness import draw_mutants

STAGES = ("embedded", "eliminated", "collapsed", "sinf")
SYSTEMS = (SYSTEM_SINF, omega_system(0), omega_system(1), omega_system(2))
DEPTHS = (0, 1, 3, 6)

HARNESS_PINS = {
    "s": "7d66d45c4fe0b3d1004ad00f45bf5ec679d8f32eae471b655f83e80f5e6455e3",
    "sinf": "2eeeb294d58510fa7522a87d323f7bb915295afe252e46d00b3d955941e2af4d",
    "omega:1": "77e07ff0b6ab4a9606a6fbafba084676bde3ef6c2b3410ec944edfbe18b9a21e",
}

CORPUS_PINS = {
    "ind-top": "e156e0cb441e5732c1aae68b9b137ec26bd4e534e3aa0dc24f6328903182cdd0",
    "top-cut": "e5d5a5b61a4b1706c115edba74d088029fc80a6ce83db393e4c04cc8144ff8aa",
    "axmu": "810e343ed7d285e57ed7336770b02bc6f6da663867599b0b4d0b0ed1617323e9",
    "nested": "630879d368da68ca241b5413301079606828eb3a0f16755250fce7a3074a1362",
}


def _digest(reports):
    h = hashlib.sha256()
    for r in reports:
        h.update(report_dumps(r).encode("utf-8"))
        h.update(b"%d %d\n" % (r.nodes_checked, r.truncation_points))
    return h.hexdigest()


def test_harness_reports_match_pinned_digests():
    mutants = [m for *_, m in draw_mutants(20240816, 200)]
    got = {
        name: _digest(check_finite(m, system) for m in mutants)
        for name, system in (
            ("s", SYSTEM_S),
            ("sinf", SYSTEM_SINF),
            ("omega:1", omega_system(1)),
        )
    }
    assert got == HARNESS_PINS


@pytest.mark.parametrize("name", sorted(CORPUS_PINS))
def test_corpus_stage_reports_match_pinned_digests(name):
    stages = pipeline(CORPUS[name]())
    reports = (
        check_bounded(stages[stage], system, depth)
        for stage in STAGES
        for system in SYSTEMS
        for depth in DEPTHS
    )
    assert _digest(reports) == CORPUS_PINS[name]
