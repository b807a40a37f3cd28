"""Golden artifacts: `mucut pipeline --trace` on the four corpus proofs at
the default flags must write exactly these bytes.

A7 compares two runs of the same code; this test compares against pinned
sha256 digests, so a refactor that changes any observation, summary or
trace line fails here.  The traces contain every path label (``.0``,
``.w1``, ``.w2``, ``.first``, ``.f``).  A change that alters the output
on purpose must update the digests and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from conftest import run_cli

GOLDEN = {
    "e1-ind-top.collapsed.obs": "c9c5ef01a5dc8cb2c075a9ef290d4a559c9d8f2f111156ef199b1284e7036b11",
    "e1-ind-top.eliminated.obs": "c9c5ef01a5dc8cb2c075a9ef290d4a559c9d8f2f111156ef199b1284e7036b11",
    "e1-ind-top.embedded.obs": "6cca69f3638705898066fb5c632d663bfe78bd503eb02dde3c407ab6041e3789",
    "e1-ind-top.sinf.obs": "c9c5ef01a5dc8cb2c075a9ef290d4a559c9d8f2f111156ef199b1284e7036b11",
    "e1-ind-top.summary": "72d6492ceeb2ce1ad86eb69090e68de9aa523a861c09ea8fa2326916edf95e7b",
    "e1-ind-top.trace": "1833c3b92241b6591f8cae67ee5f05805eee7af33eefd0569c87aa241f1344c8",
    "e2-top-cut.collapsed.obs": "4edb4d5d85c49848e53aeed9a26c330287c750948db37b5079547d5bf57c15f4",
    "e2-top-cut.eliminated.obs": "4edb4d5d85c49848e53aeed9a26c330287c750948db37b5079547d5bf57c15f4",
    "e2-top-cut.embedded.obs": "7a8d0a1781a284a2feeeaad0c3d19266585bcf88514a46b04f6b2a0761baa820",
    "e2-top-cut.sinf.obs": "4edb4d5d85c49848e53aeed9a26c330287c750948db37b5079547d5bf57c15f4",
    "e2-top-cut.summary": "54ad8533e1eab5a35b344a9fcd409a31676ae1a6e80de9db050696705fe4c04f",
    "e2-top-cut.trace": "0b46b410cb25f90c77d2ffa26091e77910ec6c457b31341d624216f5b3e45c34",
    "e3-axmu.collapsed.obs": "51a4b991c3af7fbb28f8c5a75d8f436c8ab8220ca2562a601efe08f75082bf20",
    "e3-axmu.eliminated.obs": "51a4b991c3af7fbb28f8c5a75d8f436c8ab8220ca2562a601efe08f75082bf20",
    "e3-axmu.embedded.obs": "51a4b991c3af7fbb28f8c5a75d8f436c8ab8220ca2562a601efe08f75082bf20",
    "e3-axmu.sinf.obs": "51a4b991c3af7fbb28f8c5a75d8f436c8ab8220ca2562a601efe08f75082bf20",
    "e3-axmu.summary": "b4f36bc3671bdca17a983ff6ce88f4b1739b705638081abf94e66cbb1c88b9d8",
    "e3-axmu.trace": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "e4-nested.collapsed.obs": "2dddbbca115a05d325cce7618a8cdd13305047116be3235b8aa598824c5ec8e3",
    "e4-nested.eliminated.obs": "f59daacc523836371b0a074fd829e77873ed004321e3244074c1bf14abb9d923",
    "e4-nested.embedded.obs": "a0b9ac42627960e8e7d7639cef4d200073396c77e479f474f76cca77e5f9b41c",
    "e4-nested.sinf.obs": "2dddbbca115a05d325cce7618a8cdd13305047116be3235b8aa598824c5ec8e3",
    "e4-nested.summary": "636684eae612e7a0fa726d30efc1601b61f77bff2cdf8d587e2f20a86d4d2ea9",
    "e4-nested.trace": "75a7fee6157b0041394612ab44580768450195dd28ed0e7be685f76f510f1219",
}


def test_pipeline_artifacts_match_golden_digests(tmp_path):
    src = tmp_path / "src"
    out = tmp_path / "out"
    code, _, err = run_cli(["corpus", "--out", str(src)])
    assert code == 0, err
    for sproof in sorted(src.glob("*.sproof")):
        trace = out / (sproof.stem + ".trace")
        code, _, err = run_cli(
            ["pipeline", str(sproof), "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0, (sproof.name, err)
    got = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
    }
    assert got == GOLDEN
    traces = "".join(f.read_text() for f in sorted(out.glob("*.trace")))
    for label in (".0", ".w1", ".w2", ".first", ".f"):
        assert label + '"' in traces or label + "." in traces, label

