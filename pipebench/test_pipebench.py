"""Self-tests of the pipeline benchmark.  Run from the repository root:

    python3 -m pytest -q pipebench/test_pipebench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gen import WORKLOADS, make_batch, nested  # noqa: E402
from mucut.checker import SYSTEM_S, check_finite  # noqa: E402
from mucut.corpus import CORPUS  # noqa: E402
from mucut.sexpr import proof_dumps, proof_loads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def result_of(stdout):
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_proofs_are_valid_s_proofs(workload, seed):
    batch = make_batch(workload, seed)
    assert batch
    for rec in batch:
        assert check_finite(proof_loads(rec["text"]), SYSTEM_S).ok, rec["name"]


def test_batches_repeat_per_seed():
    assert make_batch("unfold", 4) == make_batch("unfold", 4)
    assert make_batch("unfold", 4) != make_batch("unfold", 5)


def test_nested_2_is_the_corpus_proof():
    assert proof_dumps(nested(2)) == proof_dumps(CORPUS["nested"]())


def test_smoke_run_prints_every_end_to_end_metric():
    code, out = run_bench("--workload", "induction", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert code == 0
    res = result_of(out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    lines = out.splitlines()
    for name, unit in list(want.items()) + [("fail_ratio", "1")]:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name


def test_traced_runs_print_every_layer_metric_and_repeat_exactly():
    runs = [
        run_bench("--workload", "induction", "--seed", "2", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    ]
    assert [code for code, _ in runs] == [0, 0]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = []
    for _, out in runs:
        res = result_of(out)
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        digest = [line for line in out.splitlines() if line.startswith("digest ")]
        counts = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
        exact.append((digest, counts))
    assert exact[0] == exact[1]
    assert exact[0][1]["cutelim.reductions"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = run_bench("--workload", "cuts", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
