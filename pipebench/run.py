"""Pipeline benchmark for mucut.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload {cuts,unfold,induction} \
        --seed N --seconds S --trace {0,1}

The runner measures the library's set-up time, draws the workload's batch
of S proofs from the seed, checks every proof in S, and hands their text
to a fresh interpreter (`worker.py`) that runs the batch pass after pass.
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run (spans around every public call, a
profiled pass for self time and call counts, exact counters).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 done; 2 the mucut sources are missing; 3 a generated proof
is invalid (a benchmark bug); 4 the worker crashed or ran out of time.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Imports timed before the worker starts, and again after it ends, so that
# one stall of this shared machine cannot cover all of them.
SETUP_RUNS = 5
# At least this many passes, so that each job's time is a median.
MIN_PASSES = 3
# Every run must end within this many seconds.
DEADLINE_S = 170
# The tail percentile is the highest with at least this many jobs beyond.
TAIL_BEYOND = 10
# Median seconds of one run of worker.reference_seconds's loop on the
# reference machine (README.md) in its faster phases: end-to-end times are
# reported at that speed.
REFERENCE_S = 0.002

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mucut; "
    "print(time.perf_counter() - t)"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(runs, reference):
    """Seconds of `import mucut` in each of `runs` fresh interpreters.
    After each, the reference loop runs a few times in this process and
    its times are added to `reference`."""
    from worker import reference_seconds

    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
        reference += reference_seconds(0.01)
    return times


def speed_factor(reference):
    """REFERENCE_S over the median time of the reference loop in this run.
    This shared machine runs up to twice as slow for minutes at a time,
    and the factor scales that out of the end-to-end times; the loop does
    not use mucut, so a change to mucut cannot move it."""
    return REFERENCE_S / statistics.median(reference)


def defect_status(cfg):
    """Whether the known defect of README.md still shows: one untimed job
    on the top-induction cut over mu X . X."""
    from gen import DEFECT_MU, top_induction_cut
    from mucut.sexpr import proof_dumps
    from mucut.syntax import print_form
    from worker import run_job

    proof = top_induction_cut(DEFECT_MU)
    try:
        run_job(proof_dumps(proof), [print_form(f) for f in proof.conclusion], cfg)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return "still fails: %s: %s" % (type(exc).__name__, exc)
    return "passes now: add mu X . X back to the induction draws"


def tail(values):
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND values beyond it, or the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def job_seconds(passes):
    """Each job's time: the median of its runs over the passes, the same
    statistic as the reference loop's, so that the speed factor cancels
    the machine's speed whatever share of the run it spent slow."""
    return [statistics.median(runs) for runs in zip(*passes)]


def end_to_end(res, setup_s):
    scale = speed_factor(res["reference"])
    jobs = [t * scale for t in job_seconds(res["times"])]
    pct, worst = tail(jobs)
    return {
        "wall_s": (sum(jobs), "s"),
        "job_ms_p50": (1000 * statistics.median(jobs), "ms"),
        "job_ms_tail": (1000 * worst, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }, "p%.1f of %d jobs, each the median of %d runs" % (pct, len(jobs), len(res["times"]))


def per_layer(res):
    metrics = {}
    spans = res["span_sums"]
    for name in spans[0]:
        metrics[name] = (statistics.median(s[name] for s in spans), "s")
    for name, value in res["profile"].items():
        unit = "1" if name.endswith(("_share", "_ratio")) else "count"
        metrics[name] = (value, unit)
    for name, value in res["counters"].items():
        metrics[name] = (value, "count")
    traced = sum(job_seconds(res["traced_times"])) * speed_factor(res["traced_reference"])
    plain = sum(job_seconds(res["times"])) * speed_factor(res["reference"])
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics


def main(argv=None):
    if not (SRC / "mucut" / "__init__.py").is_file():
        sys.stderr.write("pipebench: no mucut sources under %s\n" % SRC)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mucut
    from gen import WORKLOADS, GeneratorError, make_batch

    if Path(mucut.__file__).resolve().parent != SRC / "mucut":
        sys.stderr.write("pipebench: imported mucut from %s, not %s\n" % (mucut.__file__, SRC))
        return 2

    parser = argparse.ArgumentParser(description="mucut pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # The first import writes the bytecode cache; it is not timed.
    setup_reference = []
    setup_times = [] if args.trace else import_seconds(1 + SETUP_RUNS, setup_reference)[1:]
    wl = WORKLOADS[args.workload]
    try:
        inputs = make_batch(args.workload, args.seed)
    except GeneratorError as exc:
        sys.stderr.write("pipebench: generator bug: %s\n" % exc)
        return 3

    passes = max(MIN_PASSES, math.ceil(args.seconds / wl["pass_s"]))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    request = {
        "config": {k: wl[k] for k in ("depth", "samples", "probes")},
        "inputs": inputs,
        "passes": passes,
        "trace": args.trace,
        "spans_path": str(spans_path),
    }
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request), env=_env(), capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("pipebench: worker ran past %d s\n" % DEADLINE_S)
        return 4
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.stderr.write("pipebench: worker exited with %d\n" % done.returncode)
        return 4
    res = json.loads(done.stdout)
    if not args.trace:
        setup_times += import_seconds(SETUP_RUNS, setup_reference)

    deterministic = len(set(res["digests"])) == 1 and res.get("counters_repeat", True)
    correct = res["failed"] == 0 and deterministic
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": res["backend"],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "passes": passes,
        "jobs_per_pass": len(inputs),
    }
    print("provenance %s" % json.dumps(provenance, sort_keys=True))
    print("digest sha256:%s%s" % (res["digests"][0], "" if deterministic else " (NOT REPEATED)"))
    print("jobs attempted %d, failed %d, fail_ratio %.4g" % (
        res["attempted"], res["failed"], res["failed"] / res["attempted"]))
    if res["first_failure"]:
        print("first failure: %s" % res["first_failure"])
    print("known defect, top-induction cut on mu X . X: %s" % defect_status(request["config"]))
    if args.trace:
        metrics = per_layer(res)
        print("spans written to %s" % spans_path.relative_to(ROOT))
        print("profiled pass %.3f s" % res["profiled_s"])
    else:
        setup_s = statistics.median(setup_times) * speed_factor(setup_reference)
        metrics, tail_note = end_to_end(res, setup_s)
        print("machine speed factor %.4f (reference loop median %.3f ms)" % (
            speed_factor(res["reference"]), 1000 * statistics.median(res["reference"])))
        print("job_ms_tail is %s" % tail_note)
        print("pass walls (s): %s" % " ".join("%.3f" % sum(p) for p in res["times"]))
    table = dict(metrics)
    if not args.trace:
        table["fail_ratio"] = (res["failed"] / res["attempted"], "1")
    for name, (value, unit) in table.items():
        print("%-28s %14s %s" % (name, value if isinstance(value, int) else "%.6g" % value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
