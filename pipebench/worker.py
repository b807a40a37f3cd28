"""The measured process of the pipeline benchmark.

`run.py` starts this file in a fresh interpreter and writes one JSON
request to its standard input: the workload's observation settings, the
generated `.sproof` texts, the number of passes and whether to trace.
It answers with one JSON object on standard output.  The program under
test sees only the texts.

One job is one proof taken through the path of `mucut pipeline` without
file I/O, plus a bounded check of every stage in its own system:

    proof_loads -> check_finite(S) -> pipeline(fuel, trace)
    -> for each stage: observe -> check_bounded -> observation_dumps

Jobs run back to back in this one thread (a closed loop); a pass runs
every job of the batch once, in the batch's order.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
from collections import Counter

from mucut import KERNEL_BACKEND
from mucut.checker import (
    SYSTEM_S,
    SYSTEM_SINF,
    check_bounded,
    check_finite,
    level_bound,
    omega_system,
)
from mucut.collapse import pipeline
from mucut.proofs import (
    Cut,
    DeltaFam,
    observation_errors,
    observation_rules,
    observation_sequents,
    observe,
)
from mucut.sexpr import dumps, observation_dumps, proof_loads, step_to_sx
from mucut.syntax import print_form

FUEL = 100_000
STAGES = ("embedded", "eliminated", "collapsed", "sinf")

# Span names, fixed: later changes cite them.
OBSERVE_SPAN = {
    "embedded": "embed.observe_s",
    "eliminated": "cutelim.observe_s",
    "collapsed": "collapse.observe_s",
    "sinf": "collapse.sinf_observe_s",
}
CHECK_SPAN = {stage: "checker.%s_s" % stage for stage in STAGES}
SPANS = (
    "sexpr.load_s",
    "checker.input_s",
    "collapse.pipeline_s",
    *OBSERVE_SPAN.values(),
    *CHECK_SPAN.values(),
    "sexpr.dump_s",
)
CASES = ("redundant", "axiom-pair", "axiom-context", "omegabar", "decompose", "modal", "commute")

LAYERS = ("kernel", "sequents", "syntax", "sexpr", "proofs", "checker", "embed", "cutelim", "collapse")


class JobFailed(Exception):
    """A job broke one of the benchmark's correctness rules."""


def _plain(name, fn, *args):
    return fn(*args)


class Spans:
    """In-memory span recorder: (name, start, end, parent) tuples.  `call`
    has the signature of `_plain`; `parent` names the running job."""

    def __init__(self):
        self.records = []
        self.parent = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.records.append((name, start, time.perf_counter(), self.parent))


def _reference_work():
    forms = [("atom", i % 11) if i % 3 else ("natom", i % 5) for i in range(48)]
    out = 0
    for r in range(80):
        acc = {}
        for f in forms:
            g = ("or", f, ("box", (f, r)))
            acc[g] = acc.get(g, 0) + 1
        keys = sorted(acc, key=lambda g: (g[1][0], g[1][1], g[2][1][1]))
        out += len(frozenset(keys)) + len("%s" % (keys[0],))
    return out


# After each job the reference loop runs for this share of the job's time
# (at least once), so that long jobs get as many speed samples as short.
REFERENCE_SHARE = 0.02


def reference_seconds(budget=0.0):
    """Seconds of each run of a fixed pure-Python loop (tuples, dicts,
    sets, sorting, formatting: the kind of work the library does), run
    until `budget` seconds are spent, at least once.  The collector is off
    so that the heap around the loop does not change its cost.  It runs
    between jobs, to measure how fast the machine is at the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        while not times or sum(times) < budget:
            start = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def _count_nodes(o):
    return 1 + sum(_count_nodes(c) for c in o.children)


def run_job(text, endsequent, cfg, call=_plain):
    """One job.  Returns the four observations, their texts, the trace
    steps and the summed `nodes_checked` of every check, or raises:
    JobFailed for a broken rule, anything else as the program raised it."""
    depth, samples, probes = cfg["depth"], tuple(cfg["samples"]), cfg["probes"]
    p = call("sexpr.load_s", proof_loads, text)
    if [print_form(f) for f in p.conclusion] != endsequent:
        raise JobFailed("input end-sequent differs from the generated one")
    report = call("checker.input_s", check_finite, p, SYSTEM_S)
    if not report.ok:
        raise JobFailed("input is not a valid S proof")
    nodes_checked = report.nodes_checked
    steps = []
    stages = call(
        "collapse.pipeline_s",
        lambda: pipeline(p, fuel=FUEL, trace=lambda *step: steps.append(step)),
    )
    omega = omega_system(level_bound(p))
    observations, texts = [], []
    for stage in STAGES:
        o = call(OBSERVE_SPAN[stage], observe, stages[stage], depth, samples, probes)
        system = SYSTEM_SINF if stage in ("collapsed", "sinf") else omega
        report = call(CHECK_SPAN[stage], check_bounded, stages[stage], system, depth, samples, probes)
        texts.append(call("sexpr.dump_s", observation_dumps, o))
        errors = observation_errors(o)
        if errors:
            raise JobFailed("stage %s has an error leaf: %s" % (stage, errors[0]))
        if o.conclusion != p.conclusion:
            raise JobFailed("stage %s changed the end-sequent" % stage)
        if not report.ok:
            raise JobFailed("stage %s fails its bounded check: %s" % (stage, report.violations[0]))
        nodes_checked += report.nodes_checked
        observations.append(o)
    sinf = observations[-1]
    if any(isinstance(r, Cut) for r in observation_rules(sinf) if r):
        raise JobFailed("sinf window has a cut")
    if any(s.max_nubar_level() >= 0 for s in observation_sequents(sinf)):
        raise JobFailed("sinf window mentions nub")
    return observations, texts, steps, nodes_checked


def job_counters(text, observations, texts, steps, nodes_checked):
    """The exact per-job counters that need no profiler."""
    counters = Counter({"cutelim.case." + case: 0 for case in CASES})
    counters["cutelim.reductions"] = len(steps)
    for _, case, _ in steps:
        counters["cutelim.case." + ("omegabar" if case.startswith("omegabar") else case)] += 1
    for stage, o in zip(STAGES, observations):
        counters["proofs.nodes." + stage] = _count_nodes(o)
    counters["checker.nodes_checked"] = nodes_checked
    counters["sexpr.bytes_in"] = len(text.encode("utf-8"))
    counters["sexpr.bytes_out"] = sum(len(t.encode("utf-8")) for t in texts)
    return counters


class PassResult:
    """Per-job seconds, reference loop seconds, failures, the hash of every
    observation text and trace line, and (when asked for) the summed exact
    counters."""

    def __init__(self):
        self.times = []
        self.reference = []
        self.failed = 0
        self.first_failure = None
        self.counters = Counter()
        self.sha = hashlib.sha256()


def run_pass(inputs, cfg, spans=None, pass_id="pass", count=False):
    """Run every job of the batch once, back to back.  Digesting and
    counting happen outside each job's timed region."""
    call = spans.call if spans is not None else _plain
    res = PassResult()
    for index, rec in enumerate(inputs):
        if spans is not None:
            spans.parent = "%s/job-%d" % (pass_id, index)
        start = time.perf_counter()
        try:
            out = run_job(rec["text"], rec["endsequent"], cfg, call)
        except Exception as exc:  # noqa: BLE001 - every exception fails the job
            out = None
            if res.first_failure is None:
                res.first_failure = "%s: %s: %s" % (rec["name"], type(exc).__name__, exc)
        end = time.perf_counter()
        res.times.append(end - start)
        res.reference += reference_seconds(REFERENCE_SHARE * (end - start))
        if spans is not None:
            spans.records.append(("job", start, end, pass_id))
        res.sha.update(rec["name"].encode("utf-8") + b"\n")
        if out is None:
            res.failed += 1
            res.sha.update(b"failed\n")
            continue
        _, texts, steps, _ = out
        for t in texts:
            res.sha.update(t.encode("utf-8"))
        for path, case, rank in steps:
            res.sha.update((dumps(step_to_sx(path, case, rank)) + "\n").encode("utf-8"))
        if count:
            res.counters.update(job_counters(rec["text"], *out))
    return res


def _layer(filename):
    """The layer a profiled function belongs to: a mucut module, the
    interpreter's built-ins, or "other" (the benchmark, the standard
    library, code generated by dataclasses)."""
    if filename == "~":
        return "builtins"
    head, base = os.path.split(filename)
    if os.path.basename(head) != "mucut" or not base.endswith(".py"):
        return "other"
    mod = base[:-3]
    if mod in ("kernel", "_kernel_py"):
        return "kernel"
    return mod if mod in LAYERS else "other"


def profile_pass(inputs, cfg):
    """One untraced pass under cProfile: self-time share of each layer and
    exact call counts.  Returns the metrics, the profiled seconds and the
    pass's result."""
    prof = cProfile.Profile()
    prof.enable()
    res = run_pass(inputs, cfg)
    prof.disable()
    stats = pstats.Stats(prof).stats
    delta_code = DeltaFam.__call__.__code__
    self_time = Counter()
    calls = Counter()
    delta_calls = admits_from_delta = 0
    for (filename, line, func), (_, ncalls, tottime, _, callers) in stats.items():
        layer = _layer(filename)
        self_time[layer] += tottime
        calls[layer, func] += ncalls
        calls[layer, "*"] += ncalls
        if layer != "proofs":
            continue
        if func == delta_code.co_name and line == delta_code.co_firstlineno:
            delta_calls = ncalls
        if func == "admits":
            admits_from_delta += sum(
                c[1] for (f, l, n), c in callers.items()
                if n == delta_code.co_name and l == delta_code.co_firstlineno and _layer(f) == "proofs"
            )
    total = sum(self_time.values())
    metrics = {"%s.self_share" % layer: self_time[layer] / total for layer in LAYERS + ("builtins",)}
    metrics.update({
        "sequents.built": calls["sequents", "__init__"],
        "kernel.calls": calls["kernel", "*"],
        "kernel.validate_calls": calls["kernel", "validate"],
        "kernel.sort_key_calls": calls["kernel", "sort_key"],
        "kernel.substitute_calls": calls["kernel", "substitute"],
        "kernel.iterate_calls": calls["kernel", "iterate"],
        "proofs.force_calls": calls["proofs", "_force"],
        "proofs.delta_calls": delta_calls,
        # A DeltaFam call that finds its memo entry skips `admits`.
        "proofs.delta_hit_ratio": 1 - admits_from_delta / delta_calls if delta_calls else 0.0,
        "cutelim.weaken_calls": calls["cutelim", "weaken"],
        "collapse.calls": calls["collapse", "collapse"],
    })
    return metrics, total, res


def main():
    req = json.load(sys.stdin)
    cfg, inputs, passes = req["config"], req["inputs"], req["passes"]
    traced = bool(req["trace"])

    # Untraced passes give the end-to-end numbers.  A traced run makes a
    # third of the passes untraced, as the baseline of the tracing
    # overhead, and a third with spans; the profiled pass costs the rest.
    traced_count = max(1, passes // 3)
    plain = [run_pass(inputs, cfg, count=traced) for _ in range(traced_count if traced else passes)]
    out = {"backend": KERNEL_BACKEND, "times": [r.times for r in plain]}
    out["reference"] = [t for r in plain for t in r.reference]
    results = list(plain)
    if traced:
        spans = Spans()
        traced_passes, span_sums = [], []
        for k in range(traced_count):
            first = len(spans.records)
            traced_passes.append(run_pass(inputs, cfg, spans, "pass-%d" % k, count=True))
            sums = dict.fromkeys(SPANS, 0.0)
            for name, start, end, _ in spans.records[first:]:
                if name in sums:
                    sums[name] += end - start
            span_sums.append(sums)
        results += traced_passes
        out["traced_times"] = [r.times for r in traced_passes]
        out["traced_reference"] = [t for r in traced_passes for t in r.reference]
        out["span_sums"] = span_sums
        with open(req["spans_path"], "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
        out["profile"], out["profiled_s"], profiled = profile_pass(inputs, cfg)
        results.append(profiled)
        out["counters"] = dict(results[0].counters)
        out["counters_repeat"] = all(r.counters == results[0].counters for r in plain + traced_passes)
    out["failed"] = sum(r.failed for r in results)
    out["attempted"] = sum(len(r.times) for r in results)
    out["first_failure"] = next((r.first_failure for r in results if r.first_failure), None)
    out["digests"] = [r.sha.hexdigest() for r in results]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
