"""Compare two sets of saved benchmark results.

Usage:

    python3 pipebench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one or more runs of run.py,
concatenated.  For every workload and metric the script prints the median
of each side and the change as a share of BEFORE's median, and marks an
end-to-end metric that got worse by more than its bound in BENCHMARK.json.
It refuses (exit 2) to compare results taken with different formula
kernel backends, since their speeds differ by design.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} and the set of backends."""
    runs = defaultdict(lambda: defaultdict(list))
    backends = set()
    provenance = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            backends.add(provenance["backend"])
        elif line.startswith("{") and provenance is not None:
            result = json.loads(line)
            key = (provenance["workload"], provenance["trace"])
            for name, m in result["metrics"].items():
                runs[key][name].append(m["value"])
            provenance = None
    return runs, backends


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    (before, b_backends), (after, a_backends) = load(argv[0]), load(argv[1])
    if len(b_backends | a_backends) != 1:
        sys.stderr.write(
            "refusing to compare results of different kernel backends: %s vs %s\n"
            % (sorted(b_backends), sorted(a_backends))
        )
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(set(before) & set(after)):
        print("%s (trace %d)" % key)
        for name in before[key]:
            if name not in after[key]:
                continue
            b = statistics.median(before[key][name])
            a = statistics.median(after[key][name])
            change = (a - b) / b if b else float("nan")
            flag = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                if worse > bounds[name]["bound"]:
                    flag = "  WORSE than bound %.2f" % bounds[name]["bound"]
            print("  %-28s %14.6g -> %14.6g  %+7.1f%%%s" % (name, b, a, 100 * change, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
