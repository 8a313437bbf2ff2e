"""Summarise benchmark records into one BENCH json.

    python3 perfbench/summarize.py OUT.json [RESULTS_DIR]

Reads every ``<workload>-seed<n>-trace<t>.json`` record under RESULTS_DIR
(default ``.perfbench_work/results``). For each workload and metric, it
writes the median, quartiles, spread ((q3 - q1) / median) and sample count.
It also writes the per-seed fingerprints and the environment stamp of the
first record.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv) -> int:
    out = Path(argv[1])
    results = Path(argv[2]) if len(argv) > 2 else \
        Path(".perfbench_work") / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    if not records:
        print(f"no records under {results}", file=sys.stderr)
        return 1
    workloads: dict = defaultdict(lambda: {"end_to_end": defaultdict(list),
                                           "per_layer": defaultdict(list),
                                           "seeds": {}, "failed": 0})
    for r in records:
        w = workloads[r["workload"]]
        kind = "per_layer" if r["trace"] else "end_to_end"
        for name, value in r["metrics"].items():
            if value is not None:
                w[kind][name].append(value)
        w["failed"] += r["failed"]
        seed = w["seeds"].setdefault(str(r["seed"]), {"sizes": r["sizes"]})
        seed[f"fingerprints_trace{r['trace']}"] = r["fingerprints"]
    doc = {
        "environment": records[0]["environment"],
        "workloads": {
            name: {"failed": w["failed"],
                   "end_to_end": {k: summary(v) for k, v in w["end_to_end"].items()},
                   "per_layer": {k: summary(v) for k, v in w["per_layer"].items()},
                   "seeds": w["seeds"]}
            for name, w in sorted(workloads.items())
        },
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in doc["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:<12} {metric:<24} median {s['median']:<12.6g} "
                  f"spread {s['spread'] if s['spread'] is not None else 0:.4f} "
                  f"n={s['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
