"""Smoke test of the benchmark harness at reduced size.

    python3 perfbench/smoke.py

Run from the root of a trusskit checkout; takes about 20 seconds. For
every workload it makes an untraced and a traced run at ``--seconds 1``
(one scan) and checks that

* each exits 0 and ends with the result line: exactly the keys correct,
  attempted, failed and metrics, with every metric BENCHMARK.json names for
  that mode, each a number with the unit BENCHMARK.json gives;
* its record carries the environment stamp and the fingerprints (dataset
  and per-mode prediction sha256, per-mode mIoU);
* the two runs, separate processes, agree on every fingerprint.

It also checks that the benchmark refuses to run, with a non-zero exit and
no result line, in a directory that holds only BENCHMARK.json and perfbench.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "perfbench/run.py"]
SEED = 3
ENV_KEYS = {"nproc", "python", "numpy", "scipy", "blas", "thread_env",
            "git_commit", "source_sha256", "workload_seed"}

problems: list = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def run_one(spec: dict, workload: str, trace: int):
    argv = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    tag = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is not JSON")
        return None
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(result)}")
    expect(result.get("correct") is True and result.get("failed") == 0,
           f"{tag}: not correct")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{tag}: attempted {result.get('attempted')!r}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    expect(set(got) == set(wanted), f"{tag}: metric names differ: "
                                    f"{sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        expect(isinstance(m.get("value"), (int, float))
               and not isinstance(m.get("value"), bool),
               f"{tag}: {name} value {m.get('value')!r}")
        expect(m.get("unit") == unit, f"{tag}: {name} unit {m.get('unit')!r}")
    record_path = ROOT / ".perfbench_work" / "results" / \
        f"{workload}-seed{SEED}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    expect(ENV_KEYS <= set(record.get("environment", {})),
           f"{tag}: environment stamp lacks "
           f"{sorted(ENV_KEYS - set(record.get('environment', {})))}")
    prints = record.get("fingerprints", {})
    expect(len(prints.get("dataset_sha256") or "") == 64,
           f"{tag}: no dataset fingerprint")
    expect(len((prints.get("predictions_sha256") or {}).get("H") or "") == 64,
           f"{tag}: no mode-H prediction fingerprint")
    expect(prints.get("miou", {}).get("H") is not None, f"{tag}: no mode-H mIoU")
    expect(set(prints.get("miou", {})) == set(prints.get("predictions_sha256")),
           f"{tag}: mIoU and prediction fingerprints cover different modes")
    if "sweep_miou" in prints:
        modes = set(prints["sweep_miou"])
        expect(len(modes) == 7 and
               modes == set(prints.get("sweep_predictions_sha256", {})),
               f"{tag}: sweep fingerprints cover modes {sorted(modes)}")
    return prints


def bare_directory_refuses() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(RUN + ["--workload", "training-H", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0, "bare directory: exit 0")
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run_one(spec, workload, 0)
        traced = run_one(spec, workload, 1)
        expect(plain is not None and plain == traced,
               f"{workload}: fingerprints differ between two runs")
        print(f"checked {workload}")
    bare_directory_refuses()
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
