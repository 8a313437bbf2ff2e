"""trusskit benchmark: generate -> segment -> sweep -> evaluate.

    python3 perfbench/run.py --workload ortho-sweep --seed 1 --seconds 60 --trace 0

Run from the root of a trusskit checkout. It imports trusskit from the
checkout's ``src`` and reads the shipped ``configs``. Metric names, units and
directions come from ``BENCHMARK.json``. The last stdout line is one JSON
object: correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics. ``--trace 1`` runs the workload traced and then
untraced, each at half size, and reports the per-layer metrics plus the
tracing overhead. A full record (environment, sizes, raw samples,
fingerprints, checks) is written under ``.perfbench_work/results/``.
The exit code is 0 only when every operation and check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path.cwd()

# One BLAS / OpenMP thread, set before numpy loads (here and in the set-up
# interpreters, which inherit it). The workloads run at --jobs 1, and with
# the default threading mode H runs no faster on a 2-core box while its
# BLAS threads keep the second core busy, which makes every timing depend
# on what else that core is doing. A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    return json.loads(path.read_text())


def import_trusskit():
    src = ROOT / "src"
    if not (src / "trusskit" / "__init__.py").is_file():
        fail(f"no trusskit sources under {src}; run from a trusskit checkout")
    sys.path.insert(0, str(src))
    import trusskit
    if Path(trusskit.__file__).resolve().parent != (src / "trusskit").resolve():
        fail(f"imported trusskit from {trusskit.__file__}, not {src}")
    return trusskit


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    from workloads import digest
    sources = list((ROOT / "src" / "trusskit").glob("*.py")) + \
        list((ROOT / "configs").glob("*.cfg"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest(sources),
        "workload_seed": seed,
    }


def run(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    from tracing import NullTracer, Tracer, per_layer_metrics
    from workloads import (SETUP_SAMPLES, WORKLOADS, Context,
                           recheck_first_scan, run_workload)

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / \
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    ctx = Context(ROOT, work, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    # a traced run executes the workload twice, traced then untraced, each
    # at half size
    share = 0.5 if args.trace else 1.0
    n = ctx.size(workload.scans * share)
    n_sweep = ctx.size(workload.sweep_scans * share) if workload.sweep_scans \
        else 0
    try:
        t0 = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            measured, prints, sizes, samples = run_workload(
                ctx, workload, work / "traced", tracer, n, n_sweep, 0)
            traced_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            plain, plain_prints, _, _ = run_workload(
                ctx, workload, work / "plain", NullTracer(), n, n_sweep, 0)
            plain_wall = time.perf_counter() - t0
            ctx.check("fingerprints_traced_equal_untraced", prints == plain_prints)
            metrics = per_layer_metrics(
                tracer.spans, workload.segment_phase,
                sizes.get("sweep_scans", sizes["scans"]),
                sweep=bool(workload.sweep_scans))
            overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}
            for name, value in measured.items():
                if plain.get(name):
                    overhead[name] = value / plain[name] - 1.0
            metrics["trace.overhead_pct"] = \
                (traced_wall / plain_wall - 1.0) * 100.0
            record["tracing_overhead"] = overhead
            record["spans"] = len(tracer.spans)
        else:
            measured, prints, sizes, samples = run_workload(
                ctx, workload, work / "plain", NullTracer(), n, n_sweep,
                ctx.size(SETUP_SAMPLES))
            recheck_first_scan(ctx, workload.config, work / "plain")
            metrics = dict(measured)
            record["process_peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["measure_wall_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        if m["name"] != "ok_frac":
            ctx.check(f"metric_reported[{m['name']}]",
                      metrics.get(m["name"]) is not None)
    failed = ctx.failed_ops + sum(not c["ok"] for c in ctx.checks)
    attempted = ctx.ops + len(ctx.checks)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted

    record.update({
        "sizes": sizes, "metrics": metrics, "samples": asdict(samples),
        "fingerprints": prints, "attempted": attempted, "failed": failed,
        "errors": ctx.errors, "checks_run": len(ctx.checks),
        "failed_checks": [c for c in ctx.checks if not c["ok"]],
        "environment": environment(args.seed),
    })
    out = {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
           for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}, record


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    import_trusskit()
    result, record = run(args, spec)

    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:<30} {m['value']!r:>24} {m['unit']}")
    for mode, sha in record["fingerprints"]["predictions_sha256"].items():
        print(f"fingerprint {mode:<5} {sha}  mIoU "
              f"{record['fingerprints']['miou'].get(mode)}")
    for err in record["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
