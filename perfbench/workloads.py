"""The benchmark's workloads, each driven through trusskit's public entry
points in-process, plus the output checks they share.

A workload is a loop over scans. Each scan is generated, segmented in mode
H and, in batches, evaluated; some scans are also swept through all seven
modes, and fresh-interpreter set-up samples are taken at points spread over
the loop. Every timed operation therefore has samples from the whole run,
and each metric is a median over them: a brief slow spell of the machine
moves a few samples, not the metric. The loop runs under a tracer (a ``NullTracer``
when the run is untraced). Checks are recorded on the ``Context`` and
counted as failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

clock = time.perf_counter

# --seconds is scaled against this: at 60 a run has the sizes in WORKLOADS,
# which take 50-60 s on a 2-core x86 box
REFERENCE_SECONDS = 60
SETUP_SAMPLES = 5       # fresh-interpreter set-ups per run
EVAL_BATCH = 4          # scans per timed `trusskit evaluate`
EVAL_REPEATS = 5        # timed evaluations of each batch; the fastest counts
RSS_PERIOD_S = 0.002    # resident-set sampling period

# import trusskit, load the config and build the first scene in a fresh
# interpreter: the set-up a user pays before the first timed operation
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import trusskit, trusskit.cli
from trusskit import io, synth
synth.build_scene(io.load_config(sys.argv[2]).scene)
"""


@dataclass
class Context:
    """One benchmark run: where it works, its inputs' seed and size, and
    the operations and checks it has counted."""

    root: Path
    work: Path
    seed: int
    seconds: int
    ops: int = 0
    failed_ops: int = 0
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def size(self, full: float) -> int:
        return max(1, round(full * self.seconds / REFERENCE_SECONDS))

    def config(self, name: str) -> str:
        return str(self.root / "configs" / name)

    def scan_seed(self, j: int) -> int:
        """`trusskit generate --seed` of the run's j-th scan."""
        return self.seed * 1000 + j

    def op(self, what: str, count: int, ok: bool) -> None:
        self.ops += count
        if not ok:
            self.failed_ops += count
            self.errors.append(f"{what} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.errors.append(f"check {name} failed {detail}".rstrip())

    def cli(self, *argv) -> int:
        """``trusskit <argv>`` in this process; its stdout is discarded."""
        from trusskit import cli
        with contextlib.redirect_stdout(_io.StringIO()):
            return cli.main([str(a) for a in argv])


def digest(paths) -> str:
    """sha256 over (file name, bytes) of each path, in name order."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def dataset_digest(data: Path) -> str:
    return digest(list((data / "clouds").glob("*.pcd"))
                  + list((data / "manifests").glob("*.json-lines")))


def p75(samples):
    return statistics.quantiles(samples, n=4)[-1] if len(samples) > 1 \
        else samples[0]


def spread(n: int, k: int) -> list:
    """k indices into range(n), evenly spaced; repeats when k > n."""
    return [min(n - 1, int((i + 0.5) * n / k)) for i in range(k)]


class RssSampler:
    """Samples this process's resident set on a thread every RSS_PERIOD_S
    while in use. ``take()`` returns the largest sample since the previous
    ``take()`` (or the start), in bytes, so the peak of one operation can be
    read even though the process's own high-water mark never goes down."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._high = self._rss()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _run(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            rss = self._rss()
            with self._lock:
                self._high = max(self._high, rss)

    def take(self) -> int:
        rss = self._rss()
        with self._lock:
            high, self._high = max(self._high, rss), rss
        return high

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def measure_setup(ctx: Context, config: str) -> float:
    t0 = clock()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(ctx.root / "src"),
                    ctx.config(config)], check=True, cwd=ctx.root)
    return clock() - t0


def generate_one(ctx: Context, config: str, seed: int, out: Path) -> float:
    """`trusskit generate --n 1` into ``out``; returns its wall time."""
    t0 = clock()
    rc = ctx.cli("generate", "--config", ctx.config(config), "--out", out,
                 "--n", 1, "--seed", seed, "--jobs", 1)
    wall = clock() - t0
    ctx.op("generate", 1, rc == 0)
    return wall


def evaluate(ctx: Context, truth: Path, pred: Path, report: Path) -> tuple:
    """`trusskit evaluate`; returns (wall time, report JSON bytes)."""
    t0 = clock()
    rc = ctx.cli("evaluate", "--truth", truth, "--pred", pred,
                 "--report", report)
    wall = clock() - t0
    n = len(list(truth.glob("*.pcd")))
    ctx.op("evaluate", n, rc == 0)
    path = report.with_suffix(".json")
    return wall, path.read_bytes() if path.exists() else b""


def check_dataset(ctx: Context, data: Path, n: int) -> None:
    scans = list((data / "clouds").glob("*.pcd"))
    lines = [line for p in (data / "manifests").glob("*.json-lines")
             for line in p.read_text().splitlines()]
    ctx.check("scan_count", len(scans) == n and len(lines) == n,
              f"{len(scans)} scans, {len(lines)} manifest lines, want {n}")


def check_predictions(ctx: Context, clouds: Path, pred_dirs: dict) -> dict:
    """Every scan has a prediction with exactly its point count, in every
    mode. Returns {mode: {file name: prediction mask}}."""
    from trusskit import io as tio

    sizes = {p.name: len(tio.read_pcd(p)) for p in sorted(clouds.glob("*.pcd"))}
    preds: dict = {}
    for mode, pred_dir in pred_dirs.items():
        files = sorted(pred_dir.glob("*.pcd"))
        ctx.check(f"prediction_count[{mode}]",
                  [p.name for p in files] == list(sizes),
                  f"{len(files)} predictions for {len(sizes)} scans")
        preds[mode] = {}
        for p in files:
            _, fields = tio.read_pcd_arrays(p)
            pred = fields["pred"].reshape(-1) > 0.5 if "pred" in fields else None
            ok = pred is not None and len(pred) == sizes.get(p.name)
            ctx.check(f"prediction_points[{mode}]", ok, p.name)
            if ok:
                preds[mode][p.name] = pred
    return preds


def check_report(ctx: Context, clouds: Path, preds: dict, report: dict) -> None:
    """The evaluate report has no errors and its confusion rows equal the
    ones recomputed with trusskit.metrics.confusion from the PCDs on disk."""
    from trusskit import io as tio
    from trusskit import metrics

    ctx.check("report_errors", not report.get("errors"),
              "; ".join(report.get("errors") or [])[:200])
    rows = {r["file"]: r for r in report.get("clouds", [])}
    for name, pred in preds.items():
        cm = metrics.confusion(pred, tio.read_pcd(clouds / name).truss_mask)
        row = rows.get(name, {})
        ok = (row.get("tp"), row.get("fp"), row.get("tn"), row.get("fn")) == \
            (cm.tp, cm.fp, cm.tn, cm.fn)
        ctx.check("confusion_recomputed[H]", ok, name)


def _h_config(config_path: str):
    from trusskit import cli
    from trusskit import io as tio
    stage, eigen = cli.MODES["H"]
    cfg = tio.load_config(config_path)
    return replace(cfg.pipeline, stage_mode=stage, eigen_mode=eigen)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    scans: int          # scans generated and segmented in mode H (full size)
    sweep_scans: int    # of those, how many `trusskit sweep` runs on; 0: none

    @property
    def segment_phase(self) -> str:
        """The span that wraps the segmentation phase: the sweep if any."""
        return "cli.sweep" if self.sweep_scans else "bench.segment_loop"


# Why these workloads and sizes: see README.md. A 7-mode sweep of an ortho
# scan costs about ten times its mode-H run, so ortho-sweep sweeps a few of
# the scans it generates and segments.
WORKLOADS = {
    "ortho-sweep": Workload("ortho-sweep", "ortho.cfg", 40, 4),
    "training-H": Workload("training-H", "training.cfg", 60, 0),
}


@dataclass
class Samples:
    """Timings of one run, one entry per timed operation."""

    setup: list = field(default_factory=list)      # s per fresh set-up
    generate: list = field(default_factory=list)   # s per scan generated
    pipeline: list = field(default_factory=list)   # s per run_pipeline call
    loop: list = field(default_factory=list)       # s per read+pipeline+write
    points: list = field(default_factory=list)     # points per loop scan
    rss: list = field(default_factory=list)        # peak MB per loop scan
    evaluate: list = field(default_factory=list)   # s per scan evaluated
    sweep: list = field(default_factory=list)      # points/s per scan swept


def run_workload(ctx: Context, wl: Workload, out: Path, tracer, n: int,
                 n_sweep: int, n_setup: int):
    """For each of ``n`` scans: `trusskit generate --n 1`; then
    io.read_pcd -> segment.run_pipeline (mode H, timed) ->
    io.write_prediction_pcd; every EVAL_BATCH scans, `trusskit evaluate` of
    the batch, EVAL_REPEATS times; and at ``n_sweep`` evenly spread scans,
    `trusskit sweep --jobs 1` (seven modes, each evaluated) of that scan
    alone. ``n_setup`` fresh-interpreter set-ups are spread over the loop.
    A last `trusskit evaluate` scores the whole dataset.

    Returns (measurements, fingerprints, sizes, samples).
    """
    data, pred = out / "data", out / "pred" / "H"
    for d in (data / "clouds", data / "manifests", pred):
        d.mkdir(parents=True, exist_ok=True)
    pipeline = _h_config(ctx.config(wl.config))
    setup_at = spread(n, n_setup) if n_setup else []
    sweep_at = set(spread(n, n_sweep)) if n_sweep else set()
    s = Samples()
    batch, blobs, swept = [], [], []
    with tracer.installed(), RssSampler() as rss:
        for j in range(n):
            s.setup += [measure_setup(ctx, wl.config)
                        for _ in range(setup_at.count(j))]
            path = data / "clouds" / f"scan_{j:05d}.pcd"
            tracer.scan = path.stem
            s.generate.append(generate_step(ctx, wl.config, out / "gen", data, j))
            timed = segment_step(ctx, pipeline, path, pred, rss, tracer)
            tracer.scan = None
            if timed:
                for samples, value in zip((s.loop, s.pipeline, s.points, s.rss),
                                          timed):
                    samples.append(value)
            batch.append(path)
            if len(batch) == EVAL_BATCH or j == n - 1:
                evaluate_batch(ctx, out / "batch", batch, pred, s)
                batch = []
            if j in sweep_at:
                swept.append(sweep_one(ctx, wl.config, out, path, s))
        report = out / "reports" / "all"
        for _ in range(2):
            blobs.append(evaluate(ctx, data / "clouds", pred, report)[1])
    ctx.check("evaluate_repeats_identical", len(set(blobs)) == 1)
    report = json.loads(blobs[0]) if blobs[0] else {"errors": ["no report"]}

    check_dataset(ctx, data, n)
    preds = check_predictions(ctx, data / "clouds", {"H": pred})
    check_report(ctx, data / "clouds", preds["H"], report)
    seg_ms = [c * 1e3 for c in s.pipeline]
    loop_rates = [pts / w for pts, w in zip(s.points, s.loop)]
    measured = {
        "setup_s": statistics.median(s.setup) if s.setup else None,
        "generate_scans_per_s": 1.0 / statistics.median(s.generate),
        "segment_ms_p50": statistics.median(seg_ms) if seg_ms else None,
        "segment_ms_p75": p75(seg_ms) if seg_ms else None,
        "segment_scans_per_s": 1.0 / statistics.median(s.loop)
        if s.loop else None,
        "sweep_points_per_s": statistics.median(s.sweep or loop_rates)
        if s.sweep or loop_rates else None,
        "evaluate_scans_per_s": 1.0 / statistics.median(s.evaluate),
        "miou_H": None if report.get("mean_iou") is None
        else report["mean_iou"] * 100.0,
        "peak_rss_mb": statistics.median(s.rss) if s.rss else None,
    }
    fingerprints = {
        "dataset_sha256": dataset_digest(data),
        "predictions_sha256": {"H": digest(list(pred.glob("*.pcd")))},
        "miou": {"H": report.get("mean_iou")},
    }
    sizes = {"scans": n, "pipeline_calls": len(s.pipeline),
             "evaluate_samples": len(s.evaluate), "setup_samples": len(s.setup),
             "points_median": statistics.median(s.points) if s.points else None}
    if swept:
        fingerprints.update(check_sweep(ctx, out / "sweep", swept, preds["H"]))
        sizes["sweep_scans"] = len(swept)
    return measured, fingerprints, sizes, s


def recheck_first_scan(ctx: Context, config: str, out: Path) -> None:
    """Generate and segment scan 0 of the run in ``out`` again: the scan and
    its mode-H prediction must come out byte-identical."""
    path = out / "data" / "clouds" / "scan_00000.pcd"
    generate_step(ctx, config, out / "gen", out / "data", 0)
    with RssSampler() as rss:
        segment_step(ctx, _h_config(ctx.config(config)), path,
                     out / "pred" / "H", rss, None, again=out / "again")


def generate_step(ctx: Context, config: str, gen: Path, data: Path,
                  j: int) -> float:
    """Generate scan j into ``gen``; returns the wall time. The first time,
    the scan and its manifest move into the dataset ``data``; after that,
    its bytes must equal the dataset's."""
    wall = generate_one(ctx, config, ctx.scan_seed(j), gen)
    made = gen / "clouds" / "scan_00000.pcd"
    path = data / "clouds" / f"scan_{j:05d}.pcd"
    if not path.exists():
        shutil.move(made, path)
        shutil.move(gen / "manifest.json-lines",
                    data / "manifests" / f"{path.stem}.json-lines")
    else:
        ctx.check("dataset_reproducible", made.exists() and
                  made.read_bytes() == path.read_bytes(), path.name)
    shutil.rmtree(gen)
    return wall


def segment_step(ctx: Context, pipeline, path: Path, pred: Path,
                 rss: RssSampler, tracer, again: Path = None):
    """io.read_pcd -> segment.run_pipeline -> io.write_prediction_pcd of one
    scan into ``pred``. Returns (wall time, pipeline call time, points, peak
    resident MB), or None if it failed. With ``again``, the prediction is
    written there instead and must equal the one in ``pred``."""
    from trusskit import io as tio
    from trusskit import segment

    out = (again or pred) / path.name
    out.parent.mkdir(parents=True, exist_ok=True)
    phase = tracer.phase("bench.segment_loop") if tracer else \
        contextlib.nullcontext()
    with phase:
        try:
            rss.take()
            t_loop = clock()
            cloud = tio.read_pcd(path)
            t0 = clock()
            result = segment.run_pipeline(cloud, pipeline)
            t1 = clock()
            tio.write_prediction_pcd(cloud, result.prediction, out)
            timed = (clock() - t_loop, t1 - t0, len(cloud), rss.take() / 2**20)
            ctx.op("segment", 1, True)
        except Exception as exc:   # counted, the loop goes on
            ctx.op("segment", 1, False)
            ctx.errors.append(f"{path.name}: {type(exc).__name__}: {exc}")
            return None
    if again:
        ctx.check("prediction_reproducible[H]",
                  out.read_bytes() == (pred / path.name).read_bytes(), path.name)
    return timed


def evaluate_batch(ctx: Context, where: Path, batch: list, pred: Path,
                   s: Samples) -> None:
    """Run `trusskit evaluate` of the scans in ``batch`` EVAL_REPEATS times
    and keep the fastest wall time per scan as the sample: a call takes
    ~15 ms, shorter than the machine's slow spells, so the fastest run is
    the steadiest estimate. The report must be clean."""
    truth = where / "clouds"
    shutil.rmtree(where, ignore_errors=True)
    truth.mkdir(parents=True)
    for path in batch:
        shutil.copyfile(path, truth / path.name)
    walls = []
    for _ in range(EVAL_REPEATS):
        wall, blob = evaluate(ctx, truth, pred, where / "report")
        walls.append(wall)
    s.evaluate.append(min(walls) / len(batch))
    report = json.loads(blob) if blob else {"errors": ["no report"]}
    ctx.check("batch_report_errors", not report.get("errors"),
              "; ".join(report.get("errors") or [])[:200])


def sweep_one(ctx: Context, config: str, out: Path, path: Path,
              s: Samples) -> Path:
    """`trusskit sweep --jobs 1` of one scan; appends points per second.
    Returns the sweep's output directory."""
    from trusskit import cli

    sweep_in = out / "sweep_in" / path.stem
    sweep_out = out / "sweep" / path.stem
    (sweep_in / "clouds").mkdir(parents=True)
    shutil.copyfile(path, sweep_in / "clouds" / path.name)
    t0 = clock()
    rc = ctx.cli("sweep", "--config", ctx.config(config), "--in", sweep_in,
                 "--out", sweep_out, "--jobs", 1)
    wall = clock() - t0
    ctx.op("sweep", len(cli.MODES), rc == 0)
    s.sweep.append(s.points[-1] / wall)
    return sweep_out


def check_sweep(ctx: Context, root: Path, swept: list, loop_h: dict):
    """Sweep outputs: a prediction of the right size for every scan and mode,
    no report errors, and mode-H predictions equal to the mode-H loop's.
    Returns the per-mode prediction fingerprints and per-scan mIoU."""
    from trusskit import cli

    modes = list(cli.MODES)
    miou = {m: [] for m in modes}
    for sweep in swept:
        clouds = root.parent / "sweep_in" / sweep.name / "clouds"
        preds = check_predictions(ctx, clouds, {m: sweep / m for m in modes})
        for mode in modes:
            path = sweep / mode / "report.json"
            errs = json.loads(path.read_text())["errors"] if path.exists() \
                else ["no report"]
            ctx.check(f"sweep_report_errors[{mode}]", not errs,
                      "; ".join(errs)[:200])
        ctx.check("sweep_H_equals_loop_H", bool(preds["H"]) and all(
            name in loop_h and (pred == loop_h[name]).all()
            for name, pred in preds["H"].items()), sweep.name)
        path = sweep / "sweep_report.json"
        for row in json.loads(path.read_text()) if path.exists() else []:
            miou[row["mode"]].append(row["mean_iou"])
    return {
        "sweep_predictions_sha256": {
            m: digest([p for sweep in swept for p in (sweep / m).glob("*.pcd")])
            for m in modes},
        "sweep_miou": miou,
    }
