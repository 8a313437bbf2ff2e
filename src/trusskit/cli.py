"""Command-line front door: generate, segment, evaluate, sweep, threshold,
export.

Exit codes: 0 success, 1 runtime failure, 2 usage error. TRUSSKIT_SEED and
TRUSSKIT_JOBS environment variables override the corresponding defaults
when the flags are not given.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as tio
from . import metrics as tmetrics
from .errors import TrussKitError
from .segment import (
    FULL,
    HYBRID,
    MAGNITUDE,
    RATIO,
    WITHOUT_COARSE,
    WITHOUT_FINE,
    run_pipeline,
)
from .synth import generate_dataset

# Variant shorthand: R/M/H run the full pipeline with the given eigen mode,
# WF the coarse step alone, WC_* the fine step over the whole cloud.
MODES = {
    "R": (FULL, RATIO),
    "M": (FULL, MAGNITUDE),
    "H": (FULL, HYBRID),
    "WF": (WITHOUT_FINE, HYBRID),
    "WC_R": (WITHOUT_COARSE, RATIO),
    "WC_M": (WITHOUT_COARSE, MAGNITUDE),
    "WC_H": (WITHOUT_COARSE, HYBRID),
}


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"{value!r} must be >= 1")
    return n


def _env_int(name: str):
    raw = os.environ.get(name)
    return int(raw) if raw else None


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise TrussKitError(f"override {pair!r} must be section.key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_config(args) -> tio.RunConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "config", None):
        return tio.load_config(args.config, overrides)
    return tio.loads_config("", overrides)


def _pcd_files(directory) -> list:
    d = Path(directory)
    if (d / "clouds").is_dir():
        d = d / "clouds"
    files = sorted(d.glob("*.pcd"))
    if not files:
        raise FileNotFoundError(f"no .pcd files under {directory}")
    return files


def _mode_config(pipeline, mode: str):
    stage, eigen = MODES[mode]
    return replace(pipeline, stage_mode=stage, eigen_mode=eigen)


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    env_seed = _env_int("TRUSSKIT_SEED")
    seed = args.seed if args.seed is not None else \
        env_seed if env_seed is not None else cfg.dataset.seed
    jobs = args.jobs or _env_int("TRUSSKIT_JOBS") or cfg.dataset.jobs
    n = args.n or cfg.dataset.n_scans
    out = args.out or cfg.dataset.out_dir
    if not out:
        raise TrussKitError("no output directory (use --out or dataset.out_dir)")
    records = generate_dataset(cfg.scene, n, seed, out, sensor=cfg.sensor,
                               fixed_position=cfg.dataset.sensor_position,
                               jobs=jobs)
    print(f"wrote {len(records)} scans to {out}")
    return 0


def _segment_one(task) -> tuple[str, str]:
    """Worker: segment one file; returns (file name, error or '')."""
    path, out_dir, pipeline = task
    try:
        cloud = tio.read_pcd(path)
        result = run_pipeline(cloud, pipeline)
        out_path = Path(out_dir) / Path(path).name
        tio.write_prediction_pcd(cloud, result.prediction, out_path)
        payload = {"stages_ms": result.latency_ms, "total_ms": result.total_ms,
                   "warnings": result.warnings}
        out_path.with_suffix(".latency.json").write_text(
            json.dumps(payload, sort_keys=True) + "\n")
        return Path(path).name, ""
    except Exception as exc:
        return Path(path).name, f"{type(exc).__name__}: {exc}"


def _segment_dir(files, out_dir, pipeline, jobs: int) -> list:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    tasks = [(str(f), str(out_dir), pipeline) for f in files]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_segment_one, tasks))
    else:
        results = [_segment_one(t) for t in tasks]
    return [(name, err) for name, err in results if err]


def cmd_segment(args) -> int:
    cfg = _load_config(args)
    jobs = args.jobs or _env_int("TRUSSKIT_JOBS") or 1
    pipeline = _mode_config(cfg.pipeline, args.mode)
    files = _pcd_files(args.in_dir)
    failures = _segment_dir(files, args.out, pipeline, jobs)
    for name, err in failures:
        print(f"error: {name}: {err}", file=sys.stderr)
    print(f"segmented {len(files) - len(failures)}/{len(files)} clouds "
          f"(mode {args.mode}) into {args.out}")
    return 1 if failures else 0


def _print_summary(label: str, report) -> None:
    f1 = f"{report.mean_f1 * 100:.2f}%" if report.mean_f1 is not None else "n/a"
    iou = f"{report.mean_iou * 100:.2f}%" if report.mean_iou is not None else "n/a"
    lat = f"{report.latency_mean_ms:.1f} ms" \
        if report.latency_mean_ms is not None else "n/a"
    print(f"{label:<6} F1 {f1:>8}  mIoU {iou:>8}  latency {lat:>10}")


def cmd_evaluate(args) -> int:
    files = _pcd_files(args.truth)
    report = tmetrics.evaluate_dataset(files, pred_dir=args.pred)
    base = Path(args.report)
    base.parent.mkdir(parents=True, exist_ok=True)
    report.write_json(base.with_suffix(".json"))
    report.write_csv(base.with_suffix(".csv"))
    _print_summary(Path(args.pred).name or "-", report)
    if report.errors:
        print(f"error: {report.errors[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    jobs = args.jobs or _env_int("TRUSSKIT_JOBS") or 1
    files = _pcd_files(args.in_dir)
    out = Path(args.out)
    rows = []
    failed = False
    for mode in MODES:
        pred_dir = out / mode
        failures = _segment_dir(files, pred_dir, _mode_config(cfg.pipeline, mode),
                                jobs)
        report = tmetrics.evaluate_dataset(files, pred_dir=pred_dir)
        report.write_json(pred_dir / "report.json")
        report.write_csv(pred_dir / "report.csv")
        _print_summary(mode, report)
        failed = failed or bool(failures) or bool(report.errors)
        rows.append({"mode": mode, "mean_f1": report.mean_f1,
                     "mean_iou": report.mean_iou,
                     "latency_mean_ms": report.latency_mean_ms,
                     "undefined_excluded": report.undefined_excluded})
    with open(out / "sweep_report.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    (out / "sweep_report.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 1 if failed else 0


def cmd_threshold(args) -> int:
    scores, truth = [], []
    with open(args.scores, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() == "score":
                continue
            try:
                score, label = float(row[0]), bool(int(float(row[1])))
            except (ValueError, IndexError):
                raise TrussKitError(
                    f"{args.scores}:{reader.line_num}: expected a score,truth "
                    f"row of two numbers, got {','.join(row)!r}") from None
            scores.append(score)
            truth.append(label)
    select = tmetrics.select_threshold_roc if args.method == "roc" else \
        tmetrics.select_threshold_pr
    threshold, curve = select(np.asarray(scores), np.asarray(truth))
    best = max(curve, key=lambda p: p.gmean if args.method == "roc" else p.f1)
    objective = "gmean" if args.method == "roc" else "f1"
    value = best.gmean if args.method == "roc" else best.f1
    print(f"threshold {threshold:.6g} ({objective} {value:.4f}, "
          f"{len(curve)} candidates)")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["threshold", "tpr", "fpr", "precision", "recall",
                        "f1", "gmean"])
            for p in curve:
                w.writerow([f"{v:.9g}" for v in
                            (p.threshold, p.tpr, p.fpr, p.precision, p.recall,
                             p.f1, p.gmean)])
    return 0


def cmd_export(args) -> int:
    _, arrays = tio.read_pcd_arrays(args.cloud)
    cloud = tio.read_pcd(args.cloud)
    if args.pred_field not in arrays:
        raise TrussKitError(f"{args.cloud} lacks field {args.pred_field!r}")
    pred = np.asarray(arrays[args.pred_field]).reshape(-1) > 0.5
    truth = None
    if args.truth:
        truth = tio.read_pcd(args.truth).truss_mask
    elif not args.no_truth and "label" in arrays:
        truth = cloud.truss_mask
    tio.export_ply_colored(cloud, pred, truth, args.out)
    print(f"wrote {len(cloud)} vertices to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusskit",
        description="Synthetic truss LiDAR datasets and analytical "
                    "truss-vs-background segmentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a configuration value")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="parallel workers (default 1)")

    p = sub.add_parser("generate", help="synthesise a labeled scan dataset")
    common(p)
    p.add_argument("--out", help="output dataset directory")
    p.add_argument("--n", type=_positive_int, default=None, help="scan count")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("segment", help="run one pipeline variant over a dataset")
    common(p)
    p.add_argument("--in", dest="in_dir", required=True, help="input PCD dir")
    p.add_argument("--out", required=True, help="prediction output dir")
    p.add_argument("--mode", required=True, choices=sorted(MODES),
                   help="pipeline variant")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against truth")
    p.add_argument("--truth", required=True, help="labeled PCD dir")
    p.add_argument("--pred", required=True, help="prediction PCD dir")
    p.add_argument("--report", required=True,
                   help="report base path (writes .json and .csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run and evaluate all seven variants")
    common(p)
    p.add_argument("--in", dest="in_dir", required=True, help="input PCD dir")
    p.add_argument("--out", required=True, help="sweep output dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="pick a score threshold (ROC or PR)")
    p.add_argument("--scores", required=True, help="CSV with score,truth rows")
    p.add_argument("--method", choices=("roc", "pr"), default="roc")
    p.add_argument("--out", help="optional curve CSV path")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("export", help="write a colored PLY of a prediction")
    p.add_argument("--cloud", required=True,
                   help="PCD with coordinates and a prediction field")
    p.add_argument("--pred-field", default="pred")
    p.add_argument("--truth", help="optional labeled PCD for truth colors")
    p.add_argument("--no-truth", action="store_true",
                   help="force two-color (prediction only) output")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrussKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
