"""Command-line front door: generate, segment, evaluate, sweep, threshold,
export.

Each value a user types is read as a config line's and checked once, by
the config dataclass it sets. A [dataset] key comes from `generate --out`,
`--n` or `--seed`, else TRUSSKIT_SEED (the seed), else --set, else the
config file; --jobs, else TRUSSKIT_JOBS, else 1, is an int >= 1 by the same
rule. Exit codes: 0 success, 1 runtime failure, 2 usage error (a refused
flag); a refused value names its flag, variable or [section] key.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import io as tio
from . import metrics as tmetrics
from .errors import InvalidSpecError, TrussKitError
from .geom import field_value, fingerprint, map_jobs
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


def _flag(parse):
    """argparse type of ``parse``: InvalidSpecError is a usage error."""
    def flag(text: str):
        try:
            return parse(text)
        except InvalidSpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag


def _env(name: str, parse):
    """``parse`` of environment variable ``name``; None if unset or empty."""
    if not (raw := os.environ.get(name)):
        return None
    try:
        return parse(raw)
    except InvalidSpecError as exc:
        raise TrussKitError(f"{name}={raw!r}: {exc}") from None


def _job_count(text: str) -> int:
    """A worker count: an int as a config line spells one, at least 1."""
    jobs = field_value(int, None, tio.config_value(int, text))
    if jobs < 1:
        raise InvalidSpecError(f"must be >= 1, not {jobs}")
    return jobs


def _jobs(args) -> int:
    return args.jobs or _env("TRUSSKIT_JOBS", _job_count) or 1


def _load_config(args) -> tio.RunConfig:
    overrides = {}
    for pair in args.set or ():
        key, equals, value = pair.partition("=")
        if not equals:
            raise TrussKitError(f"override {pair!r} must be section.key=value")
        overrides[key.strip()] = value.strip()
    if args.config:
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
    env_seed = _env("TRUSSKIT_SEED", partial(tio.dataset_value, "seed"))
    given = {"seed": env_seed if args.seed is None else args.seed,
             "n_scans": args.n, "out_dir": args.out}
    ds = replace(cfg.dataset, **{k: v for k, v in given.items() if v is not None})
    if not ds.out_dir:
        raise TrussKitError("no output directory (use --out or dataset.out_dir)")
    records = generate_dataset(cfg.scene, ds.n_scans, ds.seed, ds.out_dir,
                               sensor=cfg.sensor, jobs=_jobs(args))
    print(f"wrote {len(records)} scans to {ds.out_dir}")
    return 0


def _outcomes(cloud, pipeline, modes) -> list:
    """Each variant's ``run_pipeline`` output, or the exception it raised.
    The variants share one call; if that raises, each runs alone, so a
    variant fails in a sweep exactly when its lone ``segment`` run does."""
    try:
        return run_pipeline(cloud, pipeline, modes)
    except Exception as exc:
        if len(modes) == 1:
            return [exc]
    return [_outcomes(cloud, pipeline, [mode])[0] for mode in modes]


def _segment_one(task) -> list:
    """Worker: read one file, run the variants of ``pipeline`` named by
    ``(out_dir, mode)`` targets on it (``_outcomes``) and write each one's
    prediction and latency; returns one scored ``CloudRecord`` per target,
    in the order given. A scan that fails to read fails every target."""
    path, pipeline, targets = task
    name = Path(path).name
    try:
        cloud = tio.read_pcd(path)
        outcomes = _outcomes(cloud, pipeline,
                             [MODES[mode] for _, mode in targets])
    except Exception as exc:
        outcomes = [exc] * len(targets)
    records = []
    for (out_dir, _), result in zip(targets, outcomes):
        try:
            if isinstance(result, Exception):
                raise result
            out_path = Path(out_dir) / name
            tio.write_prediction_pcd(cloud, result.prediction, out_path)
            tio.write_latency(out_path, result.latency_ms, result.total_ms,
                              result.warnings)
            records.append(tmetrics.score_cloud(
                name, result.prediction, cloud.truss_mask, result.total_ms))
        except Exception as exc:
            records.append(tmetrics.CloudRecord(
                name, error=f"{type(exc).__name__}: {exc}"))
    return records


def _report_failures(records) -> int:
    """Print one ``error: FILE: ERROR`` line per failed file, in name
    order, with the file's first error; returns how many files failed."""
    failed = {}
    for r in records:
        if r.error:
            failed.setdefault(r.file, r.error)
    for name in sorted(failed):
        print(f"error: {name}: {failed[name]}", file=sys.stderr)
    return len(failed)


def _segment_scans(args, targets) -> tuple:
    """Read and segment each scan under ``--in`` once for all ``(out_dir,
    mode)`` targets, over ``--jobs`` workers; name each failed scan on
    stderr. Returns the config, each target's records and the failure count."""
    cfg = _load_config(args)
    jobs = _jobs(args)
    files = _pcd_files(args.in_dir)
    for out_dir, _ in targets:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    tasks = [(str(f), cfg.pipeline, targets) for f in files]
    records = [list(r) for r in zip(*map_jobs(_segment_one, jobs, tasks))]
    return cfg, records, _report_failures(r for rs in records for r in rs)


def cmd_segment(args) -> int:
    _, [records], failed = _segment_scans(args, [(args.out, args.mode)])
    print(f"segmented {len(records) - failed}/{len(records)} clouds "
          f"(mode {args.mode}) into {args.out}")
    return 1 if failed else 0


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
    return 1 if _report_failures(report.rows) else 0


def cmd_sweep(args) -> int:
    out = Path(args.out)
    targets = [(out / mode, mode) for mode in MODES]
    cfg, records, failed = _segment_scans(args, targets)
    rows = []
    for (pred_dir, mode), mode_records in zip(targets, records):
        report = tmetrics.evaluate_pairs(
            mode_records, fingerprint(_mode_config(cfg.pipeline, mode)))
        report.write_json(pred_dir / "report.json")
        report.write_csv(pred_dir / "report.csv")
        _print_summary(mode, report)
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


def _score_rows(path):
    """(line number, row) of each CSV row of a scores file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise TrussKitError(f"{path}: not a CSV text file ({exc})") \
                from None


# --method -> (threshold search, the curve objective it maximises)
_THRESHOLD_METHODS = {"roc": (tmetrics.select_threshold_roc, "gmean"),
                      "pr": (tmetrics.select_threshold_pr, "f1")}


def cmd_threshold(args) -> int:
    scores, truth = [], []
    for line_num, row in _score_rows(args.scores):
        if not row or row[0].strip().lower() == "score":
            continue
        try:
            score, label = float(row[0]), float(row[1])
            if not math.isfinite(score):
                raise ValueError("score is not finite")
            if label not in (0.0, 1.0):
                raise ValueError("truth is not 0 or 1")
        except (ValueError, IndexError):
            raise TrussKitError(
                f"{args.scores}:{line_num}: expected a score,truth "
                f"row of a finite number and 0 or 1, got {','.join(row)!r}"
            ) from None
        scores.append(score)
        truth.append(label == 1.0)
    select, objective = _THRESHOLD_METHODS[args.method]
    threshold, curve = select(np.asarray(scores), np.asarray(truth))
    value = max(getattr(p, objective) for p in curve)
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
    header, arrays = tio.read_pcd_arrays(args.cloud)
    cloud = tio.cloud_from_arrays(header, arrays)
    if args.pred_field not in arrays:
        raise TrussKitError(f"{args.cloud} lacks field {args.pred_field!r}")
    pred = np.asarray(arrays[args.pred_field]).reshape(-1) > 0.5
    truth = None
    if args.truth:
        truth = tio.read_truss_mask(args.truth)
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
        p.add_argument("--jobs", type=_flag(_job_count), default=None,
                       help="parallel workers (default 1)")

    p = sub.add_parser("generate", help="synthesise a labeled scan dataset")
    common(p)
    for flag, key in (("--out", "out_dir"), ("--n", "n_scans"),
                      ("--seed", "seed")):
        p.add_argument(flag, type=_flag(partial(tio.dataset_value, key)),
                       help=f"sets dataset.{key}")
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
    p.add_argument("--method", choices=tuple(_THRESHOLD_METHODS),
                   default="roc")
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
