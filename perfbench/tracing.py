"""Span tracing around trusskit's public module functions.

The tracer replaces a function at the module attribute its caller looks up
(``trusskit.segment.coarse_split`` for ``run_pipeline``'s call, and so on)
with a wrapper that records one span per call: name, start, end, parent
span and scan. Spans stay in memory; per-layer metrics are derived from them
after the run. Nothing inside trusskit is edited.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

# scan keys of spans inside `trusskit sweep`, kept apart from the same
# scan's generate, mode-H loop and evaluate spans
SWEEP = "sweep/"


def _stem(value):
    return Path(value).stem if isinstance(value, (str, Path)) else None


def _path_arg(i):
    """scan_of for a function whose i-th positional argument is a path."""
    return lambda args: _stem(args[i]) if len(args) > i else None


def _size_arg(i):
    """count for a function whose i-th positional argument is a file path."""
    def count(args, result):
        path = args[i] if len(args) > i else None
        size = Path(path).stat().st_size if isinstance(path, (str, Path)) else 0
        return {"bytes": size}
    return count


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent index,
    scan key, counts dict or None]; parent -1 means a root span."""

    def __init__(self):
        self.spans: list = []
        self.scan = None          # scan key for root spans, set by the workload
        self._stack: list = []

    def wrap(self, fn, name, scan_of=None, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            scan = spans[parent][4] if parent >= 0 else None
            if scan is None and scan_of is not None:
                scan = scan_of(args)
            if scan is None:
                scan = self.scan
            span = [name, _clock(), 0.0, parent, scan, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _clock()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name):
        """A span opened by the benchmark itself around one of its phases."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, _clock(), 0.0, parent, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = _clock()

    @contextlib.contextmanager
    def installed(self):
        """Patch every instrumented attribute for the duration of the block."""
        targets = []
        for name, sites, scan_of, count in instrumentation():
            fn = getattr(*sites[0])
            traced = self.wrap(fn, name, scan_of, count)
            targets += [(module, attr, traced) for module, attr in sites]
        with patched(targets):
            yield


class NullTracer:
    """Stand-in for untraced runs: same interface, records nothing."""

    scan = None

    def phase(self, name):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


@contextlib.contextmanager
def patched(targets):
    """Set (module, attribute, value) triples; restore the originals after."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def instrumentation():
    """(span name, [(module, attribute) call sites], scan_of, count) rows.

    The first call site holds the function to wrap; every site is a module
    attribute some trusskit caller looks up at call time.
    """
    import numpy as np
    from trusskit import cli, io, metrics, segment, synth

    structure = segment.STRUCTURE
    return [
        # cli: command drivers and the per-file segmentation worker
        ("cli.generate", [(cli, "cmd_generate")], None, None),
        ("cli.sweep", [(cli, "cmd_sweep")], None, None),
        ("cli.evaluate", [(cli, "cmd_evaluate")], None, None),
        ("cli.segment_one", [(cli, "_segment_one")],
         lambda a: SWEEP + _stem(a[0][0]), None),
        # synth: one dataset scan, scene build, raycast
        ("synth.scan", [(synth, "_scan_record")],
         lambda a: f"scan_{a[0]:05d}", None),
        ("synth.build_scene", [(synth, "build_scene")], None, None),
        ("synth.raycast", [(synth, "raycast_scan")], None,
         lambda a, r: {"rays": a[2].v_resolution * a[2].h_resolution,
                       "points": len(r)}),
        # primitives: as called from the raycast loop
        ("primitives.intersect", [(synth, "intersect_solid")], None,
         lambda a, r: {"rays": len(a[1]), "hits": int(np.isfinite(r[0]).sum())}),
        ("primitives.ray_ground", [(synth, "ray_ground")], None, None),
        # segment and geom: as called from run_pipeline and its stages
        ("segment.run_pipeline", [(segment, "run_pipeline"),
                                  (cli, "run_pipeline")], None, None),
        ("segment.coarse_split", [(segment, "coarse_split")], None,
         lambda a, r: {"points": len(a[0]), "ground": len(r.ground)}),
        ("geom.voxel", [(segment, "voxel_downsample")], None,
         lambda a, r: {"voxels": len(r)}),
        ("segment.ransac", [(segment, "ransac_plane")], None,
         lambda a, r: {"points": len(a[0]), "inliers": len(r[1])}),
        ("segment.knn", [(segment, "_normals_for")], None, None),
        ("geom.pca", [(segment, "normals_from_neighbors")], None,
         lambda a, r: {"points": len(a[1])}),
        ("segment.region_grow", [(segment, "region_grow")], None,
         lambda a, r: {"clusters": len(r)}),
        ("segment.classify", [(segment, "classify_cluster")], None,
         lambda a, r: {"promoted": int(r == structure)}),
        ("segment.density", [(segment, "density_filter")], None,
         lambda a, r: {"removed": int(np.count_nonzero(a[1])
                                      - np.count_nonzero(r))}),
        # io: reads and writes as looked up on the trusskit.io module
        ("io.read_pcd", [(io, "read_pcd")], _path_arg(0), _size_arg(0)),
        ("io.read_pcd_arrays", [(io, "read_pcd_arrays")], _path_arg(0),
         _size_arg(0)),
        ("io.write_pcd", [(io, "write_pcd")], _path_arg(1), _size_arg(1)),
        ("io.write_prediction_pcd", [(io, "write_prediction_pcd")],
         _path_arg(2), _size_arg(2)),
        # metrics: dataset evaluation
        ("metrics.evaluate", [(metrics, "evaluate_dataset")], None,
         lambda a, r: {"scans": len(a[0])}),
    ]


def aggregate(spans):
    """Per scan key and span name: calls, inclusive and self seconds, and
    summed counts. Spans whose scan is None land under key None."""
    child = defaultdict(float)
    for name, start, end, parent, scan, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for i, (name, start, end, parent, scan, counts) in enumerate(spans):
        row = out[scan][name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child[i]
        if (name == "io.read_pcd_arrays" and parent >= 0
                and spans[parent][0] == "io.read_pcd"):
            continue        # read_pcd parses through read_pcd_arrays: count once
        for key, value in (counts or {}).items():
            row[key] += value
    return out


def _median_over_scans(per_scan, fn, sweep: bool):
    values = []
    for scan, rows in per_scan.items():
        if scan is None or scan.startswith(SWEEP) != sweep:
            continue
        value = fn(rows)
        if value is not None:
            values.append(value)
    return statistics.median(values) if values else None


def per_layer_metrics(spans, phase_name: str, phase_scans: int, sweep: bool):
    """Per-layer metrics: per-scan sums, reported as the median over the
    scans that reach the layer. A scan's generate, mode-H loop and evaluate
    spans sum together; with ``sweep``, the segment and geom layers are
    taken from the sweep's spans instead (all seven modes of a scan).

    cli.sweep_other_ms is the wall time of the ``phase_name`` spans minus
    the run_pipeline spans inside them, per scan of that phase.
    """
    per_scan = aggregate(spans)

    def ms(name, kind="self"):
        return lambda rows: rows[name][kind] * 1e3 if name in rows else None

    def ms_of(*names):
        def fn(rows):
            hit = [rows[n]["self"] for n in names if n in rows]
            return sum(hit) * 1e3 if hit else None
        return fn

    def count(name, key):
        return lambda rows: rows[name][key] if name in rows else None

    def ratio(name, num, den):
        def fn(rows):
            if name not in rows or not rows[name][den]:
                return None
            return rows[name][num] / rows[name][den]
        return fn

    def sum_of(key, *names):
        def fn(rows):
            hit = [rows[n][key] for n in names if n in rows]
            return sum(hit) if hit else None
        return fn

    rows_of = {
        "synth.raycast_ms": ms("synth.raycast", "total"),
        "synth.raycast_self_ms": ms("synth.raycast"),
        "synth.build_scene_ms": ms("synth.build_scene"),
        "synth.hit_frac": ratio("synth.raycast", "points", "rays"),
        "primitives.intersect_ms": ms("primitives.intersect"),
        "primitives.solids_tested": count("primitives.intersect", "calls"),
        "primitives.rays_tested": count("primitives.intersect", "rays"),
        "primitives.ray_hit_frac": ratio("primitives.intersect", "hits", "rays"),
        "primitives.ray_ground_ms": ms("primitives.ray_ground"),
        "geom.voxel_ms": ms("geom.voxel"),
        "geom.voxels": count("geom.voxel", "voxels"),
        "geom.pca_ms": ms("geom.pca"),
        "geom.pca_points": count("geom.pca", "points"),
        "segment.ransac_ms": ms("segment.ransac"),
        "segment.ransac_inlier_frac": ratio("segment.ransac", "inliers", "points"),
        "segment.coarse_split_ms": ms("segment.coarse_split"),
        "segment.coarse_ground_frac": ratio("segment.coarse_split", "ground",
                                            "points"),
        "segment.knn_ms": ms("segment.knn"),
        "segment.region_grow_ms": ms("segment.region_grow"),
        "segment.clusters": count("segment.region_grow", "clusters"),
        "segment.promoted_frac": ratio("segment.classify", "promoted", "calls"),
        "segment.density_ms": ms("segment.density"),
        "segment.density_removed": count("segment.density", "removed"),
        "segment.coarse_split_calls": count("segment.coarse_split", "calls"),
        "segment.normals_calls": count("segment.knn", "calls"),
        "segment.density_calls": count("segment.density", "calls"),
        "segment.run_pipeline_ms": ms("segment.run_pipeline"),
        "io.write_pcd_ms": ms_of("io.write_pcd", "io.write_prediction_pcd"),
        "io.read_pcd_ms": ms_of("io.read_pcd", "io.read_pcd_arrays"),
        "io.bytes_written": sum_of("bytes", "io.write_pcd",
                                   "io.write_prediction_pcd"),
        "io.bytes_read": sum_of("bytes", "io.read_pcd", "io.read_pcd_arrays"),
    }
    out = {name: _median_over_scans(
               per_scan, fn, sweep and name.startswith(("segment.", "geom.")))
           for name, fn in rows_of.items()}

    evaluated = [s for s in spans if s[0] == "metrics.evaluate"]
    scans = sum(s[5]["scans"] for s in evaluated)
    out["metrics.evaluate_ms"] = sum(s[2] - s[1] for s in evaluated) * 1e3 \
        / scans if scans else None

    phase = [s for s in spans if s[0] == phase_name]
    pipeline = sum(end - start for name, start, end, parent, _, _ in spans
                   if name == "segment.run_pipeline"
                   and _inside(spans, parent, phase_name))
    wall = sum(end - start for _, start, end, _, _, _ in phase)
    out["cli.sweep_other_ms"] = (wall - pipeline) * 1e3 / phase_scans \
        if phase else None
    return out


def _inside(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
