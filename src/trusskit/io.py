"""File formats: PCD read/write, colored PLY export, run configuration.

The PCD dialect written here is ``VERSION .7`` with single-precision
coordinates and an unsigned 32-bit ``label`` channel; binary bodies are
little-endian and tightly packed in field order. The reader additionally
accepts any column order, wider numeric types, and a float ``intensity``
channel carrying labels.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, fields as dc_fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigRangeError,
    ConfigTypeError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingAttributesError,
    MissingXyzError,
    TruncatedBodyError,
    UnknownKeyError,
)
from .geom import LabeledCloud, Pose
from .segment import PipelineConfig
from .synth import BoxFieldSpec, SceneSpec, SensorConfig, TrussSpec

_DTYPES = {
    ("F", 4): "<f4", ("F", 8): "<f8",
    ("U", 1): "<u1", ("U", 2): "<u2", ("U", 4): "<u4", ("U", 8): "<u8",
    ("I", 1): "<i1", ("I", 2): "<i2", ("I", 4): "<i4", ("I", 8): "<i8",
}


@dataclass
class PcdHeader:
    fields: list
    sizes: list
    types: list
    counts: list
    width: int
    height: int
    viewpoint: tuple
    points: int
    data: str
    version: str = ".7"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _header_text(header: PcdHeader) -> str:
    vp = " ".join(_fmt(v) for v in header.viewpoint)
    return "\n".join([
        f"VERSION {header.version}",
        "FIELDS " + " ".join(header.fields),
        "SIZE " + " ".join(str(s) for s in header.sizes),
        "TYPE " + " ".join(header.types),
        "COUNT " + " ".join(str(c) for c in header.counts),
        f"WIDTH {header.width}",
        f"HEIGHT {header.height}",
        f"VIEWPOINT {vp}",
        f"POINTS {header.points}",
        f"DATA {header.data}",
    ]) + "\n"


def write_pcd_fields(columns: list, viewpoint, mode: str = "binary",
                     path=None) -> Optional[bytes]:
    """Serialise named columns as a PCD file.

    columns: list of (name, type_char, size, 1-d array). Writes to ``path``
    when given, otherwise returns the bytes.
    """
    if mode not in ("ascii", "binary"):
        raise ValueError(f"unsupported DATA mode {mode!r}")
    n = len(columns[0][3]) if columns else 0
    for name, _, _, arr in columns:
        if len(arr) != n:
            raise LengthMismatchError(f"column {name!r} length differs")
    header = PcdHeader(
        fields=[c[0] for c in columns],
        sizes=[c[2] for c in columns],
        types=[c[1] for c in columns],
        counts=[1] * len(columns),
        width=n, height=1, viewpoint=tuple(viewpoint), points=n, data=mode,
    )
    dtype = np.dtype([(c[0], _DTYPES[(c[1], c[2])]) for c in columns])
    rec = np.zeros(n, dtype=dtype)
    for name, tc, size, arr in columns:
        rec[name] = np.asarray(arr).astype(_DTYPES[(tc, size)])

    if mode == "binary":
        blob = _header_text(header).encode("ascii") + rec.tobytes()
    else:
        fmts = ["%.9g" if c[1] == "F" else "%d" for c in columns]
        lines = []
        for row in rec:
            lines.append(" ".join(f % row[i] for i, f in enumerate(fmts)))
        body = "\n".join(lines) + ("\n" if n else "")
        blob = (_header_text(header) + body).encode("ascii")
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(blob)
        return None
    return blob


def write_pcd(cloud: LabeledCloud, path=None, mode: str = "binary"):
    """Write a labeled cloud with fields ``x y z label`` (F F F U)."""
    pts = cloud.points
    return write_pcd_fields(
        [("x", "F", 4, pts[:, 0]), ("y", "F", 4, pts[:, 1]),
         ("z", "F", 4, pts[:, 2]), ("label", "U", 4, cloud.face_label)],
        cloud.sensor_pose.viewpoint_tuple(), mode, path)


def write_prediction_pcd(cloud: LabeledCloud, pred, path=None,
                         mode: str = "binary"):
    """Write a cloud plus its binary prediction: fields ``x y z label pred``."""
    pred = np.asarray(pred).astype(bool)
    if len(pred) != len(cloud):
        raise LengthMismatchError("prediction length differs from cloud")
    pts = cloud.points
    return write_pcd_fields(
        [("x", "F", 4, pts[:, 0]), ("y", "F", 4, pts[:, 1]),
         ("z", "F", 4, pts[:, 2]), ("label", "U", 4, cloud.face_label),
         ("pred", "U", 1, pred.astype(np.uint8))],
        cloud.sensor_pose.viewpoint_tuple(), mode, path)


def export_features(cloud: LabeledCloud, normals=None, curvature=None,
                    path=None, mode: str = "binary"):
    """Write per-point features ``x y z nx ny nz curvature label`` so an
    external model can consume coordinate/normal/curvature inputs."""
    normals = cloud.normals if normals is None else np.asarray(normals, float)
    curvature = cloud.curvature if curvature is None else \
        np.asarray(curvature, float)
    if normals is None or curvature is None:
        raise MissingAttributesError("feature export needs normals and curvature")
    if len(normals) != len(cloud) or len(curvature) != len(cloud):
        raise LengthMismatchError("attribute lengths differ from cloud")
    pts = cloud.points
    return write_pcd_fields(
        [("x", "F", 4, pts[:, 0]), ("y", "F", 4, pts[:, 1]),
         ("z", "F", 4, pts[:, 2]),
         ("nx", "F", 4, normals[:, 0]), ("ny", "F", 4, normals[:, 1]),
         ("nz", "F", 4, normals[:, 2]),
         ("curvature", "F", 4, curvature),
         ("label", "U", 4, cloud.face_label)],
        cloud.sensor_pose.viewpoint_tuple(), mode, path)


def _parse_header(text: str) -> tuple[PcdHeader, int]:
    """Parse header lines; returns the header and the byte offset where the
    body starts (offset into the original byte stream)."""
    entries: dict[str, list[str]] = {}
    offset = 0
    found_data = False
    for raw in text.splitlines(keepends=True):
        offset += len(raw.encode("latin-1"))
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        entries[parts[0].upper()] = parts[1:]
        if parts[0].upper() == "DATA":
            found_data = True
            break
    if not found_data:
        raise MalformedHeaderError("no DATA line found")

    def need(key):
        if key not in entries:
            raise MalformedHeaderError(f"missing {key} line")
        return entries[key]

    names = need("FIELDS")
    if not names:
        raise MalformedHeaderError("FIELDS line is empty")
    if len(set(names)) != len(names):
        raise MalformedHeaderError("duplicate field names")

    def ints(key, expect_len):
        vals = need(key)
        if len(vals) != expect_len:
            raise MalformedHeaderError(f"{key} count differs from FIELDS")
        try:
            out = [int(v) for v in vals]
        except ValueError as exc:
            raise MalformedHeaderError(f"bad {key} entry: {exc}") from None
        return out

    sizes = ints("SIZE", len(names))
    types = need("TYPE")
    if len(types) != len(names):
        raise MalformedHeaderError("TYPE count differs from FIELDS")
    counts = ints("COUNT", len(names)) if "COUNT" in entries else [1] * len(names)
    if any(c < 1 for c in counts):
        raise MalformedHeaderError("COUNT entries must be >= 1")
    for t, s in zip(types, sizes):
        if (t, s) not in _DTYPES:
            raise MalformedHeaderError(f"unsupported field type {t}{s}")

    try:
        width = int(need("WIDTH")[0])
        height = int(need("HEIGHT")[0])
    except (ValueError, IndexError):
        raise MalformedHeaderError("bad WIDTH/HEIGHT") from None
    if width < 0 or height < 0:
        raise MalformedHeaderError("negative WIDTH/HEIGHT")
    if "POINTS" in entries:
        try:
            points = int(entries["POINTS"][0])
        except (ValueError, IndexError):
            raise MalformedHeaderError("bad POINTS") from None
    else:
        points = width * height
    if width * height != points or points < 0:
        raise MalformedHeaderError(
            f"WIDTH*HEIGHT = {width * height} but POINTS = {points}")

    viewpoint = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    if "VIEWPOINT" in entries:
        vals = entries["VIEWPOINT"]
        try:
            vp = tuple(float(v) for v in vals)
        except ValueError:
            raise MalformedHeaderError("bad VIEWPOINT") from None
        if len(vp) != 7 or not all(np.isfinite(vp)):
            raise MalformedHeaderError("VIEWPOINT needs 7 finite values")
        if abs(np.linalg.norm(vp[3:]) - 1.0) > 1e-3:
            raise MalformedHeaderError("VIEWPOINT quaternion is not unit")
        viewpoint = vp

    data = need("DATA")[0].lower() if need("DATA") else ""
    if data not in ("ascii", "binary"):
        raise MalformedHeaderError(f"unsupported DATA mode {data!r}")
    version = entries.get("VERSION", [".7"])[0]
    return PcdHeader(names, sizes, types, counts, width, height, viewpoint,
                     points, data, version), offset


def read_pcd_arrays(src: Union[str, Path, bytes]):
    """Parse a PCD file into (header, {field: array}) without interpreting
    any semantics. COUNT>1 fields come back as (n, count) arrays."""
    blob = Path(src).read_bytes() if isinstance(src, (str, Path)) else src
    head_text = blob[:65536].decode("latin-1", errors="replace")
    header, body_off = _parse_header(head_text)

    specs = [(f, _DTYPES[(t, s)], (c,) if c > 1 else ())
             for f, t, s, c in zip(header.fields, header.types, header.sizes,
                                   header.counts)]
    dtype = np.dtype([(f, d, sh) for f, d, sh in specs])
    out: dict[str, np.ndarray] = {}
    if header.data == "binary":
        body = blob[body_off:]
        need = header.points * dtype.itemsize
        if len(body) < need:
            raise TruncatedBodyError(
                f"body holds {len(body)} bytes, header declares {need}")
        rec = np.frombuffer(body[:need], dtype=dtype)
        for f, _, _ in specs:
            out[f] = rec[f].copy()
    else:
        tokens = blob[body_off:].decode("latin-1", errors="replace").split()
        per_point = sum(header.counts)
        need = header.points * per_point
        if len(tokens) < need:
            raise TruncatedBodyError(
                f"body holds {len(tokens)} values, header declares {need}")
        try:
            flat = np.array(tokens[:need], dtype=np.float64)
        except ValueError as exc:
            raise MalformedHeaderError(f"non-numeric ascii body: {exc}") from None
        flat = flat.reshape(header.points, per_point) if header.points else \
            flat.reshape(0, per_point)
        col = 0
        for (f, d, sh), c in zip(specs, header.counts):
            chunk = flat[:, col:col + c]
            col += c
            arr = chunk[:, 0] if not sh else chunk
            out[f] = arr.astype(d)
    return header, out


def read_pcd(src: Union[str, Path, bytes]) -> LabeledCloud:
    """Read a PCD file into a LabeledCloud.

    Needs x, y, z fields in any order; a ``label`` field (or, failing that,
    ``intensity``) provides face labels, rounded to the nearest non-negative
    integer. Other fields are ignored.
    """
    header, arrays = read_pcd_arrays(src)
    for axis in ("x", "y", "z"):
        if axis not in arrays or arrays[axis].ndim != 1:
            raise MissingXyzError(f"missing scalar field {axis!r}")
    pts = np.column_stack([arrays["x"], arrays["y"], arrays["z"]]).astype(np.float64)
    if "label" in arrays and arrays["label"].ndim == 1:
        raw = arrays["label"].astype(np.float64)
    elif "intensity" in arrays and arrays["intensity"].ndim == 1:
        raw = arrays["intensity"].astype(np.float64)
    else:
        raw = np.zeros(len(pts))
    raw = np.where(np.isfinite(raw), raw, 0.0)
    labels = np.maximum(np.rint(raw), 0.0).astype(np.int64)
    vp = header.viewpoint
    pose = Pose(tuple(vp[:3]), tuple(np.asarray(vp[3:]) / np.linalg.norm(vp[3:])))
    return LabeledCloud(pts, labels, sensor_pose=pose)


# colours follow the inspection convention: hits green, background black,
# false alarms red, misses orange
_COLORS = {"tp": (0, 255, 0), "tn": (0, 0, 0), "fp": (255, 0, 0),
           "fn": (255, 165, 0)}


def export_ply_colored(cloud: LabeledCloud, pred, truth=None, path=None):
    """ASCII PLY with per-vertex RGB classifying each point.

    With truth: TP green, TN black, FP red, FN orange. Without truth:
    predicted structure green, rest black.
    """
    pred = np.asarray(pred).astype(bool).reshape(-1)
    if len(pred) != len(cloud):
        raise LengthMismatchError("prediction length differs from cloud")
    n = len(cloud)
    colors = np.zeros((n, 3), dtype=np.int64)
    if truth is not None:
        truth = np.asarray(truth).astype(bool).reshape(-1)
        if len(truth) != n:
            raise LengthMismatchError("truth length differs from cloud")
        colors[pred & truth] = _COLORS["tp"]
        colors[~pred & ~truth] = _COLORS["tn"]
        colors[pred & ~truth] = _COLORS["fp"]
        colors[~pred & truth] = _COLORS["fn"]
    else:
        colors[pred] = _COLORS["tp"]
    head = "\n".join([
        "ply", "format ascii 1.0", f"element vertex {n}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
    ]) + "\n"
    rows = [
        f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} {c[0]} {c[1]} {c[2]}"
        for p, c in zip(cloud.points.astype(np.float32), colors)
    ]
    text = head + "\n".join(rows) + ("\n" if n else "")
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
        return None
    return text


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetConfig:
    out_dir: str = ""
    n_scans: int = 100
    seed: int = 0
    jobs: int = 1
    sensor_position: tuple[float, float, float] = (0.0, 0.0, 2.0)

    def __post_init__(self):
        if self.n_scans < 1:
            raise InvalidSpecError("n_scans must be >= 1")
        if self.jobs < 1:
            raise InvalidSpecError("jobs must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorConfig = SensorConfig()
    scene: SceneSpec = SceneSpec()
    pipeline: PipelineConfig = PipelineConfig()
    dataset: DatasetConfig = DatasetConfig()


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _parse_value(section, key, raw, kind):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        if kind == "str":
            return raw.strip()
        if kind.startswith("ivec"):
            vals = tuple(int(v) for v in raw.split())
        else:                                  # vecN
            vals = tuple(float(v) for v in raw.split())
        want = int(kind[-1])
        if len(vals) != want:
            raise ValueError(f"expected {want} values, got {len(vals)}")
        return vals
    except ValueError as exc:
        raise ConfigTypeError(f"[{section}] {key}: {exc}") from None


_SCHEMA = {
    "sensor": {
        "v_resolution": "int", "h_resolution": "int", "min_range": "float",
        "max_range": "float", "v_fov_deg": "float", "h_fov_deg": "float",
        "noise_sigma": "float", "seed": "int",
    },
    "truss": {
        "node_counts": "ivec3", "bar_length": "float", "bar_width": "float",
        "crossed": "bool", "label_mode": "str",
    },
    "scene": {
        "ground_amplitude": "float", "ground_wavelength": "float",
        "tree_count": "int", "tree_scale_bounds": "vec2",
        "tree_xy_min": "vec2", "tree_xy_max": "vec2", "seed": "int",
    },
    "boxes": {
        "count": "int", "length_bounds": "vec2", "width_bounds": "vec2",
        "position_min": "vec3", "position_max": "vec3",
    },
    "pipeline": {
        "voxel_leaf": "float", "ransac_threshold": "float",
        "ransac_iterations": "int", "ransac_seed": "int", "normal_k": "int",
        "rg_angle_threshold_deg": "float", "rg_curvature_threshold": "float",
        "rg_min_cluster": "int", "eigen_mode": "str", "ratio_threshold": "float",
        "magnitude_threshold": "float", "density_radius": "float",
        "density_min_points": "int", "stage_mode": "str",
    },
    "dataset": {
        "out_dir": "str", "n_scans": "int", "seed": "int", "jobs": "int",
        "sensor_position": "vec3",
    },
}

def _build_section(section: str, values: dict, cls):
    try:
        return cls(**values)
    except InvalidSpecError as exc:
        raise ConfigRangeError(f"[{section}] {exc}") from None


def loads_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse the key-value run configuration (INI syntax, documented keys
    only, every default applied when absent). ``overrides`` maps
    "section.key" strings onto raw values and is validated identically.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigTypeError(f"cannot parse config: {exc}") from None

    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UnknownKeyError(f"unknown section [{section}]")
        raw[section] = dict(parser.items(section))
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise UnknownKeyError(f"override {dotted!r} needs section.key form")
        section, key = dotted.split(".", 1)
        raw.setdefault(section, {})[key] = str(value)

    parsed: dict[str, dict] = {}
    for section, items in raw.items():
        if section not in _SCHEMA:
            raise UnknownKeyError(f"unknown section [{section}]")
        schema = _SCHEMA[section]
        parsed[section] = {}
        for key, value in items.items():
            if key not in schema:
                raise UnknownKeyError(f"[{section}] unknown key {key!r}")
            parsed[section][key] = _parse_value(section, key, value, schema[key])

    sensor = _build_section("sensor", parsed.get("sensor", {}), SensorConfig)
    pipeline = _build_section("pipeline", parsed.get("pipeline", {}),
                              PipelineConfig)
    dataset = _build_section("dataset", parsed.get("dataset", {}), DatasetConfig)
    truss = _build_section("truss", parsed["truss"], TrussSpec) \
        if "truss" in parsed else None
    boxes = _build_section("boxes", parsed["boxes"], BoxFieldSpec) \
        if "boxes" in parsed else None
    scene_kwargs = dict(parsed.get("scene", {}))
    scene_kwargs["structure"] = truss
    scene_kwargs["boxes"] = boxes
    scene = _build_section("scene", scene_kwargs, SceneSpec)
    return RunConfig(sensor=sensor, scene=scene, pipeline=pipeline,
                     dataset=dataset)


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Load and validate a run configuration file (see loads_config)."""
    return loads_config(Path(path).read_text(), overrides)


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_value_text(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Serialise a RunConfig; load(dump(cfg)) reproduces cfg exactly."""
    out = []

    def emit(section, obj, skip=()):
        out.append(f"[{section}]")
        for f in dc_fields(obj):
            if f.name in skip:
                continue
            out.append(f"{f.name} = {_value_text(getattr(obj, f.name))}")
        out.append("")

    emit("sensor", cfg.sensor)
    if cfg.scene.structure is not None:
        emit("truss", cfg.scene.structure)
    emit("scene", cfg.scene, skip=("structure", "boxes"))
    if cfg.scene.boxes is not None:
        emit("boxes", cfg.scene.boxes)
    emit("pipeline", cfg.pipeline)
    emit("dataset", cfg.dataset)
    return "\n".join(out)


def config_fingerprint(obj) -> str:
    """Stable short hash of any config dataclass."""
    blob = json.dumps(asdict(obj), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
