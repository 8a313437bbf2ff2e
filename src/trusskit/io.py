"""File formats: PCD read/write, colored PLY export, run configuration.

The PCD dialect written here is ``VERSION .7`` with single-precision
coordinates and an unsigned 32-bit ``label`` channel, in a binary body:
little-endian and tightly packed in field order. The reader, whose input
comes from outside the program, accepts ascii bodies as well, any column
order, wider numeric types, and a float ``intensity`` channel carrying
labels.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields as dc_fields
from decimal import Decimal
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigRangeError,
    ConfigTypeError,
    FieldRangeError,
    FieldTypeError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingXyzError,
    TruncatedBodyError,
    UnknownKeyError,
)
from .geom import LabeledCloud, Pose, _typed_fields, canonicalize
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


def write_pcd_fields(columns: list, viewpoint, path=None) -> Optional[bytes]:
    """Serialise named columns as a binary PCD file.

    columns: list of (name, type_char, size, 1-d array). Writes to ``path``
    when given, otherwise returns the bytes. An integer column refuses a
    value its type cannot hold (FieldRangeError) rather than wrap it.
    """
    n = len(columns[0][3]) if columns else 0
    for name, _, _, arr in columns:
        if len(arr) != n:
            raise LengthMismatchError(f"column {name!r} length differs")
    header = PcdHeader(
        fields=[c[0] for c in columns],
        sizes=[c[2] for c in columns],
        types=[c[1] for c in columns],
        counts=[1] * len(columns),
        width=n, height=1, viewpoint=tuple(viewpoint), points=n, data="binary",
    )
    dtype = np.dtype([(c[0], _DTYPES[(c[1], c[2])]) for c in columns])
    rec = np.zeros(n, dtype=dtype)
    for name, tc, size, arr in columns:
        values = np.asarray(arr)
        if tc != "F" and len(values):
            info = np.iinfo(_DTYPES[(tc, size)])
            if not info.min <= values.min() <= values.max() <= info.max:
                raise FieldRangeError(f"field {name!r} holds a value that "
                                      f"does not fit {tc}{size}")
        rec[name] = values.astype(_DTYPES[(tc, size)])
    blob = _header_text(header).encode("ascii") + rec.tobytes()
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(blob)
        return None
    return blob


def _write_cloud(cloud: LabeledCloud, path, after_label=()):
    """Write the columns ``x y z``, ``label``, ``after_label`` of a cloud,
    its sensor pose as the viewpoint."""
    xyz = [(axis, "F", 4, cloud.points[:, i]) for i, axis in enumerate("xyz")]
    return write_pcd_fields(
        [*xyz, ("label", "U", 4, cloud.face_label), *after_label],
        cloud.sensor_pose.viewpoint_tuple(), path)


def write_pcd(cloud: LabeledCloud, path=None):
    """Write a labeled cloud with fields ``x y z label`` (F F F U)."""
    return _write_cloud(cloud, path)


def write_prediction_pcd(cloud: LabeledCloud, pred, path=None):
    """Write a cloud plus its binary prediction: fields ``x y z label pred``."""
    pred = np.asarray(pred).astype(bool)
    if len(pred) != len(cloud):
        raise LengthMismatchError("prediction length differs from cloud")
    return _write_cloud(cloud, path,
                        after_label=[("pred", "U", 1, pred.astype(np.uint8))])


def write_latency(pred_path, stages_ms, total_ms, warnings) -> None:
    """Write the ``<name>.latency.json`` sidecar of a prediction PCD."""
    Path(pred_path).with_suffix(".latency.json").write_text(json.dumps(
        {"stages_ms": stages_ms, "total_ms": total_ms, "warnings": warnings},
        sort_keys=True) + "\n")


def read_latency(pred_path) -> Optional[dict]:
    """``write_latency``'s keys and values, or None without a sidecar."""
    path = Path(pred_path).with_suffix(".latency.json")
    return json.loads(path.read_text()) if path.exists() else None


# a header is a few hundred bytes: its lines are first looked for in this
# many leading characters, so a binary body is not split into lines too
_HEAD_PREFIX = 1024


def _header_entries(text: str, cut: bool):
    """{KEY: values} of the header lines up to and including the DATA line,
    and the byte offset just past that line; None when ``text`` holds no
    DATA line. With ``cut``, ``text`` is a prefix of the header window, and
    a line that runs to its end counts as absent: the line may go on past
    the cut (a final ``\\r`` may be half of a ``\\r\\n``)."""
    entries: dict[str, list[str]] = {}
    offset = 0
    for raw in text.splitlines(keepends=True):
        offset += len(raw.encode("latin-1"))
        if cut and offset == len(text):
            return None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0].upper()
        entries[key] = parts[1:]
        if key == "DATA":
            return entries, offset
    return None


def _parse_header(text: str) -> tuple[PcdHeader, int]:
    """Parse header lines; returns the header and the byte offset where the
    body starts (offset into the original byte stream). ``text`` is the
    latin-1 decoded header window, one character per byte."""
    cut = len(text) > _HEAD_PREFIX
    found = _header_entries(text[:_HEAD_PREFIX], cut)
    if found is None and cut:
        found = _header_entries(text, False)
    if found is None:
        raise MalformedHeaderError("no DATA line found")
    entries, offset = found

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
    version = entries.get("VERSION", [".7"])
    if not version:
        raise MalformedHeaderError("VERSION line is empty")
    return PcdHeader(names, sizes, types, counts, width, height, viewpoint,
                     points, data, version[0]), offset


def _exact_int(token: str, info: np.iinfo) -> Optional[int]:
    """The integer a token spells, or None if none in ``info``'s range."""
    value = Decimal(token)
    return int(value) if value.is_finite() and info.min <= value <= info.max \
        and value == value.to_integral_value() else None


def read_pcd_arrays(src: Union[str, Path, bytes]):
    """Parse a PCD file into (header, {field: array}) without interpreting
    any semantics. COUNT>1 fields come back as (n, count) arrays. An ascii
    integer field accepts any spelling float64 parses (``5``, ``5.0``,
    ``5e0``); 8-byte integers past 2**53 are read exactly."""
    blob = Path(src).read_bytes() if isinstance(src, (str, Path)) else src
    head_text = blob[:65536].decode("latin-1", errors="replace")
    header, body_off = _parse_header(head_text)

    specs = [(f, _DTYPES[(t, s)], (c,) if c > 1 else ())
             for f, t, s, c in zip(header.fields, header.types, header.sizes,
                                   header.counts)]
    dtype = np.dtype([(f, d, sh) for f, d, sh in specs])
    out: dict[str, np.ndarray] = {}
    if header.data == "binary":
        need = header.points * dtype.itemsize
        if len(blob) - body_off < need:
            raise TruncatedBodyError(f"body holds {len(blob) - body_off} "
                                     f"bytes, header declares {need}")
        rec = np.frombuffer(blob, dtype=dtype, count=header.points,
                            offset=body_off)
        # each field is copied out, so no array keeps the file's bytes alive
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
        for (f, d, sh), c, t, s in zip(specs, header.counts, header.types,
                                       header.sizes):
            chunk = flat[:, col:col + c]
            if t != "F":
                info = np.iinfo(d)
                # float64 holds every integer below 2**53 exactly; larger
                # values of an 8-byte field are read again from their tokens
                big = (np.abs(chunk) >= 2.0**53) & (s == 8)
                exact = [_exact_int(tokens[row * per_point + col + j], info)
                         for row, j in np.argwhere(big)]
                # 0 and powers of two are exact in float64; NaN fails too
                top = 2.0 ** (info.bits - (info.min < 0))
                fits = big | ((chunk >= float(info.min)) & (chunk < top)
                              & (chunk == np.trunc(chunk)))
                if None in exact or not fits.all():
                    raise FieldRangeError(
                        f"field {f!r} holds a value that does not fit {t}{s}")
                chunk = np.where(big, 0, chunk).astype(d)
                chunk[big] = exact
            col += c
            out[f] = (chunk[:, 0] if not sh else chunk).astype(d)
    return header, out


def read_pcd(src: Union[str, Path, bytes]) -> LabeledCloud:
    """Read a PCD file into a LabeledCloud.

    Needs x, y, z fields in any order; a ``label`` field (or, failing that,
    ``intensity``) provides face labels, rounded to the nearest integer, with
    negative labels clamped to 0. Other fields are ignored. A label that is
    not finite or is >= 2**63, or an ascii value that does not fit its
    integer field's type, raises ``FieldRangeError``.
    """
    return cloud_from_arrays(*read_pcd_arrays(src))


def cloud_from_arrays(header: PcdHeader, arrays: dict) -> LabeledCloud:
    """The LabeledCloud of ``read_pcd_arrays``' ``(header, arrays)``, with
    ``read_pcd``'s rules; for a caller that needs the other fields too, so
    the file is parsed once."""
    for axis in ("x", "y", "z"):
        if axis not in arrays or arrays[axis].ndim != 1:
            raise MissingXyzError(f"missing scalar field {axis!r}")
    pts = np.column_stack([arrays["x"], arrays["y"], arrays["z"]]).astype(np.float64)
    source = next((f for f in ("label", "intensity")
                   if f in arrays and arrays[f].ndim == 1), None)
    raw = arrays[source] if source else np.zeros(len(pts))
    exact = raw.dtype.kind in "iu"     # integer labels skip float64
    if not (raw <= 2**63 - 1 if exact
            else np.isfinite(raw) & (raw < 2.0**63)).all():
        at = header.fields.index(source)
        raise FieldRangeError(
            f"field {source!r} ({header.types[at]}{header.sizes[at]}) holds "
            f"a label that is not finite or >= 2**63")
    labels = np.maximum(raw if exact else np.rint(raw.astype(np.float64)),
                        0).astype(np.int64)
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

    def __post_init__(self):
        canonicalize(self)
        # a config file holds one line per key and strips its values, so
        # no other out_dir survives dump_config and loads_config
        out_dir = self.out_dir
        if not out_dir.isprintable() or out_dir != out_dir.strip():
            raise InvalidSpecError(
                f"out_dir {self.out_dir!r} must be printable, without "
                f"surrounding whitespace")
        if self.n_scans < 1:
            raise InvalidSpecError("n_scans must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorConfig = SensorConfig()
    scene: SceneSpec = SceneSpec()
    pipeline: PipelineConfig = PipelineConfig()
    dataset: DatasetConfig = DatasetConfig()


_BOOL_WORDS = {"true": True, "yes": True, "on": True,
               "false": False, "no": False, "off": False}


def _token(text: str):
    """A config token as the bool, int or float it spells, else as text."""
    if text.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[text.lower()]
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def config_value(kind, text: str):
    """What a field annotated ``kind`` gets, unchecked, from a config
    line's ``text``: a str the stripped text, else one token or a tuple."""
    if kind is str:
        return text.strip()
    tokens = tuple(_token(token) for token in text.split())
    return tokens[0] if len(tokens) == 1 else tokens


# one section per config dataclass, in dump order; the section's keys are
# the dataclass's fields
_SECTIONS = {
    "sensor": SensorConfig, "truss": TrussSpec, "scene": SceneSpec,
    "boxes": BoxFieldSpec, "pipeline": PipelineConfig, "dataset": DatasetConfig,
}
# sections that fill an optional [scene] part: section -> SceneSpec field
_SCENE_PARTS = {"truss": "structure", "boxes": "boxes"}
# dataclass fields that are not keys of their own section: the [scene]
# parts come from sections of their own, and the pipeline variant is
# chosen per command (`segment --mode`, `sweep`), not per config file
_NOT_KEYS = {SceneSpec: tuple(_SCENE_PARTS.values()),
             PipelineConfig: ("stage_mode", "eigen_mode")}


# {key: annotation} of each section, in field order
_KEYS = {section: {name: kind for name, kind, _ in _typed_fields(cls)
                   if name not in _NOT_KEYS.get(cls, ())}
         for section, cls in _SECTIONS.items()}


def _build_section(section: str, values: dict):
    try:
        return _SECTIONS[section](**values)
    except FieldTypeError as exc:
        raise ConfigTypeError(f"[{section}] {exc.field}: {exc.reason}") from None
    except InvalidSpecError as exc:
        raise ConfigRangeError(f"[{section}] {exc}") from None


def dataset_value(key: str, text: str):
    """The stored value of ``[dataset] key`` written ``text`` on a config
    line; DatasetConfig's InvalidSpecError if it refuses the value."""
    value = config_value(_KEYS["dataset"][key], text)
    return getattr(DatasetConfig(**{key: value}), key)


def loads_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse the key-value run configuration (INI syntax, documented keys
    only, every default applied when absent). ``overrides`` maps
    "section.key" strings onto raw values and is validated identically:
    each value goes through ``config_value`` to its section's dataclass,
    which checks it once."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigTypeError(f"cannot parse config: {exc}") from None

    parsed = {section: dict(parser.items(section))
              for section in parser.sections()}
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise UnknownKeyError(f"override {dotted!r} needs section.key form")
        section, key = dotted.split(".", 1)
        parsed.setdefault(section, {})[key] = str(value)
    for section, items in parsed.items():
        if section not in _KEYS:
            raise UnknownKeyError(f"unknown section [{section}]")
        keys = _KEYS[section]
        for key, value in items.items():
            if key not in keys:
                raise UnknownKeyError(f"[{section}] unknown key {key!r}")
            items[key] = config_value(keys[key], value)

    scene = dict(parsed.get("scene", {}))
    for section, field in _SCENE_PARTS.items():
        scene[field] = (_build_section(section, parsed[section])
                        if section in parsed else None)
    parsed["scene"] = scene
    # the other sections are named after their RunConfig fields
    return RunConfig(**{f.name: _build_section(f.name, parsed.get(f.name, {}))
                        for f in dc_fields(RunConfig)})


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Load and validate a run configuration file (see loads_config)."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigTypeError(f"cannot parse config {path}: {exc}") from None
    return loads_config(text, overrides)


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_value_text(v) for v in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Serialise a RunConfig's keys; load(dump(cfg)) reproduces every key.
    The pipeline variant (``stage_mode``, ``eigen_mode``) is not a key, so
    it comes back as the default, whatever ``cfg`` holds."""
    out = []
    for section, keys in _KEYS.items():
        obj = (getattr(cfg.scene, _SCENE_PARTS[section])
               if section in _SCENE_PARTS else getattr(cfg, section))
        if obj is None:
            continue
        out.append(f"[{section}]")
        out.extend(f"{key} = {_value_text(getattr(obj, key))}" for key in keys)
        out.append("")
    return "\n".join(out)
