"""Parametric truss/world construction and deterministic LiDAR simulation.

Scans are produced by an analytic raycaster: rays are laid out on the
sensor's elevation/azimuth grid and the nearest surface along each wins.
A conservative angular broad phase picks the rays each solid can meet: the
caps of the scene's cover spheres (a row of small spheres per box, the
bounding sphere of each trunk and canopy), culled for all solids at once.
The surviving (ray, solid) pairs go to one batched slab test for the boxes
and one intersection call per trunk or canopy, and one merge keeps each
ray's nearest hit. Points are stored in the sensor frame; the ground-truth
label of each point is the label of the face its noiseless ray hit.

``build_scene`` seats the truss at the corner of ``structure_bounding_box``,
the box that sensor poses and tree placement use too. ``generate_dataset``
spreads scans over ``--jobs`` workers with ``geom.map_jobs``; each scan
draws from its own seed stream, so no byte depends on the worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidBoundsError, InvalidSpecError
from .geom import (
    LabeledCloud,
    Pose,
    canonicalize,
    field_value,
    fingerprint,
    map_jobs,
    quat_to_matrix,
    random_unit_quaternion,
)
from .primitives import (
    Ellipsoid,
    HeightFieldGround,
    OrientedBox,
    Scene,
    VerticalCylinder,
    intersect_solid,
    ray_boxes,
    ray_ground,
)

FIXED_ORIENTATION_MODE = "fixed_position_random_orientation"
WITHIN_STRUCTURE_MODE = "random_within_structure"


@dataclass(frozen=True)
class SensorConfig:
    """Spinning LiDAR model (defaults follow a 128-channel Ouster OS1)."""

    v_resolution: int = 128
    h_resolution: int = 512
    min_range: float = 0.05
    max_range: float = 30.0
    v_fov_deg: float = 45.0
    h_fov_deg: float = 360.0
    noise_sigma: float = 0.008

    def __post_init__(self):
        canonicalize(self)
        if self.v_resolution < 1 or self.h_resolution < 1:
            raise InvalidSpecError("resolutions must be >= 1")
        if not 0 < self.min_range < self.max_range:
            raise InvalidSpecError("need 0 < min_range < max_range")
        if not 0 < self.v_fov_deg <= 180:
            raise InvalidSpecError("vertical FOV must be in (0, 180]")
        if not 0 < self.h_fov_deg <= 360:
            raise InvalidSpecError("horizontal FOV must be in (0, 360]")
        if self.noise_sigma < 0:
            raise InvalidSpecError("noise sigma must be >= 0")


@dataclass(frozen=True)
class TrussSpec:
    """Rectangular bar lattice on a cubic node grid of pitch bar_length."""

    node_counts: tuple[int, int, int] = (2, 2, 2)
    bar_length: float = 2.0
    bar_width: float = 0.15
    crossed: bool = False
    label_mode: str = "per_face"

    def __post_init__(self):
        canonicalize(self)
        if any(c < 2 for c in self.node_counts):
            raise InvalidSpecError("node counts must be >= 2 on every axis")
        if self.bar_length <= 0 or self.bar_width <= 0:
            raise InvalidSpecError("bar dimensions must be positive")
        if self.bar_width >= self.bar_length:
            raise InvalidSpecError("bar width must be smaller than bar length")
        if self.label_mode not in ("per_bar", "per_face"):
            raise InvalidSpecError(f"unknown label mode {self.label_mode!r}")

    @property
    def spans(self) -> tuple[float, float, float]:
        """Node-grid extent per axis in meters."""
        return tuple((c - 1) * self.bar_length for c in self.node_counts)


@dataclass(frozen=True)
class BoxFieldSpec:
    """Randomised parallelepipeds for training scenes (square cross-section)."""

    count: int = 40
    length_bounds: tuple[float, float] = (0.5, 4.0)
    width_bounds: tuple[float, float] = (0.05, 0.4)
    position_min: tuple[float, float, float] = (-15.0, -15.0, 0.0)
    position_max: tuple[float, float, float] = (15.0, 15.0, 6.0)

    def __post_init__(self):
        canonicalize(self)
        if self.count < 0:
            raise InvalidSpecError("box count must be >= 0")
        for lo, hi in (self.length_bounds, self.width_bounds):
            if not 0 < lo <= hi:
                raise InvalidSpecError("box dimension bounds must satisfy 0 < lo <= hi")
        if any(a > b for a, b in zip(self.position_min, self.position_max)):
            raise InvalidSpecError("box placement bounds are ill-ordered")


@dataclass(frozen=True)
class SceneSpec:
    """World recipe: ground, optional truss, trees, optional training boxes,
    and the sensor position of a scene without a structure."""

    structure: Optional[TrussSpec] = None
    ground_amplitude: float = 0.2
    ground_wavelength: float = 10.0
    tree_count: int = 0
    tree_scale_bounds: tuple[float, float] = (0.7, 1.5)
    tree_xy_min: tuple[float, float] = (-25.0, -25.0)
    tree_xy_max: tuple[float, float] = (25.0, 25.0)
    boxes: Optional[BoxFieldSpec] = None
    seed: int = 0
    sensor_position: tuple[float, float, float] = (0.0, 0.0, 2.0)

    def __post_init__(self):
        canonicalize(self)
        if self.tree_count < 0:
            raise InvalidSpecError("tree count must be >= 0")
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")
        lo, hi = self.tree_scale_bounds
        if not 0 < lo <= hi:
            raise InvalidSpecError("tree scale bounds must satisfy 0 < lo <= hi")
        if any(a > b for a, b in zip(self.tree_xy_min, self.tree_xy_max)):
            raise InvalidSpecError("tree placement bounds are ill-ordered")
        HeightFieldGround(self.ground_amplitude, self.ground_wavelength)


def build_truss(spec: TrussSpec) -> list[OrientedBox]:
    """Axis-aligned bars joining every pair of adjacent grid nodes.

    Bars are emitted X-axis first, then Y, then Z, each family in node-grid
    order, then (if crossed) one diagonal per exterior lateral panel with
    alternating direction, the y-min/max faces before the x-min/max faces.
    Labels are sequential from 1: one per bar in per_bar mode, six per bar
    (-x +x -y +y -z +z) in per_face mode.
    """
    counts = np.array(spec.node_counts)
    L, w = spec.bar_length, spec.bar_width
    bars: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    for axis, step in enumerate(np.eye(3, dtype=np.int64)):
        half = np.full(3, w / 2.0)
        half[axis] = L / 2.0
        for node in np.ndindex(*(counts - step)):
            bars.append(((node + step / 2.0) * L, half, np.eye(3)))

    if spec.crossed:
        half = np.array([L * np.sqrt(2.0) / 2.0, w / 2.0, w / 2.0])
        # (panel face axis, lateral axis the diagonal runs along)
        for face, along in ((1, 0), (0, 1)):
            normal = np.eye(3)[face]
            for side, i, k in np.ndindex(2, counts[along] - 1, counts[2] - 1):
                a = np.zeros(3, dtype=np.int64)
                a[face] = side * (counts[face] - 1)
                b = a.copy()
                a[along], b[along] = i, i + 1
                a[2], b[2] = (k + 1, k) if (i + k) % 2 else (k, k + 1)
                a, b = a * L, b * L
                u = (b - a) / np.linalg.norm(b - a)
                rot = np.column_stack([u, normal, np.cross(u, normal)])
                bars.append(((a + b) / 2.0, half, rot))

    per_bar = spec.label_mode == "per_bar"
    return [OrientedBox(*bar, np.full(6, b + 1) if per_bar
                        else np.arange(6 * b + 1, 6 * b + 7))
            for b, bar in enumerate(bars)]


def structure_bounding_box(spec: TrussSpec) -> tuple[np.ndarray, np.ndarray]:
    """World-frame bbox of the node grid once the truss is seated in a scene
    (grid centred in x/y at the origin, base at z = 0)."""
    sx, sy, sz = spec.spans
    lo = np.array([-sx / 2.0, -sy / 2.0, 0.0])
    hi = np.array([sx / 2.0, sy / 2.0, sz])
    return lo, hi


def _make_tree(x, y, scale, ground: HeightFieldGround):
    base_z = float(ground.height(x, y)) - 0.05
    trunk_h = 2.2 * scale
    trunk = VerticalCylinder(np.array([x, y, base_z]), trunk_h, 0.12 * scale, label=0)
    canopy_r = np.array([1.1, 1.1, 1.4]) * scale
    canopy_c = np.array([x, y, base_z + trunk_h + 0.6 * canopy_r[2]])
    return trunk, Ellipsoid(canopy_c, canopy_r, label=0)


def build_scene(spec: SceneSpec) -> Scene:
    """Deterministic world from a SceneSpec: ground, seated truss, seeded
    random boxes and trees. Structure labels stay 1..K consecutive."""
    ground = HeightFieldGround(spec.ground_amplitude, spec.ground_wavelength)
    solids: list = []
    next_label = 1

    if spec.structure is not None:
        solids = build_truss(spec.structure)
        shift = structure_bounding_box(spec.structure)[0]
        for b in solids:
            b.center = b.center + shift
        next_label = int(max(b.face_labels.max() for b in solids)) + 1

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.boxes is not None:
        f = spec.boxes
        lo = np.asarray(f.position_min)
        hi = np.asarray(f.position_max)
        for _ in range(f.count):
            length = rng.uniform(*f.length_bounds)
            width = rng.uniform(*f.width_bounds)
            pos = rng.uniform(lo, hi)
            rot = quat_to_matrix(random_unit_quaternion(rng))
            labels = np.arange(next_label, next_label + 6, dtype=np.int64)
            next_label += 6
            solids.append(OrientedBox(pos, [length / 2, width / 2, width / 2],
                                      rot, labels))

    # trees are background clutter around the structure; redraw positions
    # that would plant one inside the lattice footprint
    exclude = None
    if spec.structure is not None:
        lo, hi = structure_bounding_box(spec.structure)
        exclude = (lo[:2] - 1.0, hi[:2] + 1.0)
    for _ in range(spec.tree_count):
        for _ in range(100):
            x = rng.uniform(spec.tree_xy_min[0], spec.tree_xy_max[0])
            y = rng.uniform(spec.tree_xy_min[1], spec.tree_xy_max[1])
            if exclude is None or not ((exclude[0][0] <= x <= exclude[1][0]) and
                                       (exclude[0][1] <= y <= exclude[1][1])):
                break
        scale = rng.uniform(*spec.tree_scale_bounds)
        solids.extend(_make_tree(x, y, scale, ground))

    return Scene(solids, ground)


def pose_has_clearance(scene: Scene, position, margin: float = 0.2) -> bool:
    """True when the position keeps ``margin`` distance from every solid.

    A sensor spawned inside a bar or a tree produces a physically
    impossible scan, so dataset generation rejects such draws.
    """
    p = np.asarray(position, dtype=np.float64)
    boxes = scene.boxes
    local = np.abs(((p - boxes.center)[:, None, :] @ boxes.rotation)[:, 0])
    if (local <= boxes.half_extents + margin).all(axis=1).any():
        return False
    for solid in scene.solids:
        if isinstance(solid, VerticalCylinder):
            r = np.hypot(p[0] - solid.base[0], p[1] - solid.base[1])
            z0 = solid.base[2] - margin
            z1 = solid.base[2] + solid.height + margin
            if r <= solid.radius + margin and z0 <= p[2] <= z1:
                return False
        elif isinstance(solid, Ellipsoid):
            if np.linalg.norm((p - solid.center) / (solid.radii + margin)) <= 1.0:
                return False
    return True


def _seed(value) -> int:
    seed = field_value(int, None, value)
    if seed < 0:
        raise InvalidSpecError("seed must be >= 0")
    return seed


def sample_sensor_pose(mode: str, bounds, seed) -> Pose:
    """Draw a sensor pose.

    fixed_position_random_orientation: bounds is the (x, y, z) position.
    random_within_structure: bounds is (lo, hi) corner arrays; the
    translation is uniform inside, orientation uniform over rotations.
    ``seed`` is a Generator or an integer seed >= 0.
    """
    rng = seed if isinstance(seed, np.random.Generator) else \
        np.random.default_rng(_seed(seed))
    if mode == FIXED_ORIENTATION_MODE:
        pos = np.asarray(bounds, dtype=np.float64).reshape(3)
    elif mode == WITHIN_STRUCTURE_MODE:
        lo = np.asarray(bounds[0], dtype=np.float64).reshape(3)
        hi = np.asarray(bounds[1], dtype=np.float64).reshape(3)
        if not (hi > lo).all():
            raise InvalidBoundsError("pose bounds must satisfy hi > lo per axis")
        pos = rng.uniform(lo, hi)
    else:
        raise InvalidSpecError(f"unknown pose mode {mode!r}")
    quat = random_unit_quaternion(rng)
    return Pose(tuple(pos), tuple(quat))


# ---------------------------------------------------------------------------
# raycasting
# ---------------------------------------------------------------------------

def ray_grid(cfg: SensorConfig):
    """Unit ray directions in the sensor frame, ordered channel-major
    (elevation row i, azimuth column j -> index i * h_resolution + j)."""
    if cfg.v_resolution == 1:
        els = np.array([0.0])
    else:
        half = np.deg2rad(cfg.v_fov_deg) / 2.0
        els = np.linspace(-half, half, cfg.v_resolution)
    azs = np.arange(cfg.h_resolution) * (np.deg2rad(cfg.h_fov_deg) / cfg.h_resolution)
    ce, se = np.cos(els), np.sin(els)
    ca, sa = np.cos(azs), np.sin(azs)
    dirs = np.empty((cfg.v_resolution, cfg.h_resolution, 3))
    dirs[:, :, 0] = ce[:, None] * ca[None, :]
    dirs[:, :, 1] = ce[:, None] * sa[None, :]
    dirs[:, :, 2] = se[:, None]
    return dirs.reshape(-1, 3), els, azs


def _solid_pairs(scene: Scene, R, origin, els, azs, max_range):
    """(ray, solid) candidate pairs, grouped by ascending scene index, for
    every ray whose direction can meet a cover sphere of a solid in range.

    All cover spheres (``Scene.cover``) are culled in one pass with a
    conservative spherical-cap bound, widened to the row band and the
    azimuth column span of each cap; a sphere containing the sensor takes
    every ray. Per solid and row, the column spans of its spheres merge into
    their hull, so a pair repeats only where a solid's spans on both sides
    of azimuth 0 overlap. A solid is dropped when its bounding sphere lies
    wholly beyond max_range; a cover sphere only when it lies wholly beyond
    max_range + 1, so every hit that can decide a point or the ground's
    march limit is kept.
    """
    h_res = len(azs)
    cover = scene.cover
    center_s = (cover.bound_center - origin) @ R
    reach = np.linalg.norm(center_s, axis=1) - cover.bound_radius
    borderline = np.flatnonzero(np.abs(reach - max_range) < 1e-9)
    for j in borderline:          # decided by the per-solid expression
        solid = scene.solids[j]
        reach[j] = np.linalg.norm(R.T @ (solid.center - origin)) \
            - solid.bounding_radius

    c = (cover.center - origin) @ R
    r = cover.radius
    dist = np.linalg.norm(c, axis=1)
    keep = (reach[cover.solid] <= max_range) & (dist - r <= max_range + 1.0)
    if not keep.any():
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    c, r, dist, owner = c[keep], r[keep], dist[keep], cover.solid[keep]

    inside = dist <= r
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arcsin(np.minimum(1.0, r / dist)) + 1e-9
        el_c = np.arcsin(np.clip(c[:, 2] / dist, -1.0, 1.0))
        d_az = np.arcsin(np.minimum(1.0, np.sin(half) / np.cos(el_c))) + 1e-9
    row0 = np.searchsorted(els, el_c - half - 1e-12, side="left")
    row1 = np.searchsorted(els, el_c + half + 1e-12, side="right")
    row0[inside], row1[inside] = 0, len(els)
    # a cap reaching a pole spans every azimuth: a half width just over pi
    d_az[inside | (np.abs(el_c) + half >= np.pi / 2 - 1e-9)] = np.pi + 1e-9
    az_c = np.arctan2(c[:, 1], c[:, 0])
    lo, hi = az_c - d_az, az_c + d_az

    # per solid, row and column span, the hull of its spheres' column
    # ranges: each (solid, ray) pair comes once, grouped by solid
    n_rows = np.maximum(row1 - row0, 0)
    ent = np.repeat(np.arange(len(n_rows)), n_rows)
    row = row0[ent] + np.arange(len(ent)) \
        - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
    new_solid = np.r_[True, owner[1:] != owner[:-1]]
    v_res = len(els)
    cell = 2 * ((np.cumsum(new_solid) - 1)[ent] * v_res + row)
    first = np.full(2 * v_res * int(new_solid.sum()), h_res)
    last = np.zeros_like(first)
    # azimuths lie in [0, 2 pi) and [lo, hi] in [-2 pi, 2 pi] (to 1e-9): a
    # column is in the span when its azimuth, or that minus 2 pi, is
    for span, shift in enumerate((0.0, 2.0 * np.pi)):
        c0 = np.searchsorted(azs, lo + shift, side="left")[ent]
        c1 = np.searchsorted(azs, hi + shift, side="right")[ent]
        use = c1 > c0
        np.minimum.at(first, cell[use] + span, c0[use])
        np.maximum.at(last, cell[use] + span, c1[use])
    cells = np.flatnonzero(last > first)
    width = last[cells] - first[cells]
    rect = np.repeat(np.arange(len(cells)), width)
    local = np.arange(len(rect)) - np.repeat(np.cumsum(width) - width, width)
    ray = (cells // 2 % v_res)[rect] * h_res + first[cells][rect] + local
    return ray, owner[new_solid][cells // (2 * v_res)][rect]


def raycast_scan(scene: Scene, pose: Pose, cfg: SensorConfig,
                 seed: int = 0) -> LabeledCloud:
    """Simulate one scan: nearest-hit labels, range gating, along-ray noise.

    Rays outside [min_range, max_range] of their nearest hit yield no point.
    The broad phase (``_solid_pairs``) gives the candidate (ray, solid)
    pairs; boxes are slab-tested in one batch and each trunk or canopy is
    intersected with its own rays. Each ray takes the smallest hit parameter
    over all solids, ties going to the solid listed first. Noise draws come
    from one per-ray slot of a counter-based stream keyed by ``seed``
    (>= 0), so output does not depend on evaluation order. A PCD stores
    the points rounded to float32.
    """
    seed = _seed(seed)
    dirs_s, els, azs = ray_grid(cfg)
    R = pose.rotation_matrix()
    origin = np.asarray(pose.translation, dtype=np.float64)
    dirs_w = dirs_s @ R.T
    n = len(dirs_s)

    ray, solid = _solid_pairs(scene, R, origin, els, azs, cfg.max_range)
    boxes = scene.boxes
    packed = np.full(len(scene.solids), -1)
    packed[boxes.solid_index] = np.arange(len(boxes))
    on_box = packed[solid] >= 0
    b_ray, box = ray[on_box], packed[solid[on_box]]
    hit, t, face = ray_boxes(origin, dirs_w, boxes, b_ray, box)
    box = box[hit]
    found = [(b_ray[hit], t, boxes.face_labels[box, face],
              boxes.solid_index[box])]
    for j in np.unique(solid[~on_box]):       # pairs are grouped by solid
        s, e = np.searchsorted(solid, [j, j + 1])
        t, labels = intersect_solid(origin, dirs_w[ray[s:e]], scene.solids[j])
        ok = np.isfinite(t)
        found.append((ray[s:e][ok], t[ok], labels[ok], solid[s:e][ok]))
    ray, t, label, solid = (np.concatenate(part) for part in zip(*found))

    t_best = np.full(n, np.inf)
    np.minimum.at(t_best, ray, t)
    # of the solids reaching a ray's minimum, the first in scene order wins;
    # a repeated pair has one label
    win = t == t_best[ray]
    ray, label, solid = ray[win], label[win], solid[win]
    first = np.full(n, len(scene.solids))
    np.minimum.at(first, ray, solid)
    win = solid == first[ray]
    label_best = np.zeros(n, dtype=np.int64)
    label_best[ray[win]] = label[win]

    noise = np.zeros(n)
    if cfg.noise_sigma > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        noise = rng.normal(0.0, cfg.noise_sigma, size=n)

    if scene.ground is not None:
        t_upper = np.minimum(t_best, cfg.max_range + 1.0)
        tg = ray_ground(origin, dirs_w, scene.ground, t_upper)
        better = tg < t_best
        t_best = np.where(better, tg, t_best)
        label_best[better] = 0

    hit = np.isfinite(t_best) & (t_best >= cfg.min_range) & (t_best <= cfg.max_range)
    ranges = t_best[hit] + noise[hit]         # t + 0.0 == t when noiseless
    points = dirs_s[hit] * ranges[:, None]
    return LabeledCloud(points, label_best[hit], sensor_pose=pose)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def spec_fingerprint(scene_spec: SceneSpec, sensor: SensorConfig) -> str:
    return fingerprint({"scene": scene_spec, "sensor": sensor})


# the last scene _scan_record built, kept at module level so it outlives
# one generate_dataset call (a scan per `trusskit generate --n 1`): a
# structure scene is built and packed once per process, a training scene
# (a new seed per scan) once per scan. Scenes are deterministic in their spec.
@lru_cache(maxsize=1)
def _scene_for(spec: SceneSpec) -> Scene:
    return build_scene(spec)


def _scan_record(i: int, scene_spec: SceneSpec, sensor: SensorConfig,
                 base_seed: int, out_dir: str) -> dict:
    """Build, scan and write one cloud; returns its manifest record."""
    from . import io as tio

    root = np.random.SeedSequence(entropy=base_seed, spawn_key=(i,))
    scene_child, pose_child, noise_child = root.spawn(3)
    spec_i = scene_spec
    if scene_spec.boxes is not None:
        # a world per scan, drawn from the dataset seed and mixed with
        # [scene] seed; seed 0 keeps the drawn world
        drawn = int(scene_child.generate_state(1, np.uint64)[0])
        spec_i = replace(scene_spec, seed=drawn ^ scene_spec.seed)
    scene = _scene_for(spec_i)

    pose_rng = np.random.default_rng(pose_child)
    if scene_spec.structure is not None:
        lo, hi = structure_bounding_box(scene_spec.structure)
        lo[2] = max(lo[2], scene_spec.ground_amplitude + 0.3)
        for _ in range(201):          # the last draw stands, clear or not
            pose = sample_sensor_pose(WITHIN_STRUCTURE_MODE, (lo, hi), pose_rng)
            if pose_has_clearance(scene, pose.translation):
                break
    else:
        pose = sample_sensor_pose(FIXED_ORIENTATION_MODE,
                                  scene_spec.sensor_position, pose_rng)

    scan_seed = int(noise_child.generate_state(1, np.uint64)[0])
    cloud = raycast_scan(scene, pose, sensor, seed=scan_seed)

    rel = f"clouds/scan_{i:05d}.pcd"
    tio.write_pcd(cloud, Path(out_dir) / rel)
    return {
        "file": rel,
        "seed": scan_seed,
        "pose": {"translation": list(pose.translation),
                 "quaternion": list(pose.quaternion)},
        "spec_hash": spec_fingerprint(scene_spec, sensor),
    }


def generate_dataset(scene_spec: SceneSpec, n_scans: int, seed: int, out_dir,
                     sensor: SensorConfig = SensorConfig(),
                     jobs: int = 1) -> list[dict]:
    """Write n_scans labeled PCD scans plus a manifest under out_dir.

    Every scan draws from an independent stream derived from (seed, index),
    so the dataset is byte-reproducible and order/parallelism independent.
    The manifest (one JSON record per line) is written last. ``n_scans``,
    ``seed`` and ``out_dir`` pass ``DatasetConfig``'s rules.
    """
    from . import io as tio

    ds = tio.DatasetConfig(str(out_dir), n_scans, seed)
    out = Path(ds.out_dir)
    (out / "clouds").mkdir(parents=True, exist_ok=True)
    records = map_jobs(_scan_record, jobs, range(ds.n_scans),
                       repeat(scene_spec), repeat(sensor), repeat(ds.seed),
                       repeat(str(out)))
    with open(out / "manifest.json-lines", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records
