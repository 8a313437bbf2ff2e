"""Scene solids and analytic ray intersections.

All intersection helpers share one ray origin (the sensor) and a batch of
unit directions, returning per-ray hit parameters ``t`` with ``inf`` for
misses. Directions and origins are expressed in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import InvalidSpecError

_EPS = 1e-12


@dataclass
class OrientedBox:
    """Box with arbitrary orientation; ``rotation`` columns are the local
    axes in world coordinates. ``face_labels`` order: -x +x -y +y -z +z."""

    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    face_labels: np.ndarray = field(default_factory=lambda: np.zeros(6, dtype=np.int64))

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.face_labels = np.asarray(self.face_labels, dtype=np.int64).reshape(6)
        if not (self.half_extents > 0).all():
            raise InvalidSpecError("box half extents must be positive")
        if np.abs(self.rotation @ self.rotation.T - np.eye(3)).max() > 1e-9:
            raise InvalidSpecError("box rotation must be orthonormal within 1e-9")

    @property
    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.half_extents))

    def labels(self) -> np.ndarray:
        return self.face_labels


@dataclass
class VerticalCylinder:
    """Solid finite cylinder with vertical axis (tree trunks)."""

    base: np.ndarray
    height: float
    radius: float
    label: int = 0

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=np.float64).reshape(3)
        if self.height <= 0 or self.radius <= 0:
            raise InvalidSpecError("cylinder height and radius must be positive")

    @property
    def center(self) -> np.ndarray:
        return self.base + np.array([0.0, 0.0, self.height / 2.0])

    @property
    def bounding_radius(self) -> float:
        return float(np.hypot(self.height / 2.0, self.radius))

    def labels(self) -> np.ndarray:
        return np.array([self.label], dtype=np.int64)


@dataclass
class Ellipsoid:
    """Axis-aligned ellipsoid (tree canopies)."""

    center: np.ndarray
    radii: np.ndarray
    label: int = 0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.radii = np.asarray(self.radii, dtype=np.float64).reshape(3)
        if not (self.radii > 0).all():
            raise InvalidSpecError("ellipsoid radii must be positive")

    @property
    def bounding_radius(self) -> float:
        return float(self.radii.max())

    def labels(self) -> np.ndarray:
        return np.array([self.label], dtype=np.int64)


@dataclass
class HeightFieldGround:
    """Smooth ground surface z = A sin(2 pi x / w) sin(2 pi y / w).

    amplitude 0 degenerates to the plane z = 0. The label is always 0."""

    amplitude: float = 0.2
    wavelength: float = 10.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise InvalidSpecError("ground amplitude must be >= 0")
        if self.wavelength <= 0:
            raise InvalidSpecError("ground wavelength must be positive")

    def height(self, x, y):
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        k = 2.0 * np.pi / self.wavelength
        return self.amplitude * np.sin(k * np.asarray(x)) * np.sin(k * np.asarray(y))

    def labels(self) -> np.ndarray:
        return np.array([0], dtype=np.int64)


Solid = Union[OrientedBox, VerticalCylinder, Ellipsoid]


@dataclass
class Scene:
    """Immutable world description: labeled solids over an optional ground."""

    solids: list
    ground: Optional[HeightFieldGround] = None

    def __post_init__(self):
        labels = np.concatenate([s.labels() for s in self.solids]) if self.solids \
            else np.zeros(0, dtype=np.int64)
        structure = np.unique(labels[labels > 0])
        if len(structure) and not np.array_equal(
                structure, np.arange(1, len(structure) + 1)):
            raise InvalidSpecError(
                "structure labels must form a consecutive 1..K set")


# ---------------------------------------------------------------------------
# ray intersections (single origin, batched unit directions)
# ---------------------------------------------------------------------------

def ray_box(origin: np.ndarray, dirs: np.ndarray, box: OrientedBox):
    """Hit parameters and face indices for a batch of rays against one box.

    Returns (t, face) with t = inf on miss. Rays starting inside the box hit
    the exit face.
    """
    o = box.rotation.T @ (origin - box.center)
    D = dirs @ box.rotation                      # (m, 3) local directions
    h = box.half_extents
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / D
        t1 = (-h - o) * inv
        t2 = (h - o) * inv
    tn = np.minimum(t1, t2)
    tf = np.maximum(t1, t2)
    parallel = np.abs(D) < _EPS
    outside = np.abs(o) > h
    tn = np.where(parallel, -np.inf, tn)
    tf = np.where(parallel, np.inf, tf)
    miss_parallel = (parallel & outside).any(axis=1)

    axis_in = np.argmax(tn, axis=1)
    axis_out = np.argmin(tf, axis=1)
    t_enter = np.take_along_axis(tn, axis_in[:, None], axis=1)[:, 0]
    t_exit = np.take_along_axis(tf, axis_out[:, None], axis=1)[:, 0]
    hit = (t_enter <= t_exit) & (t_exit > 0.0) & ~miss_parallel

    inside = t_enter <= 0.0
    t = np.where(inside, t_exit, t_enter)
    axis = np.where(inside, axis_out, axis_in)
    d_axis = np.take_along_axis(D, axis[:, None], axis=1)[:, 0]
    # entering: a ray moving +axis crosses the -axis face; exiting: the +axis face
    plus_side = np.where(inside, d_axis > 0.0, d_axis < 0.0)
    face = 2 * axis + plus_side.astype(np.int64)
    t = np.where(hit, t, np.inf)
    return t, face


def ray_cylinder(origin: np.ndarray, dirs: np.ndarray, cyl: VerticalCylinder):
    """Hit parameters against a solid vertical cylinder (side plus caps)."""
    ox, oy = origin[0] - cyl.base[0], origin[1] - cyl.base[1]
    oz = origin[2]
    z0, z1 = cyl.base[2], cyl.base[2] + cyl.height
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]

    t = np.full(len(dirs), np.inf)
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - cyl.radius ** 2
    disc = b * b - 4.0 * a * c
    ok = (disc >= 0.0) & (a > _EPS)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            tc = (-b + sign * sq) / (2.0 * a)
            z = oz + tc * dz
            good = ok & (tc > 0.0) & (z >= z0) & (z <= z1)
            t = np.where(good & (tc < t), tc, t)
        for zc in (z0, z1):
            tc = (zc - oz) / dz
            x = origin[0] + tc * dx - cyl.base[0]
            y = origin[1] + tc * dy - cyl.base[1]
            good = (np.abs(dz) > _EPS) & (tc > 0.0) & \
                (x * x + y * y <= cyl.radius ** 2)
            t = np.where(good & (tc < t), tc, t)
    return t


def ray_ellipsoid(origin: np.ndarray, dirs: np.ndarray, ell: Ellipsoid):
    """Hit parameters against an ellipsoid surface."""
    q0 = (origin - ell.center) / ell.radii
    qd = dirs / ell.radii
    a = np.einsum("ij,ij->i", qd, qd)
    b = 2.0 * (qd @ q0)
    c = float(q0 @ q0) - 1.0
    disc = b * b - 4.0 * a * c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (-b - sq) / (2.0 * a)
        t1 = (-b + sq) / (2.0 * a)
    t = np.where(t0 > 0.0, t0, np.where(t1 > 0.0, t1, np.inf))
    return np.where(ok, t, np.inf)


def ray_ground(origin: np.ndarray, dirs: np.ndarray, ground: HeightFieldGround,
               t_upper: np.ndarray, step: Optional[float] = None):
    """First crossing of the ground surface along each ray, below t_upper.

    amplitude 0 is solved exactly against the plane z = 0. Otherwise the
    surface is bracketed by marching within the |z| <= amplitude band and
    refined by bisection to sub-nanometre residuals.
    """
    oz = origin[2]
    dz = dirs[:, 2]
    t = np.full(len(dirs), np.inf)

    if ground.amplitude == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = -oz / dz
        good = (np.abs(dz) > _EPS) & (tp > 0.0) & (tp < t_upper)
        return np.where(good, tp, np.inf)

    A = ground.amplitude
    if step is None:
        step = min(0.05, ground.wavelength / 64.0)

    def f(tv, mask):
        p = origin + tv[:, None] * dirs[mask]
        return p[:, 2] - ground.height(p[:, 0], p[:, 1])

    # per-ray parameter interval where |z| <= A (clipped to t_upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (-A - oz) / dz
        tb = (A - oz) / dz
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb)
    level = np.abs(dz) <= _EPS
    lo = np.where(level, 0.0, lo)
    hi = np.where(level, t_upper, hi)
    inside_band = np.abs(oz) <= A
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, t_upper)
    active = (hi > lo) & (~level | inside_band)
    if not active.any():
        return t

    idx = np.flatnonzero(active)
    cur = lo[idx]
    end = hi[idx]
    f_cur = f(cur, idx)
    # origin below the surface inside the band: treat as immediate contact
    immediate = f_cur <= 0.0
    t[idx[immediate]] = cur[immediate]
    alive = ~immediate
    idx, cur, end, f_cur = idx[alive], cur[alive], end[alive], f_cur[alive]

    bracket_lo = np.empty(0)
    bracket_hi = np.empty(0)
    bracket_idx = np.empty(0, dtype=np.intp)
    while len(idx):
        nxt = np.minimum(cur + step, end)
        f_nxt = f(nxt, idx)
        crossed = f_nxt <= 0.0
        if crossed.any():
            bracket_lo = np.concatenate([bracket_lo, cur[crossed]])
            bracket_hi = np.concatenate([bracket_hi, nxt[crossed]])
            bracket_idx = np.concatenate([bracket_idx, idx[crossed]])
        alive = ~crossed & (nxt < end)
        idx, cur, f_cur = idx[alive], nxt[alive], f_nxt[alive]
        end = end[alive]

    if len(bracket_idx):
        lo_b, hi_b = bracket_lo, bracket_hi
        for _ in range(80):
            mid = 0.5 * (lo_b + hi_b)
            below = f(mid, bracket_idx) <= 0.0
            hi_b = np.where(below, mid, hi_b)
            lo_b = np.where(below, lo_b, mid)
        t[bracket_idx] = 0.5 * (lo_b + hi_b)
    return t


def intersect_solid(origin: np.ndarray, dirs: np.ndarray, solid: Solid):
    """Dispatch to the per-type intersection; (t, per-ray face label)."""
    if isinstance(solid, OrientedBox):
        t, face = ray_box(origin, dirs, solid)
        labels = solid.face_labels[face]
        return t, labels
    if isinstance(solid, VerticalCylinder):
        t = ray_cylinder(origin, dirs, solid)
    elif isinstance(solid, Ellipsoid):
        t = ray_ellipsoid(origin, dirs, solid)
    else:
        raise TypeError(f"unsupported solid {type(solid).__name__}")
    return t, np.full(len(dirs), solid.label, dtype=np.int64)
