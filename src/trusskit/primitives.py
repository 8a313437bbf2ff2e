"""Scene solids and analytic ray intersections.

All intersection helpers share one ray origin (the sensor) and a batch of
unit directions, returning per-ray hit parameters ``t`` with ``inf`` for
misses. Directions and origins are expressed in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidSpecError, NonFiniteError

_EPS = 1e-12
# the least positive float64: an Illinois-halved f(lo) stops there
_F_TINY = np.nextafter(0.0, 1.0)


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
        x = np.array(x, dtype=np.float64)
        if self.amplitude == 0.0:
            return np.zeros_like(x)
        return self.height_in_place(x, np.array(y, dtype=np.float64))

    def height_in_place(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``height(x, y)`` of float64 arrays, computed in x and y (both are
        overwritten) with the same operations; returns x."""
        k = 2.0 * np.pi / self.wavelength
        x *= k
        np.sin(x, out=x)
        x *= self.amplitude
        y *= k
        np.sin(y, out=y)
        x *= y
        return x


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

    @cached_property
    def boxes(self) -> "PackedBoxes":
        """The OrientedBox solids, packed once per scene."""
        return pack_boxes(self.solids)

    @cached_property
    def cover(self) -> "SphereCover":
        """Spheres covering every solid, grouped by scene index.

        A box is cut across its longest axis into n equal slices, each about
        as long as the box's cross-section is wide: n = ceil(long half
        extent / cross-section half diagonal). Each slice's circumscribed
        sphere, grown by a relative 1e-9 against rounding, is one cover
        sphere. A 2 m x 0.15 m bar gets 10 spheres of radius 0.15 m instead
        of one of 1.0 m. A trunk or canopy is covered by its bounding
        sphere alone, ungrown.
        """
        boxes = self.boxes
        half = boxes.half_extents
        axis = np.argmax(half, axis=1)
        by_size = np.sort(half, axis=1)
        long, cross = by_size[:, 2], np.hypot(by_size[:, 0], by_size[:, 1])
        n = np.ceil(long / cross).astype(np.intp)
        step = long / n
        radius = np.hypot(step, cross) * (1.0 + 1e-9)
        box = np.repeat(np.arange(len(half)), n)
        slot = np.arange(len(box)) - np.repeat(np.cumsum(n) - n, n)
        offset = (2 * slot + 1) * step[box] - long[box]
        along = boxes.rotation[box, :, axis[box]]

        bound_center = np.array([s.center for s in self.solids]).reshape(-1, 3)
        bound_radius = np.array([s.bounding_radius for s in self.solids],
                                dtype=np.float64)
        rest = np.setdiff1d(np.arange(len(self.solids)), boxes.solid_index)
        solid = np.concatenate([boxes.solid_index[box], rest])
        center = np.concatenate([boxes.center[box] + along * offset[:, None],
                                 bound_center[rest]])
        radius = np.concatenate([radius[box], bound_radius[rest]])
        order = np.argsort(solid, kind="stable")     # a box keeps its row
        return SphereCover(center[order], radius[order], solid[order],
                           bound_center, bound_radius)


class SphereCover(NamedTuple):
    """Spheres covering a scene's solids: sphere j (``center[j]``,
    ``radius[j]``) belongs to the solid of scene index ``solid[j]``; the
    spheres of one solid are consecutive and together contain it. Solid i
    also has one bounding sphere, ``bound_center[i]`` and ``bound_radius[i]``.
    """

    center: np.ndarray          # (S, 3) world frame
    radius: np.ndarray          # (S,)
    solid: np.ndarray           # (S,) ascending
    bound_center: np.ndarray    # (N, 3) one per solid
    bound_radius: np.ndarray    # (N,)


@dataclass(frozen=True)
class PackedBoxes:
    """Boxes as arrays, in scene order.

    ``solid_index`` is each box's position in its scene's solid list.
    """

    solid_index: np.ndarray     # (B,)
    center: np.ndarray          # (B, 3)
    half_extents: np.ndarray    # (B, 3)
    rotation: np.ndarray        # (B, 3, 3)
    face_labels: np.ndarray     # (B, 6)

    def __len__(self) -> int:
        return len(self.solid_index)


def pack_boxes(solids) -> PackedBoxes:
    """Pack the OrientedBox entries of ``solids``, in order."""
    index = [i for i, s in enumerate(solids) if isinstance(s, OrientedBox)]
    boxes = [solids[i] for i in index]
    return PackedBoxes(
        solid_index=np.asarray(index, dtype=np.intp),
        center=np.array([b.center for b in boxes]).reshape(-1, 3),
        half_extents=np.array([b.half_extents for b in boxes]).reshape(-1, 3),
        rotation=np.array([b.rotation for b in boxes]).reshape(-1, 3, 3),
        face_labels=np.array([b.face_labels for b in boxes],
                             dtype=np.int64).reshape(-1, 6))


# ---------------------------------------------------------------------------
# ray intersections (single origin, batched unit directions)
# ---------------------------------------------------------------------------

# slab-test pairs per chunk: keeps each temporary within ~200 kB
_PAIR_CHUNK = 8192


def ray_boxes(origin: np.ndarray, dirs: np.ndarray, boxes: PackedBoxes,
              ray: np.ndarray, box: np.ndarray):
    """Slab test of ray/box pairs: row ``ray[p]`` of ``dirs`` against box
    ``box[p]`` of ``boxes``, for pairs grouped by box.

    Returns (hit, t, face): the indices of the pairs that hit, their hit
    parameters and face indices. Rays starting inside a box hit the exit
    face. Every pair gets the arithmetic of a test against its box alone:
    local directions ``dirs[ray] @ rotation`` per box, and the local origin
    ``rotation.T @ (origin - center)``.
    """
    o = ((origin - boxes.center)[:, None, :] @ boxes.rotation)[:, 0]
    h = boxes.half_extents
    near, far, outside = -h - o, h - o, np.abs(o) > h
    hits, ts, faces = [], [], []
    for a in range(0, len(ray), _PAIR_CHUNK):
        k = box[a:a + _PAIR_CHUNK]
        dw = dirs[ray[a:a + _PAIR_CHUNK]]
        D = np.empty_like(dw)                    # local directions
        cut = np.flatnonzero(k[1:] != k[:-1]) + 1
        for s, e in zip(np.r_[0, cut], np.r_[cut, len(k)]):
            np.matmul(dw[s:e], boxes.rotation[k[s]], out=D[s:e])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / D
            t1 = near[k] * inv
            t2 = far[k] * inv
        tn = np.minimum(t1, t2)
        tf = np.maximum(t1, t2)
        # a slab the ray runs parallel to: no bound, or a miss from outside it
        par = np.flatnonzero(np.abs(D.ravel()) < _EPS)
        tn.ravel()[par] = -np.inf
        tf.ravel()[par] = np.inf
        miss = par[outside[k[par // 3], par % 3]] // 3
        t_enter = np.maximum(np.maximum(tn[:, 0], tn[:, 1]), tn[:, 2])
        t_exit = np.minimum(np.minimum(tf[:, 0], tf[:, 1]), tf[:, 2])
        ok = (t_enter <= t_exit) & (t_exit > 0.0)
        ok[miss] = False
        hit = np.flatnonzero(ok)

        # axis and face only for the pairs that hit: the first axis whose
        # slab gives the entry (or, from inside, the exit) parameter
        inside = t_enter[hit] <= 0.0
        t = np.where(inside, t_exit[hit], t_enter[hit])
        bound = np.where(inside[:, None], tf[hit], tn[hit])
        axis = np.where(bound[:, 0] == t, 0, np.where(bound[:, 1] == t, 1, 2))
        d_axis = D.ravel()[3 * hit + axis]
        # entering: a ray moving +axis crosses the -axis face; exiting: the +axis face
        plus_side = np.where(inside, d_axis > 0.0, d_axis < 0.0)
        hits.append(hit + a)
        ts.append(t)
        faces.append(2 * axis + plus_side)
    if not hits:
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.int64)
    return np.concatenate(hits), np.concatenate(ts), np.concatenate(faces)


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
    # elementwise: BLAS gives a one-row qd @ q0 other bits than a batch
    b = 2.0 * (qd[:, 0] * q0[0] + qd[:, 1] * q0[1] + qd[:, 2] * q0[2])
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
               t_upper: np.ndarray):
    """First crossing of the ground surface along each ray, below t_upper.

    amplitude 0 is solved exactly against the plane z = 0. Otherwise the
    surface is bracketed by marching within the |z| <= amplitude band over
    the grid min(lo + j step, end), j = 0, 1, ... (step = min(0.05,
    wavelength / 64)), and the first grid step in which the signed height
    f(t) falls to <= 0 is refined by one root loop that keeps f(lo) > 0 >=
    f(hi).

    The march passes the grid points it can prove positive (sphere
    tracing, Hart 1996). Along a ray, |df/dt| <= L = |dz| + A k (|dx| +
    |dy|), with k = 2 pi / wavelength. The computed f strays from the exact
    one by a few tens of ulps of the magnitudes it is computed from; the
    margin m = 2**-36 (|oz| + T max|dz| + A (1 + k (|ox| + |oy| +
    T max(|dx| + |dy|)))) + 2**-1060, with T the farthest end, covers twice
    that by far. So the grid point i steps past an evaluated point c is
    positive in the computed f too when (f(c) - m) / (L' stride) > i. Here
    L' = L (1 + 2**-30), against the rounding of L and of the quotient, and
    stride = step + 2 ulp(T + step): a computed grid point is within one
    such ulp of lo + j step, so points i apart are at most i stride apart.
    Each round jumps every live row past all its proven points (a NaN or
    infinite certificate proves none), evaluates f at the next grid point,
    and evaluates f(lo) where a crossing's lower end was jumped to. The
    grid and the brackets (lo, hi, f(lo), f(hi)) are those of the march
    that evaluates every grid point, given that f of a row has the same
    bits in a batch of any size and at any offset (numpy's ``np.sin``).

    Each root loop step evaluates f at one point: the secant point of the
    Illinois regula falsi (the retained end's f is halved when the same
    end moves twice in a row); where that point is not strictly inside
    (lo, hi), the point one ulp beside the end it fell on, or, after such
    a try failed, twice as far from the new end (a gallop across a plateau
    of the computed f); and the midpoint when that leaves the bracket,
    after a successful try, or when the last three steps did not halve the
    bracket.

    A ray leaves the loop with t = mid, the midpoint of its bracket, once
    mid equals its lo or hi, i.e. the bracket is two adjacent floats on a
    sign change of the computed f. On scans of the shipped configs every
    bracket closes within 12 steps, and a grazing ray's within about 35; a
    ray still open after 80 steps takes the midpoint of its last bracket.
    Where the computed f changes sign more than once inside one march step,
    the root may be another of those sign changes than the one bisection
    finds (24 ulps away at most on shipped scans, a few thousand on random
    rays); the float32 scans checked round both to the same points.

    A level ray starting inside the band is marched up to its t_upper,
    which must then be finite (NonFiniteError otherwise).
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
    step = min(0.05, ground.wavelength / 64.0)
    ox, oy = origin[0], origin[1]

    def f(tv, dx, dy, dzs):
        # per component, the same operations as origin + tv[:, None] * dirs
        x = tv * dx
        x += ox
        y = tv * dy
        y += oy
        with np.errstate(over="ignore"):        # inf keeps the sign of f
            z = tv * dzs
            z += oz
            z -= ground.height_in_place(x, y)
        return z

    # per-ray parameter interval where |z| <= A (clipped to t_upper)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    if not np.isfinite(hi[active]).all():
        raise NonFiniteError("t_upper must be finite for a level ray that "
                             "starts inside the ground band")

    idx = np.flatnonzero(active)
    start, end = lo[idx], hi[idx]
    dx, dy, dzs = dirs[idx, 0], dirs[idx, 1], dz[idx]
    # the whole-scan arrays go before the march. Once a large array has
    # been freed, glibc trims its heap only above twice that size, so the
    # raycast's peak of live arrays, the march included, stays resident
    del ta, tb, lo, hi, level, inside_band, active
    f_cur = f(start, dx, dy, dzs)
    # origin below the surface inside the band: treat as immediate contact
    immediate = f_cur <= 0.0
    t[idx[immediate]] = start[immediate]
    live = ~immediate
    n_live = np.count_nonzero(live)

    # the certificate (see the docstring): grid point i past an evaluated c
    # is positive when (f(c) - margin) / rise > i, rise = L' stride. On a
    # huge ground either may overflow to inf, which proves no point
    k = 2.0 * np.pi / ground.wavelength
    far = end.max()
    with np.errstate(over="ignore"):
        stride = step + 2.0 * np.spacing(far + step)
        rise = np.abs(dx)
        rise += np.abs(dy)
        margin = 2.0 ** -36 * (abs(oz) + far * np.abs(dzs).max() + A * (
            1.0 + k * (abs(ox) + abs(oy) + far * rise.max()))) + 2.0 ** -1060
        rise *= A * k
        rise += np.abs(dzs)
        rise *= (1.0 + 2.0 ** -30) * stride

    # grid point j of a row is min(start + j step, end). (lo, hi, f(lo) > 0,
    # f(hi) <= 0, ray index) per round. A row that has left the march stays,
    # masked out by live, until a quarter of the rows have, as in the root loop
    j = np.zeros(len(idx))
    brackets = []
    while n_live:
        if 4 * (len(idx) - n_live) >= len(idx):
            keep = np.flatnonzero(live)
            idx, start, end, j, f_cur, dx, dy, dzs, rise = (a.take(keep) for a
                in (idx, start, end, j, f_cur, dx, dy, dzs, rise))
            live = np.ones(len(idx), dtype=bool)
        # jump past the proven grid points j + i, i < (f_cur - margin) / rise
        # (none for a NaN or infinite quotient); a huge jump lands on end
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            jump = np.ceil((f_cur - margin) / rise) - 1.0
            jump[~((jump > 0.0) & (jump < np.inf))] = 0.0
            j += jump
            cur = np.minimum(start + j * step, end)
            j += 1.0
            nxt = np.minimum(start + j * step, end)
        live &= cur < end           # proven positive up to its end: a miss
        f_nxt = f(nxt, dx, dy, dzs)
        crossed = np.flatnonzero((f_nxt <= 0.0) & live)
        if len(crossed):
            f_lo = f_cur[crossed]
            blind = np.flatnonzero(jump[crossed] > 0.0)     # lo was passed
            if len(blind):
                r = crossed[blind]
                f_lo[blind] = f(cur[r], dx[r], dy[r], dzs[r])
            brackets.append((cur[crossed], nxt[crossed], f_lo,
                             f_nxt[crossed], idx[crossed]))
            live[crossed] = False
        live &= nxt < end
        n_live = np.count_nonzero(live)
        f_cur = f_nxt

    if not brackets:
        return t
    lo, hi, f_lo, f_hi, idx = (np.concatenate(part) for part in zip(*brackets))
    dx, dy, dzs = dirs[idx, 0], dirs[idx, 1], dz[idx]
    # the march's crossing step moved hi last; w1, w2, w3 are the bracket
    # widths one, two and three steps back; gap is the reach of the last
    # failed try beside an end (below), inf once a try has succeeded
    hi_moved = np.ones(len(idx), dtype=bool)
    gap = np.zeros(len(idx))
    w1 = w2 = w3 = np.full(len(idx), np.inf)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        n_done = np.count_nonzero(done)
        # a finished ray keeps the bracket (mid, mid), a fixed point of the
        # loop; its rows go only once a quarter of the rows are finished,
        # since compacting the arrays costs more than a few idle rows
        if 4 * n_done >= len(idx):
            t[idx[done]] = mid[done]
            if n_done == len(idx):
                return t
            keep = np.flatnonzero(~done)
            lo, hi, f_lo, f_hi, mid, hi_moved, gap, w1, w2, w3, idx, dx, dy, \
                dzs = (a.take(keep) for a in (lo, hi, f_lo, f_hi, mid, hi_moved,
                                              gap, w1, w2, w3, idx, dx, dy, dzs))
            done = np.zeros(len(idx), dtype=bool)
        # the secant point. f_lo > 0 >= f_hi, so the quotient is in [0, 1]
        width = hi - lo
        x = lo + width * (f_lo / (f_lo - f_hi))
        # where it is not strictly inside (lo, hi), the end it fell on is
        # within rounding of a sign change: try the point one ulp (or twice
        # the last failed reach) beside that end
        out = np.flatnonzero(~((x > lo) & (x < hi)))
        at_hi = x[out] >= hi[out]
        reach = np.maximum(2.0 * gap[out],
                           np.spacing(np.where(at_hi, hi[out], lo[out])))
        x[out] = np.where(at_hi, hi[out] - reach, lo[out] + reach)
        # the midpoint where that try leaves (lo, hi), where the last three
        # steps did not halve the bracket, and on a finished ray
        bisect = (width > 0.5 * w3) | done
        bisect[out] |= ~((x[out] > lo[out]) & (x[out] < hi[out]))
        x[bisect] = mid[bisect]
        w1, w2, w3 = width, w1, w2
        f_x = f(x, dx, dy, dzs)
        below = f_x <= 0.0
        # a try that moved its own end failed, and the next goes twice as
        # far (a gallop across a plateau of the computed f); one that moved
        # the other end leaves a bracket that only the midpoint closes
        tried = ~bisect[out]
        rows = out[tried]
        gap[rows] = np.where(below[rows] == at_hi[tried], reach[tried], np.inf)
        # Illinois: the same end moving twice in a row halves the retained
        # end's f (both are scaled; the moved end's is then replaced). f_lo
        # stops at the least positive float, so f_lo - f_hi stays > 0
        scale = np.where(below == hi_moved, 0.5, 1.0)
        hi_moved = below
        f_lo = np.where(below, np.maximum(f_lo * scale, _F_TINY), f_x)
        f_hi = np.where(below, f_x, f_hi * scale)
        hi = np.where(below | done, x, hi)
        lo = np.where(below & ~done, lo, x)
    t[idx] = 0.5 * (lo + hi)
    return t


def intersect_solid(origin: np.ndarray, dirs: np.ndarray,
                    solid: Union[VerticalCylinder, Ellipsoid]):
    """Dispatch to the per-type intersection of a trunk or canopy; (t,
    per-ray label). Boxes go through ``ray_boxes``."""
    if isinstance(solid, VerticalCylinder):
        t = ray_cylinder(origin, dirs, solid)
    elif isinstance(solid, Ellipsoid):
        t = ray_ellipsoid(origin, dirs, solid)
    else:
        raise TypeError(f"unsupported solid {type(solid).__name__}")
    return t, np.full(len(dirs), solid.label, dtype=np.int64)
