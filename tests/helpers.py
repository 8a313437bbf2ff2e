"""Independent oracle implementations shared by the test modules.

Everything here is deliberately naive (double loops, exhaustive scans,
characteristic polynomials) so the production code is checked against a
different route, not against itself.
"""

from collections import deque

import numpy as np


def brute_knn(points, query, k):
    """Indices of the k nearest points by exhaustive distance sort."""
    d = np.linalg.norm(points - np.asarray(query), axis=1)
    return np.argsort(d, kind="stable")[:k]


def brute_radius(points, query, r):
    """Indices within distance r (inclusive) by exhaustive scan."""
    d = np.linalg.norm(points - np.asarray(query), axis=1)
    return np.flatnonzero(d <= r)


def covariance_loop(points):
    """Direct double-loop accumulation of the (1/k) outer-product sum."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = np.zeros(3)
    for p in pts:
        centroid += p
    centroid /= len(pts)
    C = np.zeros((3, 3))
    for p in pts:
        d = p - centroid
        for i in range(3):
            for j in range(3):
                C[i, j] += d[i] * d[j]
    return centroid, C / len(pts)


def eigvals_via_roots(C):
    """Eigenvalues of a symmetric 3x3 matrix via its characteristic cubic
    (companion-matrix roots), sorted ascending."""
    c2 = -np.trace(C)
    c1 = 0.5 * (np.trace(C) ** 2 - np.trace(C @ C))
    c0 = -np.linalg.det(C)
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(roots.real)


def lattice(n_side, spacing):
    """Points of an n_side^3 grid: every point has many neighbours at
    exactly equal distances."""
    g = np.arange(n_side) * spacing
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def _neighbourhood_covariances(points, neighbor_idx):
    """Covariance stack of every (n, k) neighbourhood in one pass over the
    whole table, by the expression ``geom`` uses per block: three (n, k)
    coordinate columns, each row centred on its mean, and the six
    upper-triangle sums of products."""
    n, k = neighbor_idx.shape
    xs = [points[:, axis][neighbor_idx] for axis in range(3)]
    xs = [x - x.mean(axis=1, keepdims=True) for x in xs]
    cov = np.empty((n, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            cov[:, i, j] = cov[:, j, i] = np.einsum(
                "ij,ij->i", xs[i], xs[j]) / k
    return cov


def _oriented(points, lam, normals, viewpoint):
    """Unit normals flipped toward ``viewpoint``, and curvature."""
    normals = normals / np.maximum(
        np.linalg.norm(normals, axis=1, keepdims=True), 1e-300)
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - points) < 0
    normals[flip] *= -1.0
    total = lam.sum(axis=1)
    curvature = np.where(total > 0.0, np.maximum(lam[:, 0], 0.0)
                         / np.maximum(total, 1e-300), 0.0)
    return normals, np.clip(curvature, 0.0, 1.0 / 3.0)


def normals_eigh(points, neighbor_idx, viewpoint):
    """Normals and curvature with ``np.linalg.eigh`` as the eigensolver, the
    form ``geom.normals_from_neighbors`` had before its closed form. The
    covariance is built by the same expression as in ``geom``, so that on
    degenerate neighbourhoods, where eigh's smallest eigenvector is an
    arbitrary member of a plane, both see bit-equal matrices."""
    lam, V = np.linalg.eigh(_neighbourhood_covariances(points, neighbor_idx))
    return _oriented(points, lam, V[:, :, 0], viewpoint)


def normals_one_pass(points, neighbor_idx, viewpoint):
    """``geom.normals_from_neighbors`` as it was before it worked in row
    blocks on threads: one pass over the whole cloud through
    ``geom.eigh3_smallest``. The bit-identity reference of the blocked
    form."""
    from trusskit import geom

    lam, v0 = geom.eigh3_smallest(
        _neighbourhood_covariances(points, neighbor_idx))
    return _oriented(points, lam, v0, viewpoint)


def ray_triangle(origin, direction, v0, v1, v2):
    """Moller-Trumbore; returns t or inf."""
    e1, e2 = v1 - v0, v2 - v0
    h = np.cross(direction, e2)
    a = e1 @ h
    if abs(a) < 1e-14:
        return np.inf
    f = 1.0 / a
    s = origin - v0
    u = f * (s @ h)
    if u < -1e-12 or u > 1 + 1e-12:
        return np.inf
    q = np.cross(s, e1)
    v = f * (direction @ q)
    if v < -1e-12 or u + v > 1 + 1e-12:
        return np.inf
    t = f * (e2 @ q)
    return t if t > 0 else np.inf


def box_corners(box):
    """8 world-frame corners of an OrientedBox."""
    h = box.half_extents
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], dtype=float)
    return (signs * h) @ box.rotation.T + box.center


def ray_box_via_faces(origin, direction, box):
    """Independent box intersection: each face as two triangles."""
    c = box_corners(box)
    # corner index bit order: (x y z) signs -> idx = 4*(x>0) + 2*(y>0) + (z>0)
    faces = [
        (0, 1, 3, 2),   # -x
        (4, 6, 7, 5),   # +x
        (0, 4, 5, 1),   # -y
        (2, 3, 7, 6),   # +y
        (0, 2, 6, 4),   # -z
        (1, 5, 7, 3),   # +z
    ]
    best_t, best_face = np.inf, -1
    for fi, (a, b, d, e) in enumerate(faces):
        for tri in ((a, b, d), (a, d, e)):
            t = ray_triangle(origin, direction, c[tri[0]], c[tri[1]], c[tri[2]])
            if t < best_t:
                best_t, best_face = t, fi
    return best_t, best_face


def ray_cylinder_quadratic(origin, direction, cyl):
    """Independent solid-cylinder intersection via explicit candidates."""
    cands = []
    ox, oy = origin[0] - cyl.base[0], origin[1] - cyl.base[1]
    dx, dy, dz = direction
    a = dx * dx + dy * dy
    b = 2 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - cyl.radius ** 2
    if a > 1e-14:
        disc = b * b - 4 * a * c
        if disc >= 0:
            for s in (-1, 1):
                t = (-b + s * np.sqrt(disc)) / (2 * a)
                z = origin[2] + t * dz
                if t > 0 and cyl.base[2] <= z <= cyl.base[2] + cyl.height:
                    cands.append(t)
    if abs(dz) > 1e-14:
        for zc in (cyl.base[2], cyl.base[2] + cyl.height):
            t = (zc - origin[2]) / dz
            x = origin[0] + t * dx - cyl.base[0]
            y = origin[1] + t * dy - cyl.base[1]
            if t > 0 and x * x + y * y <= cyl.radius ** 2:
                cands.append(t)
    return min(cands) if cands else np.inf


def ray_ellipsoid_quadratic(origin, direction, ell):
    q0 = (origin - ell.center) / ell.radii
    qd = direction / ell.radii
    a = qd @ qd
    b = 2 * (q0 @ qd)
    c = q0 @ q0 - 1.0
    disc = b * b - 4 * a * c
    if disc < 0:
        return np.inf
    t0 = (-b - np.sqrt(disc)) / (2 * a)
    t1 = (-b + np.sqrt(disc)) / (2 * a)
    if t0 > 0:
        return t0
    return t1 if t1 > 0 else np.inf


def ray_ground_fine_march(origin, direction, ground, t_max, step=0.002):
    """Independent heightfield intersection: uniform fine march + bisection."""
    if origin[2] > ground.amplitude and direction[2] >= 0:
        return np.inf
    f = lambda t: (origin[2] + t * direction[2]
                   - ground.height(origin[0] + t * direction[0],
                                   origin[1] + t * direction[1]))
    if f(0.0) <= 0:
        return 0.0
    # the last sample is t_max itself: a crossing inside the final partial
    # step (say just before a solid hit that caps t_max) is not skipped
    ts = np.append(np.arange(step, t_max, step), t_max)
    below = np.flatnonzero(f(ts) <= 0)
    if len(below) == 0:
        return np.inf
    i = below[0]
    lo, hi = (ts[i - 1] if i else 0.0), ts[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ray_ground_stepwise(origin, dirs, ground, t_upper, step=None,
                        brackets=False):
    """Reference for ``primitives.ray_ground``: an earlier form, the oracle
    of its march and of the float32 scans. It evaluates f at every point of
    the march grid min(lo + j step, end), re-gathers ``dirs[mask]`` on
    every surface evaluation, re-concatenates the brackets on every march
    step and always runs all 80 bisection halvings.

    First crossing of the ground surface along each ray, below t_upper.

    amplitude 0 is solved exactly against the plane z = 0. Otherwise the
    surface is bracketed by marching within the |z| <= amplitude band and
    refined by bisection to sub-nanometre residuals. ``ray_ground`` makes
    the same march steps and the same hits; its float64 root may sit on
    another sign change of the computed surface inside the same step, and a
    float32 scan rounds both roots to the same points.

    With ``brackets=True`` it returns (t, lo, hi): each hit's march step
    [lo, hi], which holds its root, and NaN for a miss or an immediate
    contact (t = its start).
    """
    from trusskit.primitives import _EPS

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
    start = lo[idx]
    end = hi[idx]
    # origin below the surface inside the band: treat as immediate contact
    immediate = f(start, idx) <= 0.0
    t[idx[immediate]] = start[immediate]
    alive = ~immediate
    idx, cur, start, end = idx[alive], start[alive], start[alive], end[alive]

    # every point of the grid min(start + j step, end), j = 1, 2, ...
    bracket_lo = np.empty(0)
    bracket_hi = np.empty(0)
    bracket_idx = np.empty(0, dtype=np.intp)
    j = 0
    while len(idx):
        j += 1
        nxt = np.minimum(start + j * step, end)
        crossed = f(nxt, idx) <= 0.0
        if crossed.any():
            bracket_lo = np.concatenate([bracket_lo, cur[crossed]])
            bracket_hi = np.concatenate([bracket_hi, nxt[crossed]])
            bracket_idx = np.concatenate([bracket_idx, idx[crossed]])
        alive = ~crossed & (nxt < end)
        idx, cur, start, end = idx[alive], nxt[alive], start[alive], end[alive]

    if len(bracket_idx):
        lo_b, hi_b = bracket_lo, bracket_hi
        for _ in range(80):
            mid = 0.5 * (lo_b + hi_b)
            below = f(mid, bracket_idx) <= 0.0
            hi_b = np.where(below, mid, hi_b)
            lo_b = np.where(below, lo_b, mid)
        t[bracket_idx] = 0.5 * (lo_b + hi_b)
    if brackets:
        step_lo, step_hi = np.full(len(dirs), np.nan), np.full(len(dirs), np.nan)
        step_lo[bracket_idx], step_hi[bracket_idx] = bracket_lo, bracket_hi
        return t, step_lo, step_hi
    return t


def ray_box_slab(origin, dirs, box):
    """Reference for the slab test of ``primitives.ray_boxes``: the earlier
    one-box ``ray_box``, kept verbatim as a bit-identity gate. It resolves
    the axis and face of every ray, hit or miss."""
    from trusskit.primitives import _EPS

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
    plus_side = np.where(inside, d_axis > 0.0, d_axis < 0.0)
    face = 2 * axis + plus_side.astype(np.int64)
    t = np.where(hit, t, np.inf)
    return t, face


def candidate_rays_cap(center_s, radius, els, azs):
    """Reference broad phase: grid rays whose direction can meet a bounding
    sphere (conservative spherical-cap bound); None means all rays."""
    dist = float(np.linalg.norm(center_s))
    if dist <= radius:
        return None
    half = np.arcsin(min(1.0, radius / dist)) + 1e-9
    el_c = np.arcsin(np.clip(center_s[2] / dist, -1.0, 1.0))
    lo, hi = el_c - half, el_c + half
    i0 = int(np.searchsorted(els, lo - 1e-12, side="left"))
    i1 = int(np.searchsorted(els, hi + 1e-12, side="right")) - 1
    if i1 < i0:
        return np.empty(0, dtype=np.intp)
    rows = np.arange(i0, i1 + 1)

    h = len(azs)
    if abs(el_c) + half >= np.pi / 2 - 1e-9:
        cols = np.arange(h)
    else:
        az_c = np.arctan2(center_s[1], center_s[0])
        d_az = np.arcsin(min(1.0, np.sin(half) / np.cos(el_c))) + 1e-9
        diff = (azs - az_c + np.pi) % (2 * np.pi) - np.pi
        cols = np.flatnonzero(np.abs(diff) <= d_az)
        if len(cols) == 0:
            return np.empty(0, dtype=np.intp)
    return (rows[:, None] * h + cols[None, :]).ravel()


def raycast_scan_per_solid(scene, pose, cfg, seed=0, ground_root=None):
    """Reference for ``synth.raycast_scan``: its earlier form, kept verbatim
    as a bit-identity gate. It culls and intersects one solid at a time, in
    scene order, with ``ray_box_slab`` for boxes. ``ground_root`` replaces
    ``primitives.ray_ground`` as the ground intersection (same signature)."""
    from trusskit.geom import LabeledCloud
    from trusskit.primitives import (
        OrientedBox,
        intersect_solid,
        ray_ground,
    )
    from trusskit.synth import ray_grid

    dirs_s, els, azs = ray_grid(cfg)
    R = pose.rotation_matrix()
    origin = np.asarray(pose.translation, dtype=np.float64)
    dirs_w = dirs_s @ R.T
    n = len(dirs_s)

    def intersect(dirs, solid):
        if isinstance(solid, OrientedBox):
            t, face = ray_box_slab(origin, dirs, solid)
            return t, solid.face_labels[face]
        return intersect_solid(origin, dirs, solid)

    t_best = np.full(n, np.inf)
    label_best = np.zeros(n, dtype=np.int64)
    for solid in scene.solids:
        center_s = R.T @ (solid.center - origin)
        r = solid.bounding_radius
        if np.linalg.norm(center_s) - r > cfg.max_range:
            continue
        idx = candidate_rays_cap(center_s, r, els, azs)
        if idx is None:
            t, labels = intersect(dirs_w, solid)
            better = t < t_best
            t_best[better] = t[better]
            label_best[better] = labels[better]
        elif len(idx):
            t, labels = intersect(dirs_w[idx], solid)
            better = t < t_best[idx]
            upd = idx[better]
            t_best[upd] = t[better]
            label_best[upd] = labels[better]

    if scene.ground is not None:
        t_upper = np.minimum(t_best, cfg.max_range + 1.0)
        tg = (ground_root or ray_ground)(origin, dirs_w, scene.ground, t_upper)
        better = tg < t_best
        t_best[better] = tg[better]
        label_best[better] = 0

    hit = np.isfinite(t_best) & (t_best >= cfg.min_range) & (t_best <= cfg.max_range)
    ranges = t_best[hit]
    if cfg.noise_sigma > 0.0:
        rng = np.random.Generator(np.random.Philox(seed))
        noise = rng.normal(0.0, cfg.noise_sigma, size=n)
        ranges = ranges + noise[hit]
    points = dirs_s[hit] * ranges[:, None]
    return LabeledCloud(points, label_best[hit], sensor_pose=pose)


def exhaustive_scene_hit(scene, origin, direction, t_max):
    """Minimum-distance hit over every primitive, naive per-type math."""
    from trusskit.primitives import Ellipsoid, OrientedBox, VerticalCylinder

    best_t, best_label = np.inf, 0
    for solid in scene.solids:
        if isinstance(solid, OrientedBox):
            t, face = ray_box_via_faces(origin, direction, solid)
            label = solid.face_labels[face] if np.isfinite(t) else 0
        elif isinstance(solid, VerticalCylinder):
            t, label = ray_cylinder_quadratic(origin, direction, solid), solid.label
        elif isinstance(solid, Ellipsoid):
            t, label = ray_ellipsoid_quadratic(origin, direction, solid), solid.label
        else:
            raise TypeError(type(solid))
        if t < best_t:
            best_t, best_label = t, label
    if scene.ground is not None:
        # solids already bound the hit; marching past them cannot win
        cap = min(t_max, best_t + 1e-6) if np.isfinite(best_t) else t_max
        t = ray_ground_fine_march(origin, direction, scene.ground, cap)
        if t < best_t:
            best_t, best_label = t, 0
    return best_t, best_label


def surface_residual(scene, point_world):
    """Distance from a point to the nearest primitive surface (small scenes)."""
    from trusskit.primitives import Ellipsoid, OrientedBox, VerticalCylinder

    best = np.inf
    p = np.asarray(point_world)
    for solid in scene.solids:
        if isinstance(solid, OrientedBox):
            local = solid.rotation.T @ (p - solid.center)
            gap = np.abs(np.abs(local) - solid.half_extents)
            inside = (np.abs(local) <= solid.half_extents + 1e-6).all()
            if inside:
                best = min(best, gap.min())
        elif isinstance(solid, VerticalCylinder):
            r = np.hypot(p[0] - solid.base[0], p[1] - solid.base[1])
            z0, z1 = solid.base[2], solid.base[2] + solid.height
            if z0 - 1e-6 <= p[2] <= z1 + 1e-6 and r <= solid.radius + 1e-6:
                best = min(best, abs(r - solid.radius), abs(p[2] - z0),
                           abs(p[2] - z1))
        elif isinstance(solid, Ellipsoid):
            q = np.linalg.norm((p - solid.center) / solid.radii)
            # scaled-space residual bound (exact enough for tiny residuals)
            best = min(best, abs(q - 1.0) * solid.radii.min())
    if scene.ground is not None:
        best = min(best, abs(p[2] - float(scene.ground.height(p[0], p[1]))))
    return best


def region_grow_sequential(normals, curvatures, knn_idx, cos_thr,
                           curvature_threshold, min_size):
    """PCL-style region growing (Rabbani et al. 2006), one point at a time.

    Seeds are taken in ascending curvature (stable order). Each region
    grows from a FIFO queue: the point at the front is expanded, and each
    of its unlabelled k-NN neighbours joins when the dot product of the two
    normals is at least cos_thr, and is queued when its own curvature is at
    most curvature_threshold. Regions under min_size points are dropped but
    their points stay labelled. Returns the regions' sorted local indices
    in seed order.
    """
    m = len(curvatures)
    order = sorted(range(m), key=lambda i: curvatures[i])
    labelled = [False] * m
    regions = []
    for seed in order:
        if labelled[seed]:
            continue
        labelled[seed] = True
        region = [seed]
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            a = normals[cur]
            for nb in knn_idx[cur].tolist():
                if labelled[nb]:
                    continue
                b = normals[nb]
                if a[0] * b[0] + a[1] * b[1] + a[2] * b[2] < cos_thr:
                    continue
                labelled[nb] = True
                region.append(nb)
                if curvatures[nb] <= curvature_threshold:
                    queue.append(nb)
        if len(region) >= min_size:
            regions.append(sorted(region))
    return regions


def region_grow_waves(points, subset, normals, curvatures, cfg, knn_idx):
    """The wave-per-seed region grower that ``segment.region_grow``
    replaced, kept as its bit-identity reference.

    Every seed runs a breadth-first wave that gathers its frontier's
    neighbours, angle-tests each (neighbour, source) pair with ``einsum``
    and dedupes the level with ``np.unique``; every kept region gets its
    own ``geom.pca_stats`` call on its points in member order (seed first,
    then each level sorted). Returns ``segment.Cluster`` objects.
    """
    from trusskit import geom, segment

    subset = np.asarray(subset, dtype=np.intp)
    m = len(subset)
    if m == 0:
        return []
    cos_thr = np.cos(np.deg2rad(cfg.rg_angle_threshold_deg))
    expandable = np.asarray(curvatures) <= cfg.rg_curvature_threshold
    unvisited = np.ones(m, dtype=bool)
    order = np.argsort(curvatures, kind="stable")

    clusters = []
    cursor = 0
    while cursor < m:
        while cursor < m and not unvisited[order[cursor]]:
            cursor += 1
        if cursor >= m:
            break
        start = int(order[cursor])
        member = [np.array([start], dtype=np.intp)]
        unvisited[start] = False
        frontier = member[0]
        while len(frontier):
            nb = knn_idx[frontier].ravel()
            src = np.repeat(frontier, knn_idx.shape[1])
            keep = unvisited[nb]
            nb, src = nb[keep], src[keep]
            if len(nb) == 0:
                break
            dots = np.einsum("ij,ij->i", normals[nb], normals[src])
            nb = nb[dots >= cos_thr]
            if len(nb) == 0:
                break
            nb = np.unique(nb)
            unvisited[nb] = False
            member.append(nb)
            frontier = nb[expandable[nb]]
        members = np.concatenate(member)
        if len(members) >= cfg.rg_min_cluster:
            orig = subset[members]
            stats = geom.pca_stats(points, orig)
            lam = stats.eigenvalues
            if lam[2] > 0:
                ratio = float(lam[1] / lam[2])
                extent = geom.extent_along(points, orig,
                                           stats.eigenvectors[:, 2])
            else:
                ratio, extent = float("nan"), 0.0
            clusters.append(segment.Cluster(np.sort(orig), stats, ratio,
                                            extent))
    return clusters


def ransac_triples_loop(n, iterations, seed, uint32s=False):
    """The RANSAC triples as ``segment.ransac_plane`` drew them before it
    drew them in one pass: one ``rng.choice(n, 3, replace=False)`` per
    iteration. With ``uint32s``, also the number of uint32 draws the loop
    took from the PCG64 stream, found by advancing a fresh generator one
    raw word (two uint32s) at a time to the loop's final state."""
    rng = np.random.default_rng(seed)
    samples = np.empty((iterations, 3), dtype=np.intp)
    for it in range(iterations):
        samples[it] = rng.choice(n, size=3, replace=False)
    if not uint32s:
        return samples
    end = rng.bit_generator.state
    fresh = np.random.PCG64(seed)
    words = 0
    while fresh.state["state"] != end["state"]:
        fresh.advance(1)
        words += 1
    return samples, 2 * words - end["has_uint32"]


def ransac_plane_reference(points, threshold, iterations, seed):
    """The hypothesis scoring ``segment.ransac_plane`` had before it scored
    in cache-sized blocks: one (n, 256) distance chunk per 256 hypotheses
    over every point, the best count carried across chunks with ``>``.

    Returns (plane, inliers, counts, best_idx): ``counts`` holds every
    hypothesis's inlier count, -1 for a collinear sample.
    """
    from trusskit.errors import DegenerateCloudError
    from trusskit.segment import Plane

    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        raise DegenerateCloudError("plane fit needs at least 3 points")
    samples = ransac_triples_loop(n, iterations, seed)
    p0, p1, p2 = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    if not valid.any():
        raise DegenerateCloudError("all sampled triples were collinear")
    normals[valid] /= norms[valid, None]
    ds = -np.einsum("ij,ij->i", normals, p0)

    pts32 = pts.astype(np.float32)
    n32 = normals.astype(np.float32)
    d32 = ds.astype(np.float32)
    thr32 = np.float32(threshold)
    all_counts = np.empty(iterations, dtype=np.intp)
    best_count = -1
    best_idx = -1
    chunk = 256
    for start in range(0, iterations, chunk):
        stop = min(start + chunk, iterations)
        dist = np.abs(pts32 @ n32[start:stop].T + d32[start:stop])
        counts = (dist <= thr32).sum(axis=0)
        counts[~valid[start:stop]] = -1
        all_counts[start:stop] = counts
        local = int(np.argmax(counts))
        if counts[local] > best_count:
            best_count = int(counts[local])
            best_idx = start + local
    normal, d = normals[best_idx], float(ds[best_idx])
    if normal[2] < 0 or (normal[2] == 0 and (normal[1] < 0 or
                                             (normal[1] == 0 and normal[0] < 0))):
        normal, d = -normal, -d
    plane = Plane(normal, d)
    inliers = np.flatnonzero(plane.distance(pts) <= threshold)
    return plane, inliers, all_counts, best_idx


def build_truss_five_loops(spec):
    """The bars ``synth.build_truss`` built with one triple loop per bar
    axis and one per diagonal panel face: (center, half extents, rotation,
    face labels) of each bar, in emission order."""
    nx, ny, nz = spec.node_counts
    L, w = spec.bar_length, spec.bar_width
    bars = []

    def axis_half(axis):
        h = np.full(3, w / 2.0)
        h[axis] = L / 2.0
        return h

    for ix in range(nx - 1):
        for iy in range(ny):
            for iz in range(nz):
                c = np.array([(ix + 0.5) * L, iy * L, iz * L])
                bars.append((c, axis_half(0), np.eye(3)))
    for ix in range(nx):
        for iy in range(ny - 1):
            for iz in range(nz):
                c = np.array([ix * L, (iy + 0.5) * L, iz * L])
                bars.append((c, axis_half(1), np.eye(3)))
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz - 1):
                c = np.array([ix * L, iy * L, (iz + 0.5) * L])
                bars.append((c, axis_half(2), np.eye(3)))

    if spec.crossed:
        diag_half = np.array([L * np.sqrt(2.0) / 2.0, w / 2.0, w / 2.0])

        def diag_box(p0, p1, panel_normal):
            u = (p1 - p0) / np.linalg.norm(p1 - p0)
            v = np.asarray(panel_normal, dtype=np.float64)
            rot = np.column_stack([u, v, np.cross(u, v)])
            return ((p0 + p1) / 2.0, diag_half, rot)

        for iy in (0, ny - 1):                       # y-min/max faces
            for ix in range(nx - 1):
                for iz in range(nz - 1):
                    y = iy * L
                    a = np.array([ix * L, y, iz * L])
                    b = np.array([(ix + 1) * L, y, (iz + 1) * L])
                    if (ix + iz) % 2:
                        a, b = np.array([ix * L, y, (iz + 1) * L]), \
                            np.array([(ix + 1) * L, y, iz * L])
                    bars.append(diag_box(a, b, (0.0, 1.0, 0.0)))
        for ix in (0, nx - 1):                       # x-min/max faces
            for iy in range(ny - 1):
                for iz in range(nz - 1):
                    x = ix * L
                    a = np.array([x, iy * L, iz * L])
                    b = np.array([x, (iy + 1) * L, (iz + 1) * L])
                    if (iy + iz) % 2:
                        a, b = np.array([x, iy * L, (iz + 1) * L]), \
                            np.array([x, (iy + 1) * L, iz * L])
                    bars.append(diag_box(a, b, (1.0, 0.0, 0.0)))

    out = []
    for b, (center, half, rot) in enumerate(bars):
        if spec.label_mode == "per_bar":
            labels = np.full(6, b + 1, dtype=np.int64)
        else:
            labels = np.arange(6 * b + 1, 6 * b + 7, dtype=np.int64)
        out.append((center, half, rot, labels))
    return out


def parse_pcd_header_reference(text):
    """Reference for ``io._parse_header``: its earlier form, kept verbatim
    as an identity gate apart from refusing an empty VERSION line (it
    raised IndexError). It splits the whole header window into lines,
    binary body included."""
    from trusskit.errors import MalformedHeaderError
    from trusskit.io import _DTYPES, PcdHeader

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
    version = entries.get("VERSION", [".7"])
    if not version:
        raise MalformedHeaderError("VERSION line is empty")
    return PcdHeader(names, sizes, types, counts, width, height, viewpoint,
                     points, data, version[0]), offset


def ascii_pcd(blob):
    """The ascii form of the binary PCD ``blob``: its header, ``DATA
    ascii``, then one line per point, floats as ``%.9g`` and integers as
    ``%d`` (trusskit writes binary only; the reader takes both)."""
    header, offset = parse_pcd_header_reference(blob.decode("latin-1"))
    kinds = {"F": "f", "U": "u", "I": "i"}
    dtype = np.dtype([(f, f"<{kinds[t]}{s}") for f, t, s in
                      zip(header.fields, header.types, header.sizes)])
    rec = np.frombuffer(blob, dtype, count=header.points, offset=offset)
    forms = ["%.9g" if t == "F" else "%d" for t in header.types]
    body = "".join(" ".join(f % v for f, v in zip(forms, row)) + "\n"
                   for row in rec.tolist())
    head = blob[:offset].decode("ascii").replace("DATA binary", "DATA ascii")
    return (head + body).encode("ascii")
