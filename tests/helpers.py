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
                   - float(ground.height(origin[0] + t * direction[0],
                                         origin[1] + t * direction[1])))
    if f(0.0) <= 0:
        return 0.0
    t_prev = 0.0
    # the last sample is t_max itself: a crossing inside the final partial
    # step (say just before a solid hit that caps t_max) is not skipped
    for t in np.append(np.arange(step, t_max, step), t_max).tolist():
        if f(t) <= 0:
            lo, hi = t_prev, t
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        t_prev = t
    return np.inf


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
