"""Core point-cloud geometry.

Points are plain ``(n, 3)`` float64 numpy arrays throughout the package.
This module provides the labeled-cloud container, an exact k-nearest-neighbour
table, PCA-based normal/curvature estimation, voxel-grid downsampling and
small projection helpers used by the segmentation stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptySubsetError,
    NonFiniteError,
    NonPositiveLeafError,
    NonUnitDirectionError,
    NotSymmetricError,
    TooFewPointsError,
)

MAX_CURVATURE = 1.0 / 3.0


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) point array, got shape {pts.shape}")
    return pts


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion stored as (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (Shoemake's subgroup method), as (w, x, y, z)."""
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    return np.array([
        b * np.cos(2 * np.pi * u3),
        a * np.sin(2 * np.pi * u2),
        a * np.cos(2 * np.pi * u2),
        b * np.sin(2 * np.pi * u3),
    ])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (unit quaternion, wxyz) then translation."""

    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    quaternion: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        t = tuple(float(v) for v in self.translation)
        q = tuple(float(v) for v in self.quaternion)
        if len(t) != 3 or len(q) != 4:
            raise ValueError("pose needs a 3-vector translation and wxyz quaternion")
        if not all(np.isfinite(t)) or not all(np.isfinite(q)):
            raise NonFiniteError("pose components must be finite")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {norm:.9f} is not 1 within 1e-6")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "quaternion", q)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(np.asarray(self.quaternion))

    def viewpoint_tuple(self) -> tuple[float, ...]:
        """(tx, ty, tz, qw, qx, qy, qz) as stored in PCD headers."""
        return self.translation + self.quaternion


@dataclass
class LabeledCloud:
    """Points in the sensor frame with per-point ground-truth face labels.

    Label 0 marks background (ground, distractors); labels >= 1 identify
    structure faces or bars. Optional per-point normals and curvature are
    carried when they have been estimated.
    """

    points: np.ndarray
    face_label: Optional[np.ndarray] = None
    sensor_pose: Pose = field(default_factory=Pose)
    normals: Optional[np.ndarray] = None
    curvature: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = _as_points(self.points) if np.size(self.points) else np.zeros((0, 3))
        n = len(self.points)
        if not np.isfinite(self.points).all():
            raise NonFiniteError("cloud contains NaN/inf coordinates")
        if self.face_label is None:
            self.face_label = np.zeros(n, dtype=np.int64)
        else:
            self.face_label = np.asarray(self.face_label, dtype=np.int64).reshape(-1)
            if len(self.face_label) != n:
                raise ValueError("face_label length differs from point count")
            if n and self.face_label.min() < 0:
                raise ValueError("face labels must be non-negative")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64)
            if self.normals.shape != (n, 3):
                raise ValueError("normals shape differs from point count")
            norms = np.linalg.norm(self.normals, axis=1)
            if n and np.abs(norms - 1.0).max() > 1e-6:
                raise ValueError("normals must be unit length within 1e-6")
        if self.curvature is not None:
            self.curvature = np.asarray(self.curvature, dtype=np.float64).reshape(-1)
            if len(self.curvature) != n:
                raise ValueError("curvature length differs from point count")
            if n and (self.curvature.min() < -1e-12 or
                      self.curvature.max() > MAX_CURVATURE + 1e-12):
                raise ValueError("curvature must lie in [0, 1/3]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def truss_mask(self) -> np.ndarray:
        """Boolean per point: True where the ground-truth label is structure."""
        return self.face_label > 0


@dataclass
class EigenDecomp:
    """Sorted eigen-decomposition of a neighbourhood covariance.

    eigenvalues are ascending and clamped non-negative; eigenvector j is
    column j of ``eigenvectors``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    centroid: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64).reshape(3)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64).reshape(3, 3)
        self.centroid = np.asarray(self.centroid, dtype=np.float64).reshape(3)
        lam = self.eigenvalues
        if lam[0] > lam[1] + 1e-12 or lam[1] > lam[2] + 1e-12:
            raise ValueError("eigenvalues must be sorted ascending")
        if lam[0] < -1e-9:
            raise ValueError("covariance eigenvalues must be non-negative")
        self.eigenvalues = np.maximum(lam, 0.0)
        V = self.eigenvectors
        gram = V.T @ V
        if np.abs(gram - np.eye(3)).max() > 1e-6:
            raise ValueError("eigenvectors must be orthonormal within 1e-6")

    @property
    def curvature(self) -> float:
        """Surface variation: smallest eigenvalue over the eigenvalue sum."""
        s = float(self.eigenvalues.sum())
        return float(self.eigenvalues[0] / s) if s > 0.0 else 0.0


def covariance(points, subset=None):
    """Centroid and covariance C = (1/k) * sum (p - mean)(p - mean)^T.

    Args:
        points: (n, 3) array.
        subset: optional index array restricting the computation.

    Returns:
        (centroid (3,), C (3, 3)) with C exactly symmetric.
    """
    pts = _as_points(points)
    if subset is not None:
        pts = pts[np.asarray(subset, dtype=np.intp)]
    if len(pts) == 0:
        raise EmptySubsetError("covariance of an empty subset")
    centroid = pts.mean(axis=0)
    X = pts - centroid
    C = (X.T @ X) / len(pts)
    C = (C + C.T) / 2.0
    return centroid, C


def eigen_sym3(C: np.ndarray, centroid=(0.0, 0.0, 0.0)) -> EigenDecomp:
    """Eigen-decomposition of a symmetric 3x3 matrix, ascending eigenvalues.

    Tiny negative round-off eigenvalues are clamped to zero. Raises
    NotSymmetricError when ``|C - C.T|`` exceeds 1e-9.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {C.shape}")
    if np.abs(C - C.T).max() > 1e-9:
        raise NotSymmetricError("matrix is not symmetric within 1e-9")
    lam, V = np.linalg.eigh((C + C.T) / 2.0)
    lam = np.where((lam < 0.0) & (lam >= -1e-9), 0.0, lam)
    return EigenDecomp(lam, V, np.asarray(centroid, dtype=np.float64))


def pca_stats(points, subset=None) -> EigenDecomp:
    """Covariance eigen-analysis of a point subset (centroid carried along)."""
    centroid, C = covariance(points, subset)
    return eigen_sym3(C, centroid)


def _batched_pca(points: np.ndarray, neighbor_idx: np.ndarray):
    """Eigenvalues/vectors of per-row neighbourhood covariances.

    neighbor_idx is (n, k); returns (lam (n, 3) ascending, V (n, 3, 3)).
    """
    neigh = points[neighbor_idx]                      # (n, k, 3)
    mu = neigh.mean(axis=1, keepdims=True)
    X = neigh - mu
    cov = np.einsum("nki,nkj->nij", X, X) / neighbor_idx.shape[1]
    lam, V = np.linalg.eigh(cov)
    return lam, V


def knn_table(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each point's k nearest points, nearest first, from
    an exact kd-tree query. A point is its own first neighbour; k is capped
    at n."""
    k = min(k, len(points))
    _, idx = cKDTree(points).query(points, k=k)
    return idx.reshape(len(points), k)


def normals_from_neighbors(points: np.ndarray, neighbor_idx: np.ndarray,
                           viewpoint) -> tuple[np.ndarray, np.ndarray]:
    """Normals and curvature given precomputed neighbour indices.

    The smallest-eigenvalue eigenvector of each neighbourhood covariance is
    the normal, flipped to point toward ``viewpoint``. Curvature is
    lambda0 / (lambda0 + lambda1 + lambda2), defined as 0 for an all-zero
    covariance, and always lies in [0, 1/3].
    """
    lam, V = _batched_pca(points, neighbor_idx)
    normals = V[:, :, 0]
    nrm = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.maximum(nrm, 1e-300)
    to_view = np.asarray(viewpoint, dtype=np.float64) - points
    flip = np.einsum("ij,ij->i", normals, to_view) < 0.0
    normals[flip] *= -1.0
    lam0 = np.maximum(lam[:, 0], 0.0)
    total = lam.sum(axis=1)
    curvature = np.where(total > 0.0, lam0 / np.maximum(total, 1e-300), 0.0)
    curvature = np.clip(curvature, 0.0, MAX_CURVATURE)
    return normals, curvature


def estimate_normals(cloud: LabeledCloud, k: int = 30,
                     viewpoint=(0.0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Per-point PCA normals and curvature from k-nearest neighbourhoods.

    Args:
        cloud: input cloud (at least k points).
        k: neighbourhood size, >= 3; the query point counts as a neighbour.
        viewpoint: normals are sign-flipped to face this position. Scans are
            stored in the sensor frame, so the default (origin) orients
            normals toward the sensor.

    Returns:
        (normals (n, 3) unit, curvature (n,) in [0, 1/3]).
    """
    if k < 3:
        raise TooFewPointsError(f"k={k} must be at least 3")
    if len(cloud) < k:
        raise TooFewPointsError(f"cloud has {len(cloud)} points, needs >= {k}")
    return normals_from_neighbors(cloud.points, knn_table(cloud.points, k),
                                  viewpoint)


def voxel_downsample(cloud: LabeledCloud, leaf: float) -> LabeledCloud:
    """Grid filter: one centroid point per occupied voxel of edge ``leaf``.

    The voxel of a point is floor(coord / leaf) per axis. The output label is
    the majority face label of the voxel, ties resolved toward the lowest
    label. Output points are ordered by voxel key; normals/curvature are
    dropped (they no longer describe the averaged points).
    """
    if not leaf > 0.0:
        raise NonPositiveLeafError(f"leaf={leaf} must be > 0")
    n = len(cloud)
    if n == 0:
        return LabeledCloud(np.zeros((0, 3)), sensor_pose=cloud.sensor_pose)
    keys = np.floor(cloud.points / leaf).astype(np.int64)
    # pack the three axis indices into one sortable integer key
    mins = keys.min(axis=0)
    keys -= mins
    spans = keys.max(axis=0).astype(np.int64) + 1
    flat = (keys[:, 0] * spans[1] + keys[:, 1]) * spans[2] + keys[:, 2]
    uniq, inv = np.unique(flat, return_inverse=True)
    m = len(uniq)
    counts = np.bincount(inv, minlength=m).astype(np.float64)
    centroids = np.empty((m, 3))
    for d in range(3):
        centroids[:, d] = np.bincount(inv, weights=cloud.points[:, d], minlength=m)
    centroids /= counts[:, None]

    labels = cloud.face_label
    pair = inv * (labels.max() + 1) + labels
    pair_uniq, pair_count = np.unique(pair, return_counts=True)
    pair_voxel = pair_uniq // (labels.max() + 1)
    pair_label = pair_uniq % (labels.max() + 1)
    # majority label per voxel; np.unique returns pairs sorted by (voxel,
    # label), so a stable sort on -count keeps the lowest label among ties
    order = np.lexsort((pair_label, -pair_count, pair_voxel))
    _, first = np.unique(pair_voxel[order], return_index=True)
    out_labels = pair_label[order][first]
    return LabeledCloud(centroids, out_labels, sensor_pose=cloud.sensor_pose)


def extent_along(points, subset, direction) -> float:
    """Spread of a point subset along a unit direction: max(p.d) - min(p.d)."""
    pts = _as_points(points)
    d = np.asarray(direction, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(d) - 1.0) > 1e-6:
        raise NonUnitDirectionError("direction must be unit length within 1e-6")
    sel = pts[np.asarray(subset, dtype=np.intp)] if subset is not None else pts
    if len(sel) == 0:
        raise EmptySubsetError("extent of an empty subset")
    proj = sel @ d
    return float(proj.max() - proj.min())
