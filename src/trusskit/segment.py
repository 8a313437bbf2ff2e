"""Two-step analytical truss segmentation.

Stage one (coarse) fits a ground plane with RANSAC on a voxel-filtered copy
of the scan and splits the original points by plane distance. Stage two
(fine) region-grows planar clusters inside the coarse ground and promotes
the slender/short ones back to structure using eigenvalue tests. A radius
density filter finally demotes sparse structure points.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateCloudError, InvalidSpecError
from .geom import (
    EigenDecomp,
    LabeledCloud,
    extent_along,
    knn_table,
    normals_from_neighbors,
    pca_stats,
    voxel_downsample,
)

RATIO, MAGNITUDE, HYBRID = "ratio", "magnitude", "hybrid"
FULL, WITHOUT_FINE, WITHOUT_COARSE = "full", "without_fine", "without_coarse"

STRUCTURE, GROUND = "structure", "ground"

_MIN_GROUND_INLIER_FRACTION = 0.05

# latency_ms keys of run_pipeline, in stage order; skipped stages report 0.0
_STAGES = ("coarse", "normals", "region_growing", "density")


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the segmentation pipeline."""

    voxel_leaf: float = 0.1
    ransac_threshold: float = 0.5
    ransac_iterations: int = 1000
    ransac_seed: int = 0
    normal_k: int = 30
    rg_angle_threshold_deg: float = 5.0
    rg_curvature_threshold: float = 0.04
    rg_min_cluster: int = 10
    eigen_mode: str = HYBRID
    ratio_threshold: float = 0.3
    magnitude_threshold: float = 0.5
    density_radius: float = 0.25
    density_min_points: int = 10
    stage_mode: str = FULL

    def __post_init__(self):
        for name in ("voxel_leaf", "ransac_threshold", "magnitude_threshold",
                     "density_radius"):
            if getattr(self, name) <= 0:
                raise InvalidSpecError(f"{name} must be > 0")
        if self.ransac_iterations < 1:
            raise InvalidSpecError("ransac_iterations must be >= 1")
        if self.normal_k < 3:
            raise InvalidSpecError("normal_k must be >= 3")
        if not 0 < self.rg_angle_threshold_deg < 90:
            raise InvalidSpecError("angle threshold must be in (0, 90) degrees")
        if self.rg_curvature_threshold < 0:
            raise InvalidSpecError("curvature threshold must be >= 0")
        if self.rg_min_cluster < 1:
            raise InvalidSpecError("rg_min_cluster must be >= 1")
        if not 0 < self.ratio_threshold <= 1:
            raise InvalidSpecError("ratio_threshold must be in (0, 1]")
        if self.density_min_points < 0:
            raise InvalidSpecError("density_min_points must be >= 0")
        if self.eigen_mode not in (RATIO, MAGNITUDE, HYBRID):
            raise InvalidSpecError(f"unknown eigen mode {self.eigen_mode!r}")
        if self.stage_mode not in (FULL, WITHOUT_FINE, WITHOUT_COARSE):
            raise InvalidSpecError(f"unknown stage mode {self.stage_mode!r}")


@dataclass
class Plane:
    """n . p + d = 0 with unit normal n; distance(p) = |n . p + d|."""

    normal: np.ndarray
    d: float

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=np.float64).reshape(3)
        nrm = float(np.linalg.norm(self.normal))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit length")
        self.d = float(self.d)

    def distance(self, points: np.ndarray) -> np.ndarray:
        return np.abs(points @ self.normal + self.d)


@dataclass
class Cluster:
    """A grown region with its covariance eigen summary and verdict."""

    indices: np.ndarray
    stats: EigenDecomp
    ratio: float
    extent_along_v2: float
    verdict: Optional[str] = None


@dataclass
class CoarseSplit:
    plane: Optional[Plane]
    ground: np.ndarray
    structure: np.ndarray
    warning: Optional[str] = None


@dataclass
class SegmentationOutput:
    """Per-point verdict plus per-stage diagnostics of one pipeline run."""

    prediction: np.ndarray
    plane: Optional[Plane]
    coarse_ground: np.ndarray
    clusters: list
    density_removed: np.ndarray
    warnings: list = field(default_factory=list)
    latency_ms: dict = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return float(sum(self.latency_ms.values()))


def ransac_plane(points: np.ndarray, threshold: float, iterations: int,
                 seed: int):
    """Best plane through seeded 3-point hypotheses, scored by inlier count.

    Ties keep the first hypothesis found. Returns (Plane, inlier indices)
    where every inlier satisfies |n . p + d| <= threshold.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        raise DegenerateCloudError("plane fit needs at least 3 points")
    rng = np.random.default_rng(seed)
    samples = np.empty((iterations, 3), dtype=np.intp)
    for it in range(iterations):
        samples[it] = rng.choice(n, size=3, replace=False)
    p0, p1, p2 = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    if not valid.any():
        raise DegenerateCloudError("all sampled triples were collinear")
    normals[valid] /= norms[valid, None]
    ds = -np.einsum("ij,ij->i", normals, p0)

    # hypothesis scoring runs in float32 (memory-bandwidth bound); the final
    # inlier set is recomputed in float64 against the winning plane
    pts32 = pts.astype(np.float32)
    n32 = normals.astype(np.float32)
    d32 = ds.astype(np.float32)
    thr32 = np.float32(threshold)
    best_count = -1
    best_idx = -1
    chunk = 256
    for start in range(0, iterations, chunk):
        stop = min(start + chunk, iterations)
        dist = np.abs(pts32 @ n32[start:stop].T + d32[start:stop])
        counts = (dist <= thr32).sum(axis=0)
        counts[~valid[start:stop]] = -1
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
    return plane, inliers


def coarse_split(cloud: LabeledCloud, cfg: PipelineConfig) -> CoarseSplit:
    """Voxel filter + RANSAC on the filtered copy, then split the original
    points by absolute plane distance at the RANSAC threshold.

    Fails open: when the best hypothesis explains under 5% of the voxel
    cloud, no ground is subtracted and every point goes to structure.
    """
    if len(cloud) == 0:
        raise DegenerateCloudError("cannot split an empty cloud")
    voxel = voxel_downsample(cloud, cfg.voxel_leaf)
    plane, vox_inliers = ransac_plane(voxel.points, cfg.ransac_threshold,
                                      cfg.ransac_iterations, cfg.ransac_seed)
    if len(vox_inliers) < _MIN_GROUND_INLIER_FRACTION * len(voxel):
        return CoarseSplit(
            plane=None,
            ground=np.empty(0, dtype=np.intp),
            structure=np.arange(len(cloud), dtype=np.intp),
            warning=(f"GroundNotFound: best inlier fraction "
                     f"{len(vox_inliers) / len(voxel):.3f} < "
                     f"{_MIN_GROUND_INLIER_FRACTION}"),
        )
    near = plane.distance(cloud.points) <= cfg.ransac_threshold
    return CoarseSplit(plane=plane,
                       ground=np.flatnonzero(near),
                       structure=np.flatnonzero(~near))


def _wave_bfs(start: int, knn_idx: np.ndarray, normals: np.ndarray,
              cos_thr: float, expandable: np.ndarray,
              unvisited: np.ndarray) -> np.ndarray:
    """Grow one region; membership matches sequential seeded growth because
    a point joins iff any seed reaching it while unvisited passes the angle
    test, regardless of queue order."""
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
    return np.concatenate(member)


def region_grow(points: np.ndarray, subset: np.ndarray, normals: np.ndarray,
                curvatures: np.ndarray, cfg: PipelineConfig,
                knn_idx: np.ndarray) -> list[Cluster]:
    """Curvature-seeded region growing restricted to ``subset``.

    Seeds start at the lowest-curvature unvisited point; a neighbour joins
    when the angle between its normal and the current seed's normal is
    within the threshold, and becomes a seed itself when its curvature is
    at most the curvature threshold. Regions smaller than rg_min_cluster
    are dropped. ``normals``/``curvatures`` align with ``subset``; cluster
    indices refer to the original cloud. ``knn_idx`` is the neighbour table
    of the subset's points in subset-local indices, as built by
    ``geom.knn_table`` for the normals (``_normals_for`` returns it).
    """
    subset = np.asarray(subset, dtype=np.intp)
    m = len(subset)
    if m == 0:
        return []
    cos_thr = np.cos(np.deg2rad(cfg.rg_angle_threshold_deg))
    expandable = np.asarray(curvatures) <= cfg.rg_curvature_threshold
    unvisited = np.ones(m, dtype=bool)
    order = np.argsort(curvatures, kind="stable")

    clusters: list[Cluster] = []
    cursor = 0
    while cursor < m:
        while cursor < m and not unvisited[order[cursor]]:
            cursor += 1
        if cursor >= m:
            break
        start = int(order[cursor])
        members = _wave_bfs(start, knn_idx, normals, cos_thr, expandable,
                            unvisited)
        if len(members) >= cfg.rg_min_cluster:
            orig = subset[members]
            stats = pca_stats(points, orig)
            lam = stats.eigenvalues
            if lam[2] > 0:
                ratio = float(lam[1] / lam[2])
                extent = extent_along(points, orig, stats.eigenvectors[:, 2])
            else:
                ratio, extent = float("nan"), 0.0
            clusters.append(Cluster(np.sort(orig), stats, ratio, extent))
    return clusters


def classify_cluster(cluster: Cluster, cfg: PipelineConfig) -> str:
    """Structure/ground verdict from the cluster's eigen summary.

    ratio mode: lambda1/lambda2 <= ratio_threshold. magnitude mode: extent
    along the largest eigenvector <= magnitude_threshold. hybrid: both.
    A cluster with lambda2 = 0 has no surface extent and is ground.
    """
    if cluster.stats.eigenvalues[2] <= 0:
        return GROUND
    slender = cluster.ratio <= cfg.ratio_threshold
    short = cluster.extent_along_v2 <= cfg.magnitude_threshold
    if cfg.eigen_mode == RATIO:
        ok = slender
    elif cfg.eigen_mode == MAGNITUDE:
        ok = short
    else:
        ok = slender and short
    return STRUCTURE if ok else GROUND


def density_filter(points: np.ndarray, structure_mask: np.ndarray,
                   cfg: PipelineConfig) -> np.ndarray:
    """Demote structure points with too few neighbours inside the radius.

    A structure point stays when at least density_min_points points of the
    whole cloud (structure and ground, the point itself excluded) lie
    within density_radius, boundary inclusive. Never promotes ground.
    """
    mask = np.asarray(structure_mask, dtype=bool).copy()
    idx = np.flatnonzero(mask)
    if len(idx) == 0 or cfg.density_min_points == 0:
        return mask
    # "at least m neighbours within r (excluding self)" is equivalent to
    # "the (m+1)-th nearest indexed point (self included, distance 0) lies
    # within r" -- a pruned knn query instead of full neighbour enumeration
    k = cfg.density_min_points + 1
    if len(points) < k:
        mask[idx] = False
        return mask
    bound = np.nextafter(cfg.density_radius, np.inf)
    dist, _ = cKDTree(points).query(points[idx], k=k,
                                    distance_upper_bound=bound)
    sparse = ~(dist[:, -1] <= cfg.density_radius)
    mask[idx[sparse]] = False
    return mask


def _normals_for(points, subset, cfg, viewpoint=(0.0, 0.0, 0.0)):
    """Subset normals/curvature plus the subset-local knn table (reused by
    region growing)."""
    sub_pts = points[subset]
    knn_idx = knn_table(sub_pts, cfg.normal_k)
    normals, curv = normals_from_neighbors(sub_pts, knn_idx, viewpoint)
    return normals, curv, knn_idx


@contextmanager
def _timed(latency: dict, stage: str):
    """Record the wall time of the block as latency[stage] in ms."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        latency[stage] = (time.perf_counter() - t0) * 1e3


def run_pipeline(cloud: LabeledCloud, cfg: PipelineConfig) -> SegmentationOutput:
    """Run the configured pipeline variant on one scan.

    full: coarse split, then fine segmentation inside the coarse ground,
    then the density filter. without_fine: coarse split + density filter.
    without_coarse: fine segmentation over the whole cloud + density filter.
    """
    if len(cloud) == 0:
        raise DegenerateCloudError("cannot segment an empty cloud")
    n = len(cloud)
    pts = cloud.points
    latency = dict.fromkeys(_STAGES, 0.0)
    warnings: list[str] = []
    plane = None
    clusters: list[Cluster] = []
    mask = np.zeros(n, dtype=bool)

    if cfg.stage_mode in (FULL, WITHOUT_FINE):
        with _timed(latency, "coarse"):
            cs = coarse_split(cloud, cfg)
            plane = cs.plane
            coarse_ground = cs.ground
            if cs.warning:
                warnings.append(cs.warning)
            mask[cs.structure] = True
    else:
        coarse_ground = np.arange(n, dtype=np.intp)

    if cfg.stage_mode in (FULL, WITHOUT_COARSE) and len(coarse_ground) >= 3:
        with _timed(latency, "normals"):
            normals, curv, knn_idx = _normals_for(pts, coarse_ground, cfg)
        with _timed(latency, "region_growing"):
            clusters = region_grow(pts, coarse_ground, normals, curv, cfg,
                                   knn_idx=knn_idx)
            for c in clusters:
                c.verdict = classify_cluster(c, cfg)
                if c.verdict == STRUCTURE:
                    mask[c.indices] = True

    with _timed(latency, "density"):
        before = mask.copy()
        mask = density_filter(pts, mask, cfg)
    removed = np.flatnonzero(before & ~mask)

    return SegmentationOutput(
        prediction=mask,
        plane=plane,
        coarse_ground=coarse_ground,
        clusters=clusters,
        density_removed=removed,
        warnings=warnings,
        latency_ms=latency,
    )
