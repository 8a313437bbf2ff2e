"""Two-step analytical truss segmentation.

Stage one (coarse) fits a ground plane with RANSAC on a voxel-filtered copy
of the scan and splits the original points by plane distance. Stage two
(fine) region-grows planar clusters inside the coarse ground and promotes
the slender/short ones back to structure using eigenvalue tests. A radius
density filter finally demotes sparse structure points. Every stage takes
the scan's ``(n, 3)`` coordinates: ``run_pipeline`` reads them from its
``LabeledCloud`` once, so no stage can see truth labels or the sensor pose.

RANSAC scores its hypotheses in cache-sized blocks of voxels and
hypotheses. The density filter marks every point of a grid cell that holds
more than density_min_points points as dense and queries the kd-tree only
for the rest. One ``run_pipeline`` call runs any set of variants (the
seven of a sweep) as one plan, each stage they need once: the coarse
split, the whole-cloud and coarse-ground normals and region growing, one
density filter over the union of their masks. The whole cloud's
(k+1)-nearest query gives its neighbour table, most coarse-ground rows and
their normals, and every point's density verdict (``_normals_for``). A
plan without such a query (mode H alone, say) judges the coarse
structure's density on one helper thread while the fine stage runs
(``_structure_tree``). None of these shortcuts changes a prediction.

The RANSAC hypothesis blocks, the normals' covariances and region
growing's edge table run their row blocks on ``geom.query_workers()`` threads
(``geom.run_row_blocks``); no row's arithmetic depends on the thread count,
so predictions are bit identical on any number of cores. With one worker
the density helper's job runs inline, before the fine stage. Every
function the benchmark tracer wraps by name (``ransac_plane``,
``_normals_for``, ``normals_from_neighbors``, ``region_grow``,
``density_filter``, ...) is called from the calling thread only.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateCloudError,
    InvalidSpecError,
    NonUnitDirectionError,
)
from .geom import (
    _QUERY_BLOCK,
    EigenDecomp,
    LabeledCloud,
    _finite_points,
    canonicalize,
    covariance,
    eigen_sym3_stack,
    extent_along,
    grid_cells,
    knn_table,
    normals_from_neighbors,
    query_blocks,
    query_workers,
    run_beside,
    run_row_blocks,
    voxel_downsample,
)

RATIO, MAGNITUDE, HYBRID = "ratio", "magnitude", "hybrid"
FULL, WITHOUT_FINE, WITHOUT_COARSE = "full", "without_fine", "without_coarse"

STRUCTURE, GROUND = "structure", "ground"

_MIN_GROUND_INLIER_FRACTION = 0.05

# scans are stored in the sensor frame: normals are flipped toward the origin
_VIEWPOINT = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the segmentation pipeline, plus the variant it runs.

    ``stage_mode`` and ``eigen_mode`` pick the variant. They are set per
    command (``segment --mode``, ``sweep``) or per library call, so they
    are not keys of the ``[pipeline]`` config section.
    """

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
        canonicalize(self)
        for name in ("voxel_leaf", "ransac_threshold", "magnitude_threshold",
                     "density_radius"):
            if getattr(self, name) <= 0:
                raise InvalidSpecError(f"{name} must be > 0")
        if self.ransac_iterations < 1:
            raise InvalidSpecError("ransac_iterations must be >= 1")
        if self.ransac_seed < 0:
            raise InvalidSpecError("ransac_seed must be >= 0")
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
            raise NonUnitDirectionError("plane normal must be unit length")
        self.d = float(self.d)

    def distance(self, points: np.ndarray) -> np.ndarray:
        # elementwise: BLAS gives a one-row product other bits than a batch
        n = self.normal
        return np.abs(points[:, 0] * n[0] + points[:, 1] * n[1]
                      + points[:, 2] * n[2] + self.d)


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


class Neighbours(NamedTuple):
    """Normals, curvature and subset-local k-nearest table of a point subset
    (``_normals_for``). The whole cloud's (k+1)-nearest query also gives,
    per point, whether its row is tie-free and its density verdict (1
    dense, 2 sparse; None when density_min_points is 0 or above k)."""

    normals: np.ndarray
    curvature: np.ndarray
    knn_idx: np.ndarray
    tie_free: Optional[np.ndarray] = None
    density: Optional[np.ndarray] = None


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


# RANSAC scoring block, voxels by hypotheses: the (1024, 256) float32
# distances (1 MiB) are written and re-read while still in cache, which an
# (n_voxels, 256) block of a whole scan is not.
_SCORE_HYPOTHESES = 256
_SCORE_POINTS = 1024


def _inlier_counts(pts32: np.ndarray, n32: np.ndarray, d32: np.ndarray,
                   thr32: np.float32) -> np.ndarray:
    """Per hypothesis j, the count of points with |pts32 . n32[j] + d32[j]|
    <= thr32, all in float32.

    Scored in blocks of ``_SCORE_POINTS`` points by ``_SCORE_HYPOTHESES``
    hypotheses, the hypothesis blocks on ``query_workers()`` threads
    (``geom.run_row_blocks``). Each distance is the K=3 sgemm dot product
    plus d that one product over every point gives, so blocking changes no
    count.
    """
    counts = np.zeros(len(n32), dtype=np.intp)

    def score(hyps):
        nT = np.ascontiguousarray(n32[hyps].T)
        d = d32[hyps]
        total = counts[hyps]
        for lo in range(0, len(pts32), _SCORE_POINTS):
            dist = pts32[lo:lo + _SCORE_POINTS] @ nT
            dist += d
            np.abs(dist, out=dist)
            total += np.count_nonzero(dist <= thr32, axis=0)

    run_row_blocks(len(n32), _SCORE_HYPOTHESES, score)
    return counts


def _ransac_triples(n: int, iterations: int, seed: int) -> np.ndarray:
    """(iterations, 3) indices, row i the i-th
    ``rng.choice(n, 3, replace=False)`` of ``np.random.default_rng(seed)``,
    for any n >= 3.

    ``choice`` runs Floyd's algorithm, bounded draws in [0, j] for
    j = n-3, n-2, n-1 where a value already taken becomes j, then shuffles
    the three with draws in [0, 2] and [0, 1]. ``integers`` given an array
    of inclusive bounds makes the same bounded draw per element, in order
    (a bound of 0, at n = 3, takes none), so one call makes every draw.
    """
    spans = np.tile(np.array((n - 3, n - 2, n - 1, 2, 1), dtype=np.int64),
                    iterations)
    draws = np.random.default_rng(seed).integers(0, spans, endpoint=True)
    first, second, third, swap2, swap1 = draws.reshape(iterations, 5).T
    second = np.where(second == first, n - 2, second)
    third = np.where((third == first) | (third == second), n - 1, third)
    triples = np.column_stack((first, second, third))
    rows = np.arange(iterations)
    for col, other in ((2, swap2), (1, swap1)):
        picked = triples[rows, other]
        triples[rows, other] = triples[:, col]
        triples[:, col] = picked
    return triples


def ransac_plane(points: np.ndarray, threshold: float, iterations: int,
                 seed: int):
    """Best plane through seeded 3-point hypotheses, scored by inlier count.

    Ties keep the first hypothesis found. Returns (Plane, inlier indices)
    where every inlier satisfies |n . p + d| <= threshold. The triples are
    those of a ``rng.choice(n, 3, replace=False)`` loop, drawn by one
    ``Generator.integers`` call (``_ransac_triples``); hypotheses are scored
    in float32, in cache-sized blocks (``_inlier_counts``). The three
    numbers pass ``PipelineConfig``'s rules of its ``ransac_`` fields; a NaN
    or infinite coordinate raises NonFiniteError, and one beyond
    ``geom.COORDINATE_BOUND`` CoordinateRangeError.
    """
    rule = PipelineConfig(ransac_threshold=threshold,
                          ransac_iterations=iterations, ransac_seed=seed)
    threshold, iterations = rule.ransac_threshold, rule.ransac_iterations
    pts = _finite_points(points)
    n = len(pts)
    if n < 3:
        raise DegenerateCloudError("plane fit needs at least 3 points")
    samples = _ransac_triples(n, iterations, rule.ransac_seed)
    p0, p1, p2 = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    if not valid.any():
        raise DegenerateCloudError("all sampled triples were collinear")
    normals[valid] /= norms[valid, None]
    ds = -np.einsum("ij,ij->i", normals, p0)

    # hypothesis scoring runs in float32; the final inlier set is
    # recomputed in float64 against the winning plane
    counts = _inlier_counts(pts.astype(np.float32), normals.astype(np.float32),
                            ds.astype(np.float32), np.float32(threshold))
    counts[~valid] = -1
    best_idx = int(np.argmax(counts))    # the first of equal counts wins
    normal, d = normals[best_idx], float(ds[best_idx])
    if normal[2] < 0 or (normal[2] == 0 and (normal[1] < 0 or
                                             (normal[1] == 0 and normal[0] < 0))):
        normal, d = -normal, -d
    plane = Plane(normal, d)
    inliers = np.flatnonzero(plane.distance(pts) <= threshold)
    return plane, inliers


def coarse_split(points: np.ndarray, cfg: PipelineConfig) -> CoarseSplit:
    """Voxel filter + RANSAC on the filtered copy, then split the (n, 3)
    ``points`` by absolute plane distance at the RANSAC threshold.

    Fails open: when the best hypothesis explains under 5% of the voxel
    cloud, no ground is subtracted and every point goes to structure.
    """
    if len(points) == 0:
        raise DegenerateCloudError("cannot split an empty cloud")
    voxel = voxel_downsample(points, cfg.voxel_leaf)
    plane, vox_inliers = ransac_plane(voxel, cfg.ransac_threshold,
                                      cfg.ransac_iterations, cfg.ransac_seed)
    if len(vox_inliers) < _MIN_GROUND_INLIER_FRACTION * len(voxel):
        return CoarseSplit(
            plane=None,
            ground=np.empty(0, dtype=np.intp),
            structure=np.arange(len(points), dtype=np.intp),
            warning=(f"GroundNotFound: best inlier fraction "
                     f"{len(vox_inliers) / len(voxel):.3f} < "
                     f"{_MIN_GROUND_INLIER_FRACTION}"),
        )
    near = plane.distance(points) <= cfg.ransac_threshold
    return CoarseSplit(plane=plane,
                       ground=np.flatnonzero(near),
                       structure=np.flatnonzero(~near))


# rows of the neighbour table judged per block in _edge_tables
_EDGE_BLOCK = 4096


def _edge_tables(normals: np.ndarray, knn_idx: np.ndarray, cos_thr: float,
                 pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angle test of every neighbour edge, and the points that can grow
    a region.

    ``ok`` is (m, k): row i, column j is True when
    ``normals[i] . normals[knn_idx[i, j]] >= cos_thr``, the dot product
    summed x, y, z left to right. ``grows[i]`` is True when point i has a
    passing edge to a point later in seed order (``pos[i]`` is its place in
    that order). Rows are judged in blocks of ``_EDGE_BLOCK`` on
    ``query_workers()`` threads (``geom.run_row_blocks``), with two float
    temporaries per block: (m, k)-sized ones kept the heap of a whole-cloud
    sweep resident long after the call.
    """
    m = len(knn_idx)
    nx, ny, nz = (np.ascontiguousarray(normals[:, d]) for d in range(3))
    ok = np.empty(knn_idx.shape, dtype=bool)
    grows = np.empty(m, dtype=bool)

    def judge(rows):
        nbr = knn_idx[rows]
        dot = nx[nbr]
        dot *= nx[rows, None]
        term = ny[nbr]
        term *= ny[rows, None]
        dot += term
        np.take(nz, nbr, out=term)
        term *= nz[rows, None]
        dot += term
        np.greater_equal(dot, cos_thr, out=ok[rows])
        later = pos[nbr] > pos[rows, None]
        later &= ok[rows]
        later.any(axis=1, out=grows[rows])

    run_row_blocks(m, _EDGE_BLOCK, judge)
    return ok, grows


def region_grow(points: np.ndarray, subset: np.ndarray, normals: np.ndarray,
                curvatures: np.ndarray, cfg: PipelineConfig,
                knn_idx: np.ndarray) -> list[Cluster]:
    """Curvature-seeded region growing restricted to ``subset``.

    Seeds start at the lowest-curvature unvisited point (stable order); a
    neighbour joins when the angle between its normal and the current
    seed's normal is within the threshold, and becomes a seed itself when
    its curvature is at most the curvature threshold. Regions smaller than
    rg_min_cluster are dropped. ``normals``/``curvatures`` align with
    ``subset``; cluster indices refer to the original cloud. ``knn_idx`` is
    the neighbour table of the subset's points in subset-local indices, as
    built by ``geom.knn_table`` for the normals (``_normals_for`` returns
    it).

    The angle test runs once, over the whole ``(m, k)`` edge table
    (``_edge_tables``); a region then grows in waves, one breadth-first
    level per wave, that only gather and mask that table. Membership
    equals sequential seeded growth (Rabbani et al. 2006) because a point
    joins iff some member reaching it while it is unvisited passes the
    angle test, whatever the queue order. When a seed is taken, every
    point before it in seed order is already visited, so a seed with no
    passing edge to a point later in the order grows alone: it is marked
    visited without a wave.
    """
    subset = np.asarray(subset, dtype=np.intp)
    m = len(subset)
    if m == 0:
        return []
    cos_thr = np.cos(np.deg2rad(cfg.rg_angle_threshold_deg))
    expandable = np.asarray(curvatures) <= cfg.rg_curvature_threshold
    order = np.argsort(curvatures, kind="stable")
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    ok, grows = _edge_tables(normals, knn_idx, cos_thr, pos)
    unvisited = np.ones(m, dtype=bool)
    keep_lone = cfg.rg_min_cluster <= 1

    regions: list[np.ndarray] = []
    # numpy scalars, not order.tolist(): a per-point list, like (m, k)
    # temporaries, left a whole-cloud sweep's heap resident after the call
    for seed in order:
        if not unvisited[seed]:
            continue
        unvisited[seed] = False
        if not grows[seed]:
            if keep_lone:
                regions.append(np.array([seed], dtype=np.intp))
            continue
        member = [np.array([seed], dtype=np.intp)]
        size = 1
        row = knn_idx[seed]
        # a kd-tree row holds distinct indices: sorting it dedupes nothing
        nb = row[ok[seed] & unvisited[row]]
        nb.sort()
        while len(nb):
            unvisited[nb] = False
            member.append(nb)
            size += len(nb)
            frontier = nb[expandable[nb]]
            if not len(frontier):
                break
            rows = knn_idx[frontier]
            nb = rows[ok[frontier] & unvisited[rows]]
            nb.sort()
            if len(nb) > 1:   # drop points reached from two frontier points
                nb = nb[np.concatenate(([True], nb[1:] != nb[:-1]))]
        if size >= cfg.rg_min_cluster:
            regions.append(np.concatenate(member))
    return _clusters_of(points, [subset[r] for r in regions])


def _clusters_of(points: np.ndarray, regions: list) -> list[Cluster]:
    """Clusters of original-index regions, their eigen summaries from one
    stacked eigen call. Each covariance sums its points in region order."""
    if not regions:
        return []
    centroids = np.empty((len(regions), 3))
    covs = np.empty((len(regions), 3, 3))
    for i, orig in enumerate(regions):
        centroids[i], covs[i] = covariance(points, orig)
    lams, vecs = eigen_sym3_stack(covs)
    clusters = []
    for orig, lam, V, centroid in zip(regions, lams, vecs, centroids):
        stats = EigenDecomp(lam, V, centroid)
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


# the dense-cell test holds while every cell index stays below this: the
# rounding of floor(p / edge) then widens a cell by under 3e-7 of its
# edge, well inside the 1e-6 margin of _dense_cells
_DENSE_CELL_MAX_INDEX = 2.0**30


def _dense_cells(points: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Per point, 1 (dense) where its grid cell alone proves that it has
    density_min_points neighbours within density_radius, else 0 (unknown).

    The cells are cubes of edge ``density_radius / sqrt(3) * (1 - 1e-6)``,
    so any two points of one cube lie strictly closer than the radius. A
    cube holding density_min_points + 1 points of the whole cloud thus
    makes each of them dense (the grid DBSCAN dense-cell rule; Gunawan
    2013).
    """
    verdict = np.zeros(len(points), dtype=np.int8)
    edge = cfg.density_radius / np.sqrt(3.0) * (1.0 - 1e-6)
    if np.abs(points).max() < _DENSE_CELL_MAX_INDEX * edge:
        cell, n_cells = grid_cells(points, edge)
        full = np.bincount(cell, minlength=n_cells) > cfg.density_min_points
        verdict[full[cell]] = 1
    return verdict


def _query_density(tree, points: np.ndarray, rows: np.ndarray,
                   cfg: PipelineConfig, workers: int) -> np.ndarray:
    """1 (dense) or 2 (sparse) per point ``points[rows]``: whether at least
    density_min_points other points of the kd-tree ``tree`` of ``points``
    lie within density_radius, boundary inclusive. Queried in
    ``_QUERY_BLOCK`` row blocks on ``workers`` threads each."""
    # "at least m neighbours within r (excluding self)" is equivalent to
    # "the (m+1)-th nearest indexed point (self included, distance 0) lies
    # within r" -- a pruned knn query instead of full neighbour enumeration.
    # That distance is exact, so no tree shape changes a verdict.
    k = cfg.density_min_points + 1
    bound = np.nextafter(cfg.density_radius, np.inf)
    verdict = np.empty(len(rows), dtype=np.int8)
    for lo in range(0, len(rows), _QUERY_BLOCK):
        block = rows[lo:lo + _QUERY_BLOCK]
        dist, _ = tree.query(points[block], k=k, distance_upper_bound=bound,
                             workers=workers)
        verdict[lo:lo + len(block)] = np.where(
            dist[:, -1] <= cfg.density_radius, 1, 2)
    return verdict


def density_filter(points: np.ndarray, structure_mask: np.ndarray,
                   cfg: PipelineConfig,
                   verdict: Optional[np.ndarray] = None) -> np.ndarray:
    """Demote structure points with too few neighbours inside the radius.

    A structure point stays when at least density_min_points points of the
    whole cloud (structure and ground, the point itself excluded) lie
    within density_radius, boundary inclusive. Never promotes ground. A
    point's verdict does not depend on the mask. A NaN or infinite
    coordinate raises NonFiniteError, and one beyond
    ``geom.COORDINATE_BOUND`` CoordinateRangeError.

    ``verdict`` holds what is known per point (0 not judged, 1 dense, 2
    sparse; left unchanged): by default the grid's dense cells
    (``_dense_cells``), or every point's (``Neighbours.density``). The
    structure points not yet judged query a kd-tree of the cloud
    (``_query_density``).
    """
    points = _finite_points(points)
    mask = np.asarray(structure_mask, dtype=bool).copy()
    idx = np.flatnonzero(mask)
    if len(idx) == 0 or cfg.density_min_points == 0:
        return mask
    if len(points) <= cfg.density_min_points:
        mask[idx] = False
        return mask
    if verdict is None:
        verdict = _dense_cells(points, cfg)
    judged = verdict[idx]
    todo = judged == 0
    if todo.any():
        # scipy.spatial takes ~0.35 s to import; only kd-tree users pay
        from scipy.spatial import cKDTree
        judged[todo] = _query_density(cKDTree(points), points, idx[todo],
                                      cfg, query_workers())
    mask[idx[judged == 2]] = False
    return mask


def _structure_tree(points: np.ndarray, structure: np.ndarray,
                    verdict: np.ndarray, cfg: PipelineConfig):
    """The whole cloud's kd-tree, after judging on it, on one thread, each
    point of ``structure`` that ``verdict`` leaves open (0): the density
    work of a plan without a WC variant that needs only the coarse split.
    ``run_pipeline`` runs it beside the fine stage (``geom.run_beside``),
    so it calls no function the benchmark tracer wraps."""
    from scipy.spatial import cKDTree   # deferred, as in density_filter
    tree = cKDTree(points, balanced_tree=False, copy_data=False)
    todo = structure[verdict[structure] == 0]
    verdict[todo] = _query_density(tree, points, todo, cfg, 1)
    return tree


def _whole_cloud_neighbours(points: np.ndarray, cfg: PipelineConfig):
    """The whole cloud's (n, k) neighbour table, per row whether it is
    tie-free, and every point's density verdict, from one (k+1)-nearest
    query per point; k is normal_k and the cloud has more than k points.

    A row is tie-free when its k + 1 distances strictly increase. Then its
    first k columns are the k-nearest query's row, in the same order. A
    row with a tie (duplicate points, a lattice) is queried again for k
    neighbours on the same tree, so the table equals ``geom.knn_table``
    row for row. When density_min_points is at most k, column
    density_min_points of the distances is each point's (m+1)-th nearest
    distance, the density filter's own test, so the verdict is 1 (dense)
    or 2 (sparse); else it is None.

    The query runs in row blocks on ``query_workers()`` threads
    (``geom.query_blocks``): each block's (b, k + 1) distances are judged
    and dropped, so no (n, k + 1) float table is ever held.
    """
    from scipy.spatial import cKDTree   # deferred, as in density_filter
    n, k, m = len(points), cfg.normal_k, cfg.density_min_points
    tree = cKDTree(points)
    table = np.empty((n, k), dtype=np.intp)
    tie_free = np.empty(n, dtype=bool)
    verdict = np.empty(n, dtype=np.int8) if 0 < m <= k else None

    def keep(rows, dist, idx):
        table[rows] = idx[:, :k]
        (dist[:, 1:] > dist[:, :-1]).all(axis=1, out=tie_free[rows])
        if verdict is not None:
            verdict[rows] = np.where(dist[:, m] <= cfg.density_radius, 1, 2)

    query_blocks(tree, points, k + 1, keep)
    ties = np.flatnonzero(~tie_free)
    if len(ties):
        table[ties] = tree.query(points[ties], k=k,
                                 workers=query_workers())[1]
    return table, tie_free, verdict


def _subset_from_whole(points: np.ndarray, subset: np.ndarray, k: int,
                       whole: Neighbours) -> Neighbours:
    """The subset's normals, curvature and subset-local k-nearest table,
    equal to the direct subset query's (``geom.knn_table``), from the
    whole cloud's (``whole``); the subset has at least k points.

    A point whose whole-cloud row is tie-free and holds only subset points
    has those points as its k nearest in the subset too, in the same
    order: every other subset point lies at least as far as its (k+1)-th
    whole-cloud neighbour, strictly beyond the k-th. Its row is the mapped
    whole-cloud row, and its normal and curvature, made from the same
    coordinates in the same order, are copied. The other rows are queried
    on a kd-tree of the subset and get their normals made alone.
    """
    local = np.full(len(points), -1, dtype=np.intp)
    local[subset] = np.arange(len(subset))
    knn_idx = local[whole.knn_idx[subset]]
    redo = np.flatnonzero(
        ~(whole.tie_free[subset] & (knn_idx >= 0).all(axis=1)))
    normals, curv = whole.normals[subset], whole.curvature[subset]
    if len(redo):
        from scipy.spatial import cKDTree   # deferred, as in density_filter
        sub_pts = points[subset]
        knn_idx[redo] = cKDTree(sub_pts).query(
            sub_pts[redo], k=k, workers=query_workers())[1]
        normals[redo], curv[redo] = normals_from_neighbors(
            sub_pts, knn_idx[redo], _VIEWPOINT, rows=redo)
    return Neighbours(normals, curv, knn_idx)


def _normals_for(points, subset, cfg,
                 whole: Optional[Neighbours] = None) -> Neighbours:
    """Normals and curvature of the points ``subset`` (sorted distinct
    indices) plus their subset-local k-nearest table (reused by region
    growing), k = normal_k; the normals face the sensor at the origin.

    Every path gives the direct query's result (``geom.knn_table`` on the
    subset's points) bit for bit:

    - the whole cloud, when it has more than k points, takes its table
      from one (k+1)-nearest query, which also judges every point's
      density (``_whole_cloud_neighbours``);
    - a subset of at least k points, given the whole cloud's result
      ``whole``, reuses each whole-cloud row that lies inside it
      (``_subset_from_whole``).

    Any other call queries a kd-tree of the subset, so a lone mode-H run
    makes no whole-cloud query.
    """
    k = cfg.normal_k
    if len(subset) == len(points) > k:
        knn_idx, tie_free, verdict = _whole_cloud_neighbours(points, cfg)
        normals, curv = normals_from_neighbors(points, knn_idx, _VIEWPOINT)
        return Neighbours(normals, curv, knn_idx, tie_free, verdict)
    if len(subset) >= k and whole is not None and whole.tie_free is not None:
        return _subset_from_whole(points, subset, k, whole)
    sub_pts = points[subset]
    knn_idx = knn_table(sub_pts, k)
    normals, curv = normals_from_neighbors(sub_pts, knn_idx, _VIEWPOINT)
    return Neighbours(normals, curv, knn_idx)


@contextmanager
def _timed(latency: dict, stage: str):
    """Add the wall time of the block to latency[stage], in ms."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        latency[stage] = latency.get(stage, 0.0) \
            + (time.perf_counter() - t0) * 1e3


def run_pipeline(cloud: LabeledCloud, cfg: PipelineConfig, modes=None):
    """Run pipeline variants on one scan.

    full: coarse split, then fine segmentation inside the coarse ground,
    then the density filter. without_fine: coarse split + density filter.
    without_coarse: fine segmentation over the whole cloud + density filter.

    Returns the ``SegmentationOutput`` of ``cfg``, or with ``modes``, a
    list of (stage_mode, eigen_mode) pairs, one output per pair, each equal
    to that of ``cfg`` under those modes alone. The stages the variants
    need run once each, in this order: the coarse split; whole-cloud
    normals and region growing, whose (k+1)-nearest query also serves the
    coarse ground's rows and every point's density (``_normals_for``);
    coarse-ground normals and region growing; one density filter over the
    union of the variants' masks. Each variant then only judges its
    clusters (``classify_cluster``). Without a without_coarse variant, a
    helper thread builds the whole cloud's kd-tree and judges the coarse
    structure's density on it while the fine stage runs
    (``_structure_tree``, ``geom.run_beside``); the calling thread then
    judges only the promoted points the grid left open, and the filter gets
    every verdict it needs. The helper is joined before the call returns or
    raises.

    Each variant's latency_ms holds the measured time of each stage it
    uses on the calling thread, region_growing with its own verdicts
    added; density is the time the density stage holds the calling thread
    (the grid, the wait for the helper, the promoted points and the
    filter). Outputs share arrays: treat them as read-only.
    """
    single = modes is None
    variants = [replace(cfg, stage_mode=s, eigen_mode=e) for s, e in
                ([(cfg.stage_mode, cfg.eigen_mode)] if single else modes)]
    if not variants:
        return []
    if len(cloud) == 0:
        raise DegenerateCloudError("cannot segment an empty cloud")
    n, pts = len(cloud), cloud.points
    stage_modes = {v.stage_mode for v in variants}
    ms: dict = {}   # measured time of each stage run
    grown = {}      # stage mode -> the verdict-free clusters of its subset
    coarse = whole = None
    everything = np.arange(n, dtype=np.intp)

    def fine(stage_mode, subset, from_whole=None):
        with _timed(ms, "normals/" + stage_mode):
            nbrs = _normals_for(pts, subset, cfg, from_whole)
        with _timed(ms, "region_growing/" + stage_mode):
            grown[stage_mode] = region_grow(pts, subset, nbrs.normals,
                                            nbrs.curvature, cfg, nbrs.knn_idx)
        return nbrs

    def output(v):   # variant v before the density filter
        split = v.stage_mode != WITHOUT_COARSE
        out = SegmentationOutput(
            prediction=np.zeros(n, dtype=bool),
            plane=coarse.plane if split else None,
            coarse_ground=coarse.ground if split else everything,
            clusters=[],
            density_removed=None,   # set after the density filter
            warnings=[coarse.warning] if split and coarse.warning else [],
            latency_ms={"coarse": ms["coarse"] if split else 0.0,
                        "normals": ms.get("normals/" + v.stage_mode, 0.0),
                        "region_growing": ms.get(
                            "region_growing/" + v.stage_mode, 0.0)})
        if split:
            out.prediction[coarse.structure] = True
        if v.stage_mode in grown:
            with _timed(out.latency_ms, "region_growing"):
                # each variant gets copies of the grown clusters
                out.clusters = [replace(c, verdict=classify_cluster(c, v))
                                for c in grown[v.stage_mode]]
                for c in out.clusters:
                    if c.verdict == STRUCTURE:
                        out.prediction[c.indices] = True
        return out

    if stage_modes & {FULL, WITHOUT_FINE}:
        with _timed(ms, "coarse"):
            coarse = coarse_split(pts, cfg)
    # without a WC variant no whole-cloud query judges density: the coarse
    # structure is judged beside the fine stage, on a whole-cloud tree
    ahead = (coarse is not None and WITHOUT_COARSE not in stage_modes
             and n > cfg.density_min_points > 0)
    with ExitStack() as helper:
        if ahead:
            with _timed(ms, "density"):
                verdict = _dense_cells(pts, cfg)
                # a module's objects stay in the malloc arena of the thread
                # that imports it: the kd-tree's, on this thread's
                import scipy.spatial  # noqa: F401
                tree_of = helper.enter_context(run_beside(partial(
                    _structure_tree, pts, coarse.structure, verdict, cfg)))
        # the whole cloud first: its query serves the coarse ground's normals
        if WITHOUT_COARSE in stage_modes and n >= 3:
            whole = fine(WITHOUT_COARSE, everything)
        if FULL in stage_modes and len(coarse.ground) >= 3:
            fine(FULL, coarse.ground, whole)

        outputs = [output(v) for v in variants]
        with _timed(ms, "density"):
            union = np.logical_or.reduce([out.prediction for out in outputs])
            if ahead:   # the promoted points the grid left open
                todo = np.flatnonzero(union & (verdict == 0))
                verdict[todo] = _query_density(tree_of(), pts, todo, cfg,
                                               query_workers())
            else:
                verdict = None if whole is None else whole.density
            kept = density_filter(pts, union, cfg, verdict)
    for out in outputs:
        out.density_removed = np.flatnonzero(out.prediction & ~kept)
        out.prediction &= kept
        out.latency_ms["density"] = ms["density"]
    return outputs[0] if single else outputs
