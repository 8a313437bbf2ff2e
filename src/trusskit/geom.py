"""Core point-cloud geometry.

Points are plain ``(n, 3)`` float64 numpy arrays throughout the package.
This module provides the labeled-cloud container, an exact k-nearest-neighbour
table, PCA-based normal/curvature estimation, the cubic grid cells behind
voxel-grid downsampling and the density filter's dense-cell test, and small
projection helpers used by the segmentation stages. Every function takes
coordinates: no function here reads a LabeledCloud's labels or pose.

Per-point normals take the neighbourhood covariances, six sums per row
over three contiguous ``(b, k)`` coordinate columns, through a closed-form
symmetric 3x3 eigensolver: Smith's trigonometric eigenvalues
(Smith 1961) and the normal as the largest cross product of two rows of
``C - lambda0 I`` (Kopp 2008, "Efficient numerical diagonalization of
hermitian 3x3 matrices"). Rows whose smallest eigenvalue is not well
separated from the middle one (an all-duplicate or collinear
neighbourhood, say) fall back to ``np.linalg.eigh``.

Full eigen-decompositions (cluster statistics) go through one stacked path,
``eigen_sym3_stack``: one ``np.linalg.eigh`` call over an ``(n, 3, 3)``
stack. ``eigen_sym3`` and ``pca_stats`` are that path on a stack of one.

Every kd-tree of the package is built here (``knn_table``, ``kd_tree``)
and queried by ``query_blocks``. It and the other row-block kernels of
``run_row_blocks`` (the normals' covariances here, the edge table and
RANSAC scoring in ``segment``) run on every CPU this process may run on
(``query_workers``); the calling thread takes blocks too. Each row's
arithmetic is the same on any number of threads, so results are bit
identical. ``run_beside`` runs one job on a one-worker thread pool, its
blocks inline, while the calling thread goes on, or inline when
``query_workers()`` is 1. ``map_jobs`` is the one ``--jobs`` map
(``generate``, ``segment``, ``sweep``): with more than one job it runs on
a ``worker_pool``, whose workers call ``single_threaded_queries``, so they
run every block inline and do not oversubscribe the cores.

``field_value`` is the one rule of a stored config value, ``canonicalize``
applies it to each field of a config dataclass (and of ``Pose``), and
``fingerprint`` hashes the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    CoordinateRangeError,
    EmptySubsetError,
    FieldTypeError,
    InvalidSpecError,
    LengthMismatchError,
    NonFiniteError,
    NonPositiveLeafError,
    NonUnitDirectionError,
    NotSymmetricError,
    TooFewPointsError,
)

MAX_CURVATURE = 1.0 / 3.0

# the largest |coordinate| a stage takes. RANSAC scores its hypotheses in
# float32 (finite below 3.4e38), and the kd-trees and covariances square
# coordinate differences in float64 (finite below 1.8e308): at 1e30 both
# hold with eight orders of magnitude to spare, where a scan in metres
# spans about 1e2. Past 1e38 the float32 scores overflow.
COORDINATE_BOUND = 1e30

# a covariance row whose lambda1 - lambda0 is at most this share of its trace
# goes to np.linalg.eigh: there the closed-form normal is ill-conditioned
_EIGEN_GAP_TOL = 1e-4

# threads of one run_row_blocks call; None means every CPU this process
# may run on
_query_workers: Optional[int] = None

# run_beside's helper thread sets .beside: its row blocks run inline
_thread = threading.local()

# rows per block of a run_row_blocks kernel: a (b, k) float block is ~1 MB
# at k = 30. Freeing whole-cloud temporaries (tens of MB) raises glibc's
# mmap and trim thresholds, which leaves the heap resident after the call.
_ROW_BLOCK = 4096

# the upper triangle of a symmetric 3x3 matrix, row by row
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidSpecError(
            f"expected (n, 3) point array, got shape {pts.shape}")
    return pts


def _finite_points(points) -> np.ndarray:
    """``points`` as (n, 3) float64 when every |coordinate| is at most
    ``COORDINATE_BOUND`` (``_within_bound``)."""
    pts = _as_points(points)
    _within_bound([pts])
    return pts


def _within_bound(columns) -> None:
    """Refuse coordinate arrays with a value past ``COORDINATE_BOUND``:
    NonFiniteError if any value is NaN or inf, else CoordinateRangeError.
    The min/max test is False for NaN too, and makes no temporary; it
    compares in float64, so a float32 column is judged as its float64
    cast would be."""
    if all(c.size == 0 or (-COORDINATE_BOUND <= float(c.min())
                           and float(c.max()) <= COORDINATE_BOUND)
           for c in columns):
        return
    if not all(np.isfinite(c).all() for c in columns):
        raise NonFiniteError("cloud contains NaN/inf coordinates")
    raise CoordinateRangeError(
        f"cloud has a coordinate beyond ±{COORDINATE_BOUND:g}")


@lru_cache(maxsize=None)
def _typed_fields(cls) -> tuple:
    """(name, annotation, item types) of each float, int, bool, str or
    tuple field of a config class, in field order; a field that is not a
    tuple has no item types."""
    hints = get_type_hints(cls)
    kinds = ((f.name, hints[f.name]) for f in fields(cls))
    return tuple((name, kind, get_args(kind) or None) for name, kind in kinds
                 if kind in _CASTS or get_origin(kind) is tuple)


def _real(value) -> float:
    """``value`` as a float when it is a finite number, else ValueError."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError
    real = float(value)
    if not math.isfinite(real):
        raise ValueError
    return real


def _integral(value) -> int:
    """``value`` as an int when it is an integral number, else ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError
    whole = int(value)
    if whole != value:
        raise ValueError
    return whole


def _boolean(value) -> bool:
    """``value`` as a bool when it is True, False, 0 or 1, else ValueError."""
    if not isinstance(value, (bool, np.bool_, int, np.integer)) \
            or value not in (0, 1):
        raise ValueError
    return bool(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError
    return str(value)


_CASTS = {float: _real, int: _integral, bool: _boolean, str: _string}
_NEEDS = {float: "a number", int: "an integer",
          bool: "True, False, 0 or 1", str: "a string"}


def field_value(kind, items, value):
    """``value`` in the stored form of a field annotated ``kind`` (a tuple
    field's item types are ``items``, else None): a finite float, an exact
    int (``30.0`` is ``30``), a bool, a str, or a tuple of them. Any other
    value, NaN or a bool or str for a number included, raises
    InvalidSpecError."""
    try:
        if items is None:
            return _CASTS[kind](value)
        canon = tuple(value)
        if len(canon) != len(items):
            raise ValueError
        return tuple(_CASTS[item](v) for item, v in zip(items, canon))
    except (TypeError, ValueError, OverflowError):
        need = f"{len(items)} numbers" if items else _NEEDS[kind]
        raise InvalidSpecError(f"must be {need}, not {value!r}") from None


def canonicalize(spec) -> None:
    """Store each typed field of a frozen dataclass in its ``field_value``
    form, so equal values compare, hash and fingerprint equal (``0`` and
    ``0.0``, a list and a tuple); FieldTypeError names a refused field."""
    for name, kind, items in _typed_fields(type(spec)):
        try:
            canon = field_value(kind, items, getattr(spec, name))
        except InvalidSpecError as exc:
            raise FieldTypeError(name, str(exc)) from None
        object.__setattr__(spec, name, canon)


def fingerprint(value) -> str:
    """Stable short hash of a config dataclass, or of JSON holding them."""
    blob = json.dumps(value, sort_keys=True, default=asdict)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
        canonicalize(self)
        norm = math.hypot(*self.quaternion)
        if abs(norm - 1.0) > 1e-6:
            raise NonUnitDirectionError(
                f"quaternion norm {norm:.9f} is not 1 within 1e-6")

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(np.asarray(self.quaternion))

    def viewpoint_tuple(self) -> tuple[float, ...]:
        """(tx, ty, tz, qw, qx, qy, qz) as stored in PCD headers."""
        return self.translation + self.quaternion


@dataclass
class LabeledCloud:
    """Points in the sensor frame with per-point ground-truth face labels.

    Label 0 marks background (ground, distractors); labels >= 1 identify
    structure faces or bars.
    """

    points: np.ndarray
    face_label: Optional[np.ndarray] = None
    sensor_pose: Pose = field(default_factory=Pose)

    def __post_init__(self):
        self.points = _finite_points(self.points)
        n = len(self.points)
        if self.face_label is None:
            self.face_label = np.zeros(n, dtype=np.int64)
        else:
            self.face_label = np.asarray(self.face_label, dtype=np.int64).reshape(-1)
            if len(self.face_label) != n:
                raise LengthMismatchError(
                    "face_label length differs from point count")
            if n and self.face_label.min() < 0:
                raise InvalidSpecError("face labels must be non-negative")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def truss_mask(self) -> np.ndarray:
        """Boolean per point: True where the ground-truth label is structure."""
        return self.face_label > 0


@dataclass
class EigenDecomp:
    """Sorted eigen-decomposition of a neighbourhood covariance.

    eigenvalues are ascending and clamped non-negative; one below
    -1e-9 max(1, |lam|max) is refused. Eigenvector j is column j of
    ``eigenvectors``.
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
            raise InvalidSpecError("eigenvalues must be sorted ascending")
        if lam[0] < -1e-9 * max(1.0, np.abs(lam).max()):
            raise InvalidSpecError(
                "covariance eigenvalues must be non-negative")
        self.eigenvalues = np.maximum(lam, 0.0)
        V = self.eigenvectors
        gram = V.T @ V
        if np.abs(gram - np.eye(3)).max() > 1e-6:
            raise NonUnitDirectionError(
                "eigenvectors must be orthonormal within 1e-6")

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

    The points used (the subset's alone, so a call costs O(subset)) must
    be finite (NonFiniteError) and within ``COORDINATE_BOUND``
    (CoordinateRangeError), where C cannot overflow.
    """
    pts = _as_points(points)
    if subset is not None:
        pts = pts[np.asarray(subset, dtype=np.intp)]
    if len(pts) == 0:
        raise EmptySubsetError("covariance of an empty subset")
    pts = _finite_points(pts)
    centroid = pts.mean(axis=0)
    X = pts - centroid
    C = (X.T @ X) / len(pts)
    C = (C + C.T) / 2.0
    return centroid, C


def eigen_sym3_stack(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompositions of a stack of symmetric 3x3 matrices in one
    ``np.linalg.eigh`` call; each matrix gets the eigenvalues and vectors a
    lone call on it would.

    C is (n, 3, 3); returns (lam (n, 3) ascending, V (n, 3, 3) with
    eigenvector j of matrix i in column j of V[i]). Tiny negative round-off
    eigenvalues (in [-1e-9 max(1, |lam|max), 0), the largest |eigenvalue|
    of the same matrix) are clamped to zero. Raises
    NotSymmetricError when ``|C - C.T|`` of any matrix exceeds 1e-9.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 3 or C.shape[1:] != (3, 3):
        raise InvalidSpecError(f"expected (n, 3, 3) stack, got {C.shape}")
    Ct = C.transpose(0, 2, 1)
    if len(C) and np.abs(C - Ct).max() > 1e-9:
        raise NotSymmetricError("matrix is not symmetric within 1e-9")
    lam, V = np.linalg.eigh((C + Ct) / 2.0)
    tol = 1e-9 * np.maximum(1.0, np.abs(lam).max(axis=1))
    lam = np.where((lam < 0.0) & (lam >= -tol[:, None]), 0.0, lam)
    return lam, V


def eigen_sym3(C: np.ndarray, centroid=(0.0, 0.0, 0.0)) -> EigenDecomp:
    """Eigen-decomposition of a symmetric 3x3 matrix, ascending eigenvalues
    (``eigen_sym3_stack`` on a stack of one)."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (3, 3):
        raise InvalidSpecError(f"expected 3x3 matrix, got {C.shape}")
    lam, V = eigen_sym3_stack(C[None])
    return EigenDecomp(lam[0], V[0], np.asarray(centroid, dtype=np.float64))


def pca_stats(points, subset=None) -> EigenDecomp:
    """Covariance eigen-analysis of a point subset (centroid carried along)."""
    centroid, C = covariance(points, subset)
    return eigen_sym3(C, centroid)


def query_workers() -> int:
    """Threads of one ``run_row_blocks`` call: the CPUs this process may
    run on, or 1 after ``single_threaded_queries`` and on ``run_beside``'s
    helper thread."""
    if getattr(_thread, "beside", False):
        return 1
    if _query_workers is not None:
        return _query_workers
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1


def single_threaded_queries() -> None:
    """Run every ``run_row_blocks`` block of this process inline (an
    initializer for worker processes that share the cores with each
    other)."""
    global _query_workers
    _query_workers = 1


def worker_pool(jobs: int) -> ProcessPoolExecutor:
    """``jobs`` worker processes of a ``--jobs`` command, each running its
    row blocks on one thread."""
    return ProcessPoolExecutor(max_workers=jobs,
                               initializer=single_threaded_queries)


def map_jobs(fn, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, on ``jobs`` processes when > 1."""
    if jobs > 1:
        with worker_pool(jobs) as pool:
            return list(pool.map(fn, *iterables))
    return list(map(fn, *iterables))


def run_row_blocks(n: int, job, block: Optional[int] = None) -> None:
    """Call ``job(rows)`` once per slice ``rows`` of the disjoint blocks
    ``[lo, lo + block)`` (``_ROW_BLOCK`` by default) that cover
    ``range(n)``, on ``query_workers()`` threads: the calling thread and
    ``query_workers() - 1`` helpers take the blocks in order from one
    shared list.

    Each job writes only its own rows of outputs the caller preallocated,
    so no lock is needed and no row depends on the blocking or on the
    thread count. With one worker or one block the jobs run inline, in
    order. The calling thread works until no block is left, so it waits
    only for the blocks the helpers still hold. The helpers end with the
    call, so a process forked after it inherits none. A job's exception is
    raised here.
    """
    if block is None:
        block = _ROW_BLOCK
    # a list iterator hands each block out once: next() holds the GIL
    blocks = iter([slice(lo, min(lo + block, n))
                   for lo in range(0, n, block)])

    def drain():
        for rows in blocks:
            job(rows)

    helpers = min(query_workers(), -(-n // block)) - 1
    if helpers <= 0:
        drain()
        return
    with ThreadPoolExecutor(helpers) as pool:
        running = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for f in running:
            f.result()


@contextmanager
def run_beside(job):
    """Run ``job()`` on one helper thread while the ``with`` block runs;
    yields a function that waits for the job and returns its result or
    raises its exception. With ``query_workers() == 1`` no thread is
    started: the job runs inline on entry. On the helper,
    ``query_workers()`` is 1, so the job runs its row blocks inline beside
    the block's own. The helper is joined when the block exits, whether it
    returns or raises.

    The helper is a one-worker ``ThreadPoolExecutor`` shut down as soon as
    the job is submitted, so its thread ends with the job, unlike an idle
    pool worker: glibc keeps a malloc arena per live thread, so a helper
    alive until the block exits sent the block's row-block threads to yet
    another arena, and each arena keeps its high-water mark resident.
    """
    if query_workers() == 1:
        result = job()
        yield lambda: result
        return
    def beside():
        _thread.beside = True
        return job()

    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(beside)
        pool.shutdown(wait=False)
        yield future.result


def eigh3_smallest(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and smallest-eigenvalue eigenvector of a stack
    of symmetric 3x3 matrices, read from their upper triangles.

    Eigenvalues come from Smith's trigonometric closed form, the eigenvector
    from the largest cross product of two rows of ``C - lambda0 I`` (unit
    length, arbitrary sign), both on ``C / trace(C)`` so that no product
    under- or overflows. Rows where ``lambda1 - lambda0`` is not above
    ``_EIGEN_GAP_TOL`` times the trace (NaN included, as for ``C = c I``,
    ``C = 0`` and a subnormal trace) take both from ``np.linalg.eigh``
    instead.

    cov is (n, 3, 3); returns (lam (n, 3), v0 (n, 3)).
    """
    n = len(cov)
    # C = 0, C = c I and a subnormal trace (1 / trace overflows) make NaNs
    # here; the gap test below routes them
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        trace = cov[:, 0, 0] + cov[:, 1, 1] + cov[:, 2, 2]
        inv = 1.0 / trace
        a00, a01, a02, a11, a12, a22 = (cov[:, i, j] * inv
                                        for i, j in _UPPER)
        q = 1.0 / 3.0                            # trace of C / trace(C)
        b00, b11, b22 = a00 - q, a11 - q, a22 - q
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
        det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
               + a02 * (a01 * a12 - b11 * a02))
        phi = np.arccos(np.clip(det / (2.0 * p * p * p), -1.0, 1.0)) / 3.0
        lam2 = q + 2.0 * p * np.cos(phi)
        lam0 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        lam1 = 1.0 - lam0 - lam2

        # C - lam0 I has rank 2 when lam0 is simple: the cross products of
        # its rows all lie along the null vector, the largest most exactly
        m00, m11, m22 = a00 - lam0, a11 - lam0, a22 - lam0
        cand = np.empty((n, 3, 3))
        cand[:, 0, 0] = a01 * a12 - a02 * m11       # row 0 x row 1
        cand[:, 0, 1] = a02 * a01 - m00 * a12
        cand[:, 0, 2] = m00 * m11 - a01 * a01
        cand[:, 1, 0] = a01 * m22 - a02 * a12       # row 0 x row 2
        cand[:, 1, 1] = a02 * a02 - m00 * m22
        cand[:, 1, 2] = m00 * a12 - a01 * a02
        cand[:, 2, 0] = m11 * m22 - a12 * a12       # row 1 x row 2
        cand[:, 2, 1] = a12 * a02 - a01 * m22
        cand[:, 2, 2] = a01 * a12 - m11 * a02
        norm2 = np.einsum("nij,nij->ni", cand, cand)
        rows = np.arange(n)
        best = np.argmax(norm2, axis=1)
        v0 = cand[rows, best] / np.sqrt(norm2[rows, best])[:, None]
    lam = np.stack([lam0, lam1, lam2], axis=1) * trace[:, None]

    bad = np.flatnonzero(~(lam1 - lam0 > _EIGEN_GAP_TOL))
    if len(bad):
        lam[bad], V = np.linalg.eigh(cov[bad])
        v0[bad] = V[:, :, 0]
    return lam, v0


def _oriented_normals(cov: np.ndarray, points: np.ndarray,
                      viewpoint: np.ndarray):
    """Normals, flipped toward ``viewpoint``, and curvature of the
    neighbourhood covariances ``cov`` of ``points`` (see
    ``normals_from_neighbors``)."""
    lam, normals = eigh3_smallest(cov)
    nrm = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.maximum(nrm, 1e-300)
    to_view = viewpoint - points
    flip = np.einsum("ij,ij->i", normals, to_view) < 0.0
    normals[flip] *= -1.0
    lam0 = np.maximum(lam[:, 0], 0.0)
    total = lam.sum(axis=1)
    curvature = np.where(total > 0.0, lam0 / np.maximum(total, 1e-300), 0.0)
    return normals, np.clip(curvature, 0.0, MAX_CURVATURE)


def kd_tree(points: np.ndarray):
    """A kd-tree of ``points`` for the queries that read only distances, or
    whose rows no tie can reorder: sliding-midpoint splits (Maneewongvatana
    & Mount 1999), the points not copied."""
    # scipy.spatial takes ~0.35 s to import; only kd-tree users pay for it
    from scipy.spatial import cKDTree
    return cKDTree(points, balanced_tree=False, copy_data=False)


def query_blocks(tree, points: np.ndarray, k: int, keep,
                 bound: float = np.inf) -> None:
    """Query the k nearest neighbours within ``bound`` of every row of
    ``points`` on ``tree`` in row blocks (``run_row_blocks``), calling
    ``keep(rows, dist, idx)`` with each block's distances and indices
    (``inf`` and ``tree.n`` where none is left within ``bound``). Each row
    gets what one whole query gives it; no (n, k) float table is held."""
    run_row_blocks(len(points), lambda rows: keep(rows, *tree.query(
        points[rows], k=k, distance_upper_bound=bound, workers=1)))


def knn_table(points: np.ndarray, k: int,
              rows: Optional[np.ndarray] = None) -> np.ndarray:
    """(n, k) indices of each point's k nearest points, nearest first, or
    just the rows of the points ``rows``; k is capped at n. A balanced
    kd-tree's order of equidistant points is the tie order of every
    neighbour table. Column 0 is the point or a coincident duplicate."""
    from scipy.spatial import cKDTree   # deferred, as in kd_tree

    k = min(k, len(points))
    centres = points if rows is None else points[rows]
    table = np.empty((len(centres), k), dtype=np.intp)

    def keep(block, _, idx):
        table[block] = idx.reshape(-1, k)

    query_blocks(cKDTree(points), centres, k, keep)
    return table


def normals_from_neighbors(points: np.ndarray, neighbor_idx: np.ndarray,
                           viewpoint) -> tuple[np.ndarray, np.ndarray]:
    """Normals and curvature given precomputed neighbour indices.

    Each row of ``neighbor_idx`` is a ``knn_table`` row, of any subset of
    the points: column 0, the point or a coincident duplicate, gives the
    centre that the normal's sign is judged from.

    The smallest-eigenvalue eigenvector of each neighbourhood covariance is
    the normal, flipped to point toward ``viewpoint``. Curvature is
    lambda0 / (lambda0 + lambda1 + lambda2), defined as 0 for an all-zero
    covariance, and always lies in [0, 1/3].

    The eigen-analysis is closed-form (Smith 1961; Kopp 2008, see
    ``eigh3_smallest``), which agrees with ``np.linalg.eigh`` to ~1e-14
    relative. A neighbourhood whose lambda1 - lambda0 is at most 1e-4 of
    its trace (all duplicates, collinear points) gets ``np.linalg.eigh``'s
    normal and eigenvalues exactly.

    The covariances are made in row blocks (``run_row_blocks``). A block
    gathers three contiguous (b, k) coordinate columns from x, y and z
    arrays made once per call, centres each row on its own mean and takes
    the six upper-triangle sums of products row by row (``einsum``, no
    BLAS). The eigen-analysis, dozens of small operations per block, then
    runs block by block on the calling thread, so the threads do not pass
    the GIL back and forth. Each row's sums read only that row and use no
    BLAS: every row is that of a single whole-cloud pass, bit for bit.
    """
    n, k = neighbor_idx.shape
    view = np.asarray(viewpoint, dtype=np.float64)
    columns = [np.ascontiguousarray(points[:, axis]) for axis in range(3)]
    cov = np.empty((n, 3, 3))

    def covariances(block):
        xs = [c[neighbor_idx[block]] for c in columns]    # 3 x (b, k)
        for x in xs:
            x -= x.mean(axis=1, keepdims=True)
        for i, j in _UPPER:
            cov[block, i, j] = cov[block, j, i] = np.einsum(
                "ij,ij->i", xs[i], xs[j]) / k

    run_row_blocks(n, covariances)
    normals = np.empty((n, 3))
    curvature = np.empty(n)
    for lo in range(0, n, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        normals[block], curvature[block] = _oriented_normals(
            cov[block], points[neighbor_idx[block, 0]], view)
    return normals, curvature


def estimate_normals(points, k: int = 30,
                     viewpoint=(0.0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Per-point PCA normals and curvature from k-nearest neighbourhoods.

    Args:
        points: (n, 3) coordinates, at least k of them.
        k: neighbourhood size, >= 3; the query point counts as a neighbour.
        viewpoint: normals are sign-flipped to face this position. Scans are
            stored in the sensor frame, so the default (origin) orients
            normals toward the sensor.

    Returns:
        (normals (n, 3) unit, curvature (n,) in [0, 1/3]).
    """
    pts = _finite_points(points)
    k = field_value(int, None, k)
    if k < 3:
        raise TooFewPointsError(f"k={k} must be at least 3")
    if len(pts) < k:
        raise TooFewPointsError(f"cloud has {len(pts)} points, needs >= {k}")
    return normals_from_neighbors(pts, knn_table(pts, k), viewpoint)


def grid_cells(points: np.ndarray, edge: float) -> tuple[np.ndarray, int]:
    """The occupied cell of each point in a grid of cubes of edge ``edge``.

    Point p lies in cell floor(p / edge) per axis. Returns each point's
    index among the occupied cells, numbered in lexicographic (x, y, z)
    order of their keys, and the number of occupied cells. The three keys
    are packed into one int64 when the grid's extent allows it; otherwise
    the key rows are compared whole, so a fine grid never merges cells.
    """
    # coordinate-major (3, n): reductions over n then run on contiguous rows
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    keys = np.floor(pts / edge)
    lo, hi = keys.min(axis=1), keys.max(axis=1)
    spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    # below 2**52 the keys and their offsets from lo are exact integers
    if (max(np.abs(lo).max(), np.abs(hi).max()) < 2.0**52
            and spans[0] * spans[1] * spans[2] <= np.iinfo(np.int64).max):
        keys -= lo[:, None]
        k = keys.astype(np.int64)
        flat = (k[0] * spans[1] + k[1]) * spans[2] + k[2]
        uniq, inv = np.unique(flat, return_inverse=True)
    else:
        uniq, inv = np.unique(keys.T, axis=0, return_inverse=True)
    return inv.reshape(-1), len(uniq)


def voxel_downsample(points, leaf: float) -> np.ndarray:
    """Grid filter: the (m, 3) centroids of the points in each occupied
    voxel of edge ``leaf`` (floor(coord / leaf) per axis, ``grid_cells``),
    in voxel-key order."""
    if not leaf > 0.0:
        raise NonPositiveLeafError(f"leaf={leaf} must be > 0")
    pts = _finite_points(points)
    if len(pts) == 0:
        return np.zeros((0, 3))
    inv, m = grid_cells(pts, leaf)
    counts = np.bincount(inv, minlength=m).astype(np.float64)
    centroids = np.empty((m, 3))
    for d in range(3):
        centroids[:, d] = np.bincount(inv, weights=pts[:, d], minlength=m)
    centroids /= counts[:, None]
    return centroids


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
