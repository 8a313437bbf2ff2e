"""trusskit: synthetic LiDAR scans of truss structures and analytical
truss-vs-background segmentation with its evaluation toolkit."""

from .geom import (
    EigenDecomp,
    LabeledCloud,
    Pose,
    covariance,
    eigen_sym3,
    estimate_normals,
    extent_along,
    voxel_downsample,
)
# note: the metrics() function itself is not re-exported here so the name
# trusskit.metrics keeps referring to the submodule
from .metrics import (
    CloudMetrics,
    ConfusionMatrix,
    DatasetReport,
    confusion,
    evaluate_dataset,
    select_threshold_pr,
    select_threshold_roc,
    time_pipeline,
)
from .primitives import Ellipsoid, HeightFieldGround, OrientedBox, Scene, VerticalCylinder
from .segment import (
    Cluster,
    PipelineConfig,
    Plane,
    SegmentationOutput,
    classify_cluster,
    coarse_split,
    density_filter,
    ransac_plane,
    region_grow,
    run_pipeline,
)
from .synth import (
    BoxFieldSpec,
    SceneSpec,
    SensorConfig,
    TrussSpec,
    build_scene,
    build_truss,
    generate_dataset,
    raycast_scan,
    sample_sensor_pose,
)

__version__ = "0.1.0"
