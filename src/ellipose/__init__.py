"""Object-based camera pose estimation from ellipse-ellipsoid geometry.

Objects are abstracted as labeled ellipsoids; detections as ellipses.
The package covers the exact projective algebra, multiview ellipsoid
reconstruction, pose solvers with RANSAC, the decoder of a bin-coded
ellipse parameterization for learned detection heads, a synthetic scene
simulator with noise models, evaluation metrics, and file formats plus a
CLI.
"""

from .errors import (
    AmbiguousSolution,
    BehindCamera,
    DegenerateBox,
    DegenerateConfiguration,
    DegeneratePointSet,
    ElliposeError,
    EmptyInput,
    EmptyPointSet,
    InsufficientViews,
    InvalidDims,
    NoConvergence,
    NotAnEllipse,
    NotAnEllipsoid,
    NoValidPose,
    ParseError,
    SchemaVersionMismatch,
    SingularTransform,
)
from .geometry import (
    Box,
    CameraModel,
    Conic,
    DualQuadric,
    Ellipse,
    Ellipsoid,
    FrameTransform,
    Pose,
    canonicalize,
    conic_to_ellipse,
    crop_transform,
    dual_quadric_to_ellipsoid,
    ellipse_to_conic,
    ellipsoid_to_dual_quadric,
    inscribed_ellipse,
    project_ellipsoid,
    transform_conic,
    transform_ellipse,
    wrap_angle_half_pi,
)
from .metrics import (
    add_error,
    ellipse_iou,
    pose_errors,
    reprojection_error,
)
from .multibin import (
    MultibinConfig,
    MultibinPrediction,
    decode_prediction,
    perfect_prediction,
)
from .pose import (
    PoseEstimate,
    RansacOptions,
    ransac_pose,
)
from .reconstruction import (
    CalibratedView,
    EllipsoidCloud,
    Observation,
    ViewAnnotations,
    generate_annotations,
    reconstruct_cloud,
    reconstruct_ellipsoid,
)
from .simulator import (
    CameraRig,
    DetectorModel,
    OrientationNoise,
    SceneObject,
    SceneSpec,
    default_camera,
    look_at,
    min_enclosing_ellipse,
    perturb_orientation,
    render_detections,
    run_detector,
    sample_cameras,
    sample_ellipsoid_surface,
    tless_like_board,
)

__version__ = "0.1.0"
