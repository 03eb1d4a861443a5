"""Keypoint curvature toolkit.

Turns 15-keypoint shaft detections (three rows of five, base to tip) into
bend-angle measurements, aggregates them over video frame streams with the
max-angle rule, classifies cases against a configurable angle threshold,
and scores classifier performance. A synthetic planar-hinge generator
provides ground-truth frames for validating the measurement chain.
"""

from .annotation import (
    AnnotationError,
    BoundingBox,
    CvatImageAnnotation,
    FrameDetection,
    KeypointSet,
    NormalizedPoint,
    convert_cvat_to_yolo,
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from .evaluation import (
    CaseRecord,
    ConfusionMatrix,
    Diagnosis,
    MetricsReport,
    classify,
    confusion,
    evaluate_dataset,
    metrics,
    round_half_up,
)
from .geometry import (
    AngleSet,
    DegenerateVectorError,
    compute_angles,
    line_angles,
    middle_line,
    vector_angle,
)
from .sequence import (
    AllFramesInvalidError,
    CaseMeasurement,
    EmptySequenceError,
    FrameMeasurement,
    measure_sequence,
    measure_single,
    measure_stream,
)
from .synth import (
    BadPoseError,
    BadSpecError,
    CameraPose,
    DegenerateProjectionError,
    HingeModelSpec,
    SynthFrame,
    build_model,
    project,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AllFramesInvalidError",
    "AngleSet",
    "AnnotationError",
    "BadPoseError",
    "BadSpecError",
    "BoundingBox",
    "CameraPose",
    "CaseMeasurement",
    "CaseRecord",
    "ConfusionMatrix",
    "CvatImageAnnotation",
    "DegenerateProjectionError",
    "DegenerateVectorError",
    "Diagnosis",
    "EmptySequenceError",
    "FrameDetection",
    "FrameMeasurement",
    "HingeModelSpec",
    "KeypointSet",
    "MetricsReport",
    "NormalizedPoint",
    "SynthFrame",
    "build_model",
    "classify",
    "compute_angles",
    "confusion",
    "convert_cvat_to_yolo",
    "emit_yolo_line",
    "evaluate_dataset",
    "line_angles",
    "measure_sequence",
    "measure_single",
    "measure_stream",
    "metrics",
    "middle_line",
    "parse_cvat_xml",
    "parse_yolo_line",
    "project",
    "round_half_up",
    "sweep",
    "vector_angle",
]
