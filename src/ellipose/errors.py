"""Exception hierarchy shared by all modules."""


class ElliposeError(Exception):
    """Base class for every error raised by this package."""


class NotAnEllipse(ElliposeError):
    """Conic matrix does not have the signature of a real ellipse."""


class NotAnEllipsoid(ElliposeError):
    """Quadric matrix does not have the signature of an ellipsoid."""


class BehindCamera(ElliposeError):
    """Geometry lies at non-positive depth in the camera frame."""


class SingularTransform(ElliposeError):
    """Plane transform matrix is not invertible."""


class InvalidDims(ElliposeError):
    """Decoded ellipse dimensions are not strictly positive."""


class InsufficientViews(ElliposeError):
    """Fewer distinct views than the solver minimum."""


class DegenerateConfiguration(ElliposeError):
    """Input geometry leaves the problem rank-deficient or ill-posed."""


class AmbiguousSolution(ElliposeError):
    """Several solutions fit the data equally well.

    Raised by ``pose.ransac_pose`` when two distinct hypotheses tie on the
    consensus key; ``candidates`` holds the two poses.
    """

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class NoValidPose(ElliposeError):
    """No hypothesis reached the minimal inlier count."""


class DegenerateBox(ElliposeError):
    """Box perturbation produced a zero-area box repeatedly."""


class DegeneratePointSet(ElliposeError):
    """Point set does not span the plane (too few or collinear points)."""


class EmptyPointSet(ElliposeError):
    """Metric requested over an empty point set."""


class EmptyInput(ElliposeError):
    """Operation requested over empty input."""


class ParseError(ElliposeError):
    """A structured file could not be decoded.

    Carries the offending file, record and field so failures are actionable.
    """

    def __init__(self, message, *, file=None, record=None, field=None):
        parts = [message]
        if file is not None:
            parts.append(f"file={file}")
        if record is not None:
            parts.append(f"record={record}")
        if field is not None:
            parts.append(f"field={field}")
        super().__init__(" | ".join(str(p) for p in parts))
        self.file = file
        self.record = record
        self.field = field


class SchemaVersionMismatch(ParseError):
    """File declares a schema version this code does not understand."""
