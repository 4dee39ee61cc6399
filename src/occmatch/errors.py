"""Exception types raised by the library's contract checks."""


class OccMatchError(ValueError):
    """Base class for all contract violations in this package."""


class NonPositiveDepthError(OccMatchError):
    """A point with z <= 0 cannot be projected."""


class EmptyDepthError(OccMatchError):
    """A depth map holds no valid (non-zero) pixel."""


class EmptyCloudError(OccMatchError):
    """No valid depth pixel in either view; nothing to fuse."""


class GridSizeError(OccMatchError):
    """A grid would exceed the memory limit of its module."""


class ShapeMismatchError(OccMatchError):
    """Array shapes disagree where they must match."""


class ChannelMismatchError(OccMatchError):
    """Feature grids with different channel counts cannot be scored."""


class UnknownAngleError(OccMatchError):
    """Rotation angle is not a finite number of degrees."""


class EmptyCandidatesError(OccMatchError):
    """Selection over an empty candidate list."""


class EmptyGroundTruthError(OccMatchError):
    """All ground-truth match classes are empty."""


class DegenerateHeatmapError(OccMatchError):
    """Heatmap has a negative entry or non-positive total mass."""


class LengthMismatchError(OccMatchError):
    """Paired sequences differ in length."""


class InsufficientMatchesError(OccMatchError):
    """Fewer correspondences than the minimal solver needs."""


class DegenerateConfigurationError(OccMatchError):
    """No essential-matrix decomposition passes the cheirality test."""


class ZeroTranslationError(OccMatchError):
    """Translation direction is undefined for a zero vector."""


class EmptyListError(OccMatchError):
    """An aggregate over an empty sequence is undefined."""


class SchemaError(OccMatchError):
    """A file's content is malformed; the message names file and field."""
