"""Exception types raised across the toolkit.

Everything derives from TrussKitError so callers can catch broadly; most
classes also subclass ValueError because they signal invalid arguments.
"""


class TrussKitError(Exception):
    """Base class for all toolkit errors."""


# geometry / containers

class NonFiniteError(TrussKitError, ValueError):
    """A coordinate is NaN or infinite."""


class EmptySubsetError(TrussKitError, ValueError):
    """A subset argument selected zero points."""


class NotSymmetricError(TrussKitError, ValueError):
    """Matrix expected to be symmetric is not (within tolerance)."""


class TooFewPointsError(TrussKitError, ValueError):
    """Cloud has fewer points than the requested neighbourhood size."""


class NonPositiveLeafError(TrussKitError, ValueError):
    """Voxel leaf size must be strictly positive."""


class NonUnitDirectionError(TrussKitError, ValueError):
    """Direction vector is not unit length (within tolerance)."""


# synthesis

class InvalidSpecError(TrussKitError, ValueError):
    """Structure/scene specification violates its invariants."""


class InvalidBoundsError(TrussKitError, ValueError):
    """Sampling bounds are degenerate or ill-ordered."""


# segmentation

class DegenerateCloudError(TrussKitError, ValueError):
    """All points coincident/collinear; no plane can be fitted."""


# metrics

class LengthMismatchError(TrussKitError, ValueError):
    """Paired per-point sequences have different lengths."""


class EmptyInputError(TrussKitError, ValueError):
    """Metric computation received zero points."""


class SingleClassError(TrussKitError, ValueError):
    """Threshold search needs both classes present in the truth labels."""


# file formats

class MalformedHeaderError(TrussKitError, ValueError):
    """PCD header cannot be parsed or is internally inconsistent."""


class TruncatedBodyError(TrussKitError, ValueError):
    """PCD body holds fewer points than the header declares."""


class MissingXyzError(TrussKitError, ValueError):
    """PCD file lacks x, y or z fields."""


class MissingAttributesError(TrussKitError, ValueError):
    """Feature export requires normals and curvature."""


# configuration

class ConfigError(TrussKitError, ValueError):
    """Base class for configuration file problems."""


class UnknownKeyError(ConfigError):
    """Configuration contains a key outside the documented schema."""


class ConfigTypeError(ConfigError):
    """Configuration value cannot be parsed as the documented type."""


class ConfigRangeError(ConfigError):
    """Configuration value is outside its documented range."""
