"""Exception types raised across the toolkit.

Everything derives from TrussKitError so callers can catch broadly; most
classes also subclass ValueError because they signal invalid arguments.
"""


class TrussKitError(Exception):
    """Base class for all toolkit errors."""


# geometry / containers

class NonFiniteError(TrussKitError, ValueError):
    """A coordinate is NaN or infinite."""


class CoordinateRangeError(TrussKitError, ValueError):
    """A finite coordinate's magnitude exceeds ``geom.COORDINATE_BOUND``."""


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


class FieldTypeError(InvalidSpecError):
    """A field refuses a value; ``reason`` reads ``must be …, not …``."""

    def __init__(self, field: str, reason: str):
        super().__init__(field, reason)
        self.field, self.reason = field, reason

    def __str__(self):
        return f"{self.field} {self.reason}"


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


class FieldRangeError(TrussKitError, ValueError):
    """A PCD value does not fit the type of its field."""


class LatencySidecarError(TrussKitError, ValueError):
    """A ``.latency.json`` sidecar is not a JSON object, or its
    ``total_ms`` is not a finite number >= 0."""


# configuration

class ConfigError(TrussKitError, ValueError):
    """Base class for configuration file problems."""


class UnknownKeyError(ConfigError):
    """Configuration contains a key outside the documented schema."""


class ConfigTypeError(ConfigError):
    """Configuration value cannot be parsed as the documented type."""


class ConfigRangeError(ConfigError):
    """Configuration value is outside its documented range."""
