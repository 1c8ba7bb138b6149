"""Exception types shared across the package."""


class LatentWireError(Exception):
    """Base class for all latentwire errors."""


class ShapeMismatchError(LatentWireError):
    """Operand shapes disagree (channels, widths, batch extents)."""


class InvalidGeometryError(LatentWireError):
    """A layer cannot be applied to its input shape; raised during a shape
    walk, the message names the offending layer's index."""


class UnachievableRatioError(LatentWireError):
    """No (stage count, latent channels) pair realizes the requested ratio."""


class NotFittedError(LatentWireError):
    """Device encoder used before fit completed."""


class DivergenceError(LatentWireError):
    """Training loss became non-finite."""


class LabelRangeError(LatentWireError):
    """A class label falls outside [0, num_classes)."""


class CacheError(LatentWireError):
    """Layer cache missing or already consumed by a backward pass."""


class TooManyDevicesError(LatentWireError):
    """More devices requested than samples available."""


class SinkFailure(LatentWireError):
    """A latent sink rejected a record; carries the count emitted so far."""

    def __init__(self, message, emitted=0):
        super().__init__(message)
        self.emitted = emitted


class NoClassifierError(LatentWireError):
    """Hub asked to predict before a classifier was trained."""


class HeterogeneousShapeError(LatentWireError):
    """Stored latents for one split do not share a single shape."""


class DatasetFormatError(LatentWireError):
    """Dataset file missing, short, or carrying out-of-range labels."""
