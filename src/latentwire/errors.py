"""Exception types shared across the package.

A value that is out of range or of the wrong type (a config field, a
config-file entry, a flag, a record's shape, an unknown activation,
optimizer, family or partition) is a ValueError, refused before any work
starts. What the package refuses while it works (data, shapes, frames,
state) is a LatentWireError. A subclass exists only for a reader that
tells it apart: an ``except`` clause that catches it by name, or a failed
cell's report row, which names the exception's type. Any other such
refusal raises LatentWireError itself, and its message says which check
fired.
"""


class LatentWireError(Exception):
    """Base class for all latentwire errors."""


class InvalidGeometryError(LatentWireError):
    """A layer cannot be applied to its input shape."""


class UnachievableRatioError(LatentWireError):
    """No (stage count, latent channels) pair realizes the requested ratio."""


class DivergenceError(LatentWireError):
    """Training loss became non-finite."""


class TooManyDevicesError(LatentWireError):
    """More devices requested than samples available."""


class SinkFailure(LatentWireError):
    """A latent sink rejected a record; carries the count emitted so far."""

    def __init__(self, message, emitted=0):
        super().__init__(message)
        self.emitted = emitted
