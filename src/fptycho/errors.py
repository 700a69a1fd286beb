"""Exception types shared across the package.

The CLI maps these onto process exit codes: FormatError and ManifestError
exit 2, NumericalError exits 3, anything else exits 1.
"""


class FptychoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FptychoError):
    """Two grids that must share a shape do not."""


class WindowOutOfBounds(FptychoError):
    """A requested spectrum window falls outside the grid."""


class InvalidModeCount(FptychoError):
    """Zernike mode count must be >= 1."""


class DegeneratePupil(FptychoError):
    """Pupil is identically zero where a normalization needs its max."""


class DegenerateField(FptychoError):
    """Field is identically zero where a normalization needs its max."""


class DegenerateReference(FptychoError):
    """Reference grid for alignment/metrics is identically zero."""


class FormatError(FptychoError):
    """A binary grid file or CSV is structurally invalid."""


class ManifestError(FptychoError):
    """A dataset manifest is missing fields, has unknown fields, or is inconsistent."""


class NumericalError(FptychoError):
    """NaN or Inf showed up in data or solver state."""
