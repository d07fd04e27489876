"""Exception types raised by the stepdist package.

``InputError`` subclasses mark problems with user-supplied data files;
everything else signals a numerical or configuration problem. The CLI
maps the two families to different exit codes.
"""


class StepDistError(Exception):
    """Base class for all stepdist errors."""


class InputError(StepDistError):
    """Problem with user-supplied input data (CLI exit code 1)."""


class UnparseableCell(InputError):
    """A CSV cell is neither numeric nor a recognised missing-value token."""


class AllMissingColumn(InputError):
    """A series column contains no observations at all."""


class IdMismatch(InputError):
    """Series ids and station metadata ids do not line up."""


class SeriesTooShort(StepDistError):
    """Series has fewer than 2 * min_segment observations."""


class DegenerateSegment(StepDistError):
    """A segment is too small for the requested statistic."""


class DomainMismatch(StepDistError):
    """Two step functions live on different domains [0, H]."""


class ZeroFunction(StepDistError):
    """Operation undefined for the (almost-everywhere) zero function."""


class EmptySet(StepDistError):
    """Set-based metrics are undefined for empty change-point sets."""


class LabelMismatch(StepDistError):
    """Two labeled matrices do not share the same label sequence."""


class InvalidCoordinate(InputError):
    """Latitude/longitude outside the valid range."""


class DuplicateStation(InputError):
    """Two stations in one collection share an id."""


class BadK(StepDistError):
    """Requested cluster count is outside 1..n."""


class DisconnectedDegenerate(StepDistError):
    """Affinity matrix has an all-zero row; spectral embedding undefined."""


class WindowOutOfRange(StepDistError):
    """Perturbation window does not fit inside the series domain."""
