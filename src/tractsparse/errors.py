"""Exception hierarchy.

Two broad families matter for the CLI exit codes: ``DataError`` (malformed
or inconsistent input, exit 3) and ``NumericalError`` (a solver or
factorization failed, exit 4).
"""


class TractsparseError(Exception):
    """Base class for all errors raised by this package."""


class DataError(TractsparseError):
    """Invalid or inconsistent input data."""


class NumericalError(TractsparseError):
    """A numerical procedure failed to produce a usable result."""


# --- data errors -----------------------------------------------------------

class EmptyTractogram(DataError):
    pass


class DegenerateStreamline(DataError):
    """A streamline with fewer than 2 points."""


class NonFiniteCoordinate(DataError):
    pass


class AllZeroDistances(DataError):
    """No kernel width: the distances are all zero or too small to square."""


class LengthMismatch(DataError):
    pass


class EmptyCluster(DataError):
    """A label value with no member streamlines."""


class AtlasVersionMismatch(DataError):
    """Atlas on disk uses an unknown format version or incompatible settings."""


class FormatError(DataError):
    """A file does not match its declared binary/text format."""


# --- numerical errors ------------------------------------------------------

class EigenFailure(NumericalError):
    pass


class MaxIterations(NumericalError):
    pass


class SingularPencil(NumericalError):
    """Sylvester operands share spectrum; the equation has no unique solution."""


class SingularAfterRidge(NumericalError):
    pass


class SylvesterFailure(NumericalError):
    pass


class ZeroDegreeRow(NumericalError):
    """A kernel row sums to zero; the normalized Laplacian is undefined."""


class DegenerateAtom(NumericalError):
    """A dictionary column with non-positive self-similarity."""


# --- warnings --------------------------------------------------------------

class RankDeficientWarning(UserWarning):
    """More than half of the landmark eigenvalues were dropped."""


class SingleClusterWarning(UserWarning):
    """Silhouette requested for a labeling with fewer than 2 clusters."""
