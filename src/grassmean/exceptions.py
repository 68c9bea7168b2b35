"""Exception and warning types shared across the package."""


class GrassmeanError(Exception):
    """Base class for all library errors.

    A failure of the mean solver carries its partial ``trace`` and the index
    of its ``problem`` in the batch; column-wise averaging names the
    ``column``.
    """

    status = None  # typed failures set their name in solver traces and result rows
    trace = problem = column = None


class InvalidInputError(GrassmeanError, ValueError):
    """Malformed or out-of-contract input."""


class CutLocusError(GrassmeanError):
    """Two points are numerically at or beyond the cut locus, so the
    connecting geodesic is not unique.

    ``index`` identifies the offending datum when raised from a multi-point
    computation, and the default message then names it.
    """

    status = "cut_locus"

    def __init__(self, message=None, index=None):
        subject = "a datum" if index is None else f"datum {index}"
        super().__init__(message or f"{subject} is at the cut locus of the evaluation point")
        self.index = index


class NotDescentDirectionError(GrassmeanError):
    """Line search was started along a direction with non-negative slope."""


class LineSearchFailedError(GrassmeanError):
    """Backtracking exhausted its shrink budget without an Armijo step."""

    status = "line_search_failed"


class DegenerateCurvatureError(GrassmeanError):
    """Second derivative along the search direction is numerically zero."""

    status = "degenerate_curvature"


class IllConditionedError(GrassmeanError):
    """A matrix that must be inverted is too close to singular."""

    status = "ill_conditioned"


class DegenerateAverageError(GrassmeanError):
    """Vector average cancelled to (numerically) zero."""

    status = "degenerate_average"


class AmbiguousModelWarning(UserWarning):
    """The model is close to unidentifiable (near-equal circularity spectrum)."""
