"""Exception types raised by the estimation pipeline."""


class EstimationError(Exception):
    """Base class for all estimation failures in this package."""


class NonConvergence(EstimationError):
    """Newton iteration did not reach the residual tolerance.

    Raised for the row codes ``SINGULAR``, ``STALLED`` and ``CAPPED`` of
    :mod:`forestdens.expfam`.  Carries the last iterate as ``solution`` so
    callers can inspect the residual and decide on a fallback.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class BoundaryMoment(EstimationError):
    """The moment target sits at or outside the attainable moment space.

    Raised for the row codes ``RANGE`` (a target component at or beyond the
    basis range) and ``ESCAPED`` (the iterate escaped the solver's box bound)
    of :mod:`forestdens.expfam`.  The offending target is ``target``.
    """

    def __init__(self, message, target=None):
        super().__init__(message)
        self.target = target


class AllWeightsZero(EstimationError):
    """Every tree produced an empty leaf, so all similarity weights are zero."""


class NoCleanTrees(EstimationError):
    """Some delete-group has no tree subsample disjoint from it."""


class MissingPlan(EstimationError):
    """A standard error was requested from a fit built without ``se_params``."""


class ZeroDenominator(EstimationError):
    """The kernel denominator vanished: no sample mass near the query point."""
