"""Exception hierarchy for geometric degeneracies and contract violations."""


class GeometryError(Exception):
    """Base class for all geometric failures."""


# -- incidence / construction --------------------------------------------

class CoincidentPoints(GeometryError):
    pass


class CoincidentLines(GeometryError):
    pass


class NotCollinear(GeometryError):
    pass


class NotConcurrent(GeometryError):
    pass


class IndeterminateRatio(GeometryError):
    """Cross ratio of a coincidence pattern that evaluates to 0/0."""


class DegenerateTriple(GeometryError):
    pass


class NonRealInput(GeometryError):
    pass


class DegenerateQuadrangle(GeometryError):
    pass


class LineThroughVertex(GeometryError):
    pass


# -- conics ---------------------------------------------------------------

class DegenerateConic(GeometryError):
    pass


class DegenerateInput(GeometryError):
    pass


class TangentLine(GeometryError):
    pass


class PointNotOnLine(GeometryError):
    pass


class PointOnConic(GeometryError):
    pass


class PointNotOnConic(GeometryError):
    pass


class PointsNotConconic(GeometryError):
    pass


# -- metric layer ----------------------------------------------------------

class PointOutsideModel(GeometryError):
    pass


class VertexOutsideModel(GeometryError):
    pass


class EndpointOnConic(GeometryError):
    pass


class CenterOnConic(GeometryError):
    pass


class DifferentOrigins(GeometryError):
    pass


# -- triangle configurations ------------------------------------------------

class GeneralPositionViolation(GeometryError):
    """Raised when a triangle/polar-triangle pair is not in general position.

    The first argument names the clause that failed.
    """


class KindMismatch(GeometryError):
    pass


class NonConcurrentCevians(GeometryError):
    pass


class NoCoherentAssignment(GeometryError):
    pass


# -- harness ----------------------------------------------------------------

class SamplingExhausted(GeometryError):
    pass


class UnknownTheorem(GeometryError):
    pass


class ChartDegenerate(GeometryError):
    pass
