"""Exception hierarchy shared by all riemgrid modules."""


class RiemgridError(Exception):
    """Base class for all library errors."""


class PositivityLoss(RiemgridError):
    """A metric (or a point of a geodesic) left the SPD cone."""


class ToleranceNotMet(RiemgridError):
    """A computed result missed its requested tolerance."""


class NoConvergence(RiemgridError):
    """A solver did not reach tolerance, or a target lies outside a chart's domain."""


class SolverStall(RiemgridError):
    """A splitting solve missed its tolerance or its iteration budget."""


class JacobianSignFlip(RiemgridError):
    """A candidate map fails the pointwise Jacobian-positivity proxy."""


class StepFailure(RiemgridError):
    """A flow or map left the displacement representation.

    Raised when t max|X| exceeds the flow bound 1/4, and when flow positions
    or displacement samples are non-finite.
    """


class RadiusTooLarge(RiemgridError):
    """Requested slice radius violates the isotropy-constancy bound."""


class ScalarPoint(RiemgridError):
    """Orbit chart requested at a scalar matrix, where the orbit degenerates."""


class OutsideTube(RiemgridError):
    """Point lies outside the tubular neighborhood served by the chart."""


class FormatError(RiemgridError):
    """On-disk field file has a bad magic line, version, or header."""


class ValidationError(RiemgridError):
    """On-disk payload violates the structural constraints of its declared kind."""
