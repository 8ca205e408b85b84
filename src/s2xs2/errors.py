"""Exception types shared across the package."""


class S2xS2Error(Exception):
    """Base class for all package-specific errors."""


class NegativeAxis(S2xS2Error):
    """Ellipse semiaxis must be nonnegative."""


class QuadratureNotConverged(S2xS2Error):
    """Successive quadrature refinement levels failed to agree."""


class NotLagrangian(S2xS2Error):
    """Surface fails the Lagrangian defect gate."""


class CoaxialCircles(S2xS2Error):
    """Circle axes are parallel; intersection is not a finite point set."""


class NonTransversalSample(S2xS2Error):
    """An intersection point failed the transversality check."""


class GridUnstable(S2xS2Error):
    """Intersection count changed between grid resolutions m and 2m."""


class ExcessiveDiscards(S2xS2Error):
    """More than 1% of Monte Carlo samples were discarded."""


class StepSizeTooLarge(S2xS2Error):
    """A single integrator step moved a point farther than allowed."""


class ExpressionSyntaxError(S2xS2Error):
    """Expression text failed to parse; carries byte position and expected set."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at byte {position}")
        self.position = position
        self.expected = frozenset(expected)


class DegreeTooHigh(S2xS2Error):
    """Expanded polynomial exceeds total degree 3."""


class UnknownVariable(S2xS2Error):
    """Expression references a variable other than x1,y1,z1,x2,y2,z2."""

    def __init__(self, name, position):
        super().__init__(f"unknown variable {name!r} at byte {position}")
        self.name = name
        self.position = position
