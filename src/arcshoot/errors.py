"""Exception types raised across the solver."""


class ArcshootError(Exception):
    """Base class for all solver errors."""


class ConfigurationError(ArcshootError):
    """Problem or run configuration is inconsistent (dimensions, bounds, files)."""


class FirstOrderViolation(ArcshootError):
    """|dg(x) f1(x)| fell below the guard on a constrained arc.

    Carries the offending state and the denominator value.
    """

    def __init__(self, x, denominator):
        self.x = x
        self.denominator = denominator
        super().__init__(
            f"first-order condition violated: |dg.f1| = {abs(denominator):.3e} at x = {x}"
        )


class SingularDenominatorError(ArcshootError):
    """p [[f1,f0],f1](x) fell below the guard while recovering a singular control."""

    def __init__(self, x, denominator):
        self.x = x
        self.denominator = denominator
        super().__init__(
            f"singular-control denominator too small: {denominator:.3e} at x = {x}"
        )


class StructureDetectionError(ArcshootError):
    """Detected arc sequence violates the structure invariants.

    ``raw`` holds the per-node classification for inspection.
    """

    def __init__(self, message, raw=None):
        self.raw = raw
        super().__init__(message)


class NonFiniteState(ArcshootError):
    """Propagation produced a non-finite state or costate node."""


class NonFiniteResidual(ArcshootError):
    """Shooting residual contains non-finite entries."""


class AssemblyError(ArcshootError):
    """Quadratic-form assembly produced an inconsistency (e.g. asymmetric Hessian)."""
