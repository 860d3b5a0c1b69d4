"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class GeometryError(ValueError):
    """Geometrically infeasible request (degenerate cone, receiver outside the room)."""


class InfeasiblePlanError(RuntimeError):
    """No secrecy-code parameters can meet the reliability target (CLI exit code 3)."""


class ProfileError(ValueError):
    """The security level never falls below a threshold target (CLI exit code 2)."""
