"""Exception types shared across the simulator."""


class RpodError(Exception):
    """Base class for all simulator errors."""


class SingularRadius(RpodError):
    """Raised when a coast passes below the Earth's surface."""


class KeplerNonConvergence(RpodError):
    """Raised when a closed-form two-body coast cannot be solved: the
    universal Kepler iteration hits its cap, or the coast leaves the range
    of double precision."""


class UnboundOrbit(RpodError):
    """Raised when a two-body coast starts at or above the escape speed: an
    escaping chaser is not flying a relative-motion maneuver."""


class SingularTransferTime(RpodError):
    """Raised when the targeting system is singular for the requested
    transfer time (e.g. a whole number of orbital periods)."""


class UnphysicalBurn(RpodError):
    """Raised when a guidance burn reaches the chief's circular speed: the
    relative-motion targeting has left any regime it can model (e.g. legs
    spanning millions of orbits)."""
