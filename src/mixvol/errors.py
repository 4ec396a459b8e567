"""Exception hierarchy shared by all mixvol modules.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError is reserved for violated preconditions that indicate a
programming error rather than bad data.
"""


class MixvolError(Exception):
    """Base class for all mixvol-specific errors."""


class DegenerateInput(MixvolError):
    """Input collapses below the dimension an operation requires."""


class NumericalDegeneracy(MixvolError):
    """An exact geometric routine lost confidence in its predicates."""


class ResolutionTooCoarse(MixvolError):
    """Grid resolution cannot separate boundary from bulk."""


class ZeroDirection(MixvolError):
    """A direction vector of (near-)zero length was supplied."""


class DegenerateHull(MixvolError):
    """Structuring set spans less than two dimensions."""


class NonDecreasingSchedule(MixvolError):
    """Epsilon schedules must be strictly decreasing and positive."""


class SingularPoint(MixvolError):
    """Boundary probe addressed a vertex instead of an edge interior."""


class IllConditioned(MixvolError):
    """Fit grid too narrow to determine the requested coefficients."""


class RankDeficient(MixvolError):
    """Generators fail to span the ambient space."""


class NotPrimitive(MixvolError):
    """Lattice edge vector has a nontrivial common divisor."""


class CapExceeded(MixvolError):
    """Exact enumeration refused: size beyond the configured cap."""
