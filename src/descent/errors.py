"""Exception types shared across the package."""


class DescentError(Exception):
    """Base class for all package-specific errors."""


class InfiniteGroup(DescentError):
    """The Coxeter matrix does not define a finite group."""


class RankCapExceeded(DescentError):
    """Rank above the supported cap (6 by default, 7 with allow_rank7)."""


class UnsupportedType(DescentError):
    """Type label that cannot be parsed or built."""


class SystemMismatch(DescentError):
    """Operands belong to different Coxeter systems."""


class InvalidSubset(DescentError):
    """Generator subset outside the system's generator set."""


class WrongType(DescentError):
    """Operation restricted to a specific family of types."""


class RankTooSmall(DescentError):
    """Operation needs a larger rank than the system has."""


class NotInDescentAlgebra(DescentError):
    """Group-algebra element that is not constant on descent classes."""


class NotSelfOpposed(DescentError):
    """Subset is conjugate to a different subset of the generators."""


class AutomorphismMismatch(DescentError):
    """Permutation is not a diagram automorphism of the system."""


class UnavailableAutomorphism(DescentError):
    """No diagram automorphism of the requested order exists."""


class AutomorphismRowsDiffer(DescentError):
    """Diagram automorphisms of one order give different table rows."""


class UnknownSuite(DescentError):
    """Verification suite name not recognized."""


class CorruptCache(DescentError):
    """Cache entry failed checksum or schema validation."""


class ParseError(DescentError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position
