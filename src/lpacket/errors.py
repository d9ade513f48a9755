"""Exception hierarchy for the lpacket engine.

Every engine error derives from ``LPacketError`` so callers can trap the
whole family at once; the CLI maps parse problems, hypothesis violations
and verification failures to distinct exit codes.
"""


class LPacketError(Exception):
    """Base class for all engine errors."""


class NonUnitarySlope(LPacketError):
    """A character with a nonzero norm-power slope has no duality sign."""


class DimensionMismatch(LPacketError):
    """Block dimensions do not add up to the group rank."""


class WrongDualitySign(LPacketError):
    """A block's conjugate-duality sign disagrees with the target group."""


class FlagContradiction(LPacketError):
    """A user-supplied flag contradicts the derived value."""


class RankMismatch(LPacketError):
    """Character or element length differs from the component-group rank."""


class NoEmbedding(LPacketError):
    """A basis summand has no image inside the larger component group."""


class MissingTableEntry(LPacketError):
    """Table epsilon backend has no entry for the requested key."""


class NotSupercuspidalPacket(LPacketError):
    """The codimension-2 transfer requires a supercuspidal-packet parameter."""


class ChiWAbsent(LPacketError):
    """Recovery of the lower parameter needs the splitting character inside."""


class HypothesisViolation(LPacketError):
    """Inputs violate a documented hypothesis (flags, forms, ranks, grades)."""


class InvariantViolation(LPacketError):
    """A property-suite invariant failed (raised, so it survives -O)."""


class DslSyntaxError(LPacketError):
    """Tokenizer/parser error with source position."""

    def __init__(self, message, line, col, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected or ())
        detail = f"{message} at line {line}, col {col}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class DslSemanticError(LPacketError):
    """Well-formed syntax with inconsistent content, with source position."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} at line {line}, col {col}")
