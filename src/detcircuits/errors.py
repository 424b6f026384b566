"""Exception types shared across the package."""


class ValidationError(Exception):
    """A structural invariant of a circuit or matrix is violated."""


class LabelMismatch(ValidationError):
    """Composition attempted along interfaces whose label sets differ."""


class LabelCollision(ValidationError):
    """An operation requires disjoint label sets but they overlap."""


class NotEndomorphism(ValidationError):
    """Row and column label sets differ where an endomorphism is required."""


class NotSkew(ValidationError):
    """Entries fail the skew-symmetry condition."""


class TooLarge(ValidationError):
    """Input exceeds the brute-force cap; the exponential path refuses to run."""


class DanglingWire(ValidationError):
    """A wiring leaves some interface label unconnected or names an unknown one."""


class DuplicateLabel(ValidationError):
    """A label is repeated where distinctness is required."""


class SizeMismatch(ValidationError):
    """Adjacent interfaces have different wire counts."""


class ParseError(Exception):
    """A text input could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
