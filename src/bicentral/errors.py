"""Exception hierarchy shared by every bicentral module.

Solver errors carry enough state (iteration counts, residuals, offending
entries) for callers to report failures without re-running anything.
"""

from __future__ import annotations


class BicentralError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(BicentralError):
    """Vector or matrix shapes are incompatible with the operation."""


class TransformDomainError(BicentralError):
    """A reverse transform was evaluated outside its domain."""


class NotIrreducible(BicentralError):
    """The adjacency matrix's nonzero pattern is not strongly connected."""


class NonPositiveEigenvalue(BicentralError):
    """The dominant eigenvalue is zero, so no positive rating vector exists."""


class PreconditionFailed(BicentralError):
    """Input violates a precondition of a solve: a zero row or column,
    reducible rating products, computed ratings that are not strictly
    positive, or a weight matrix or target the reverse construction
    cannot use."""


class DistinctnessViolation(BicentralError):
    """Weight matrix entries are not pairwise distinct."""


class ZeroVector(BicentralError):
    """A solver product vanished or overflowed, or the Perron root is zero."""


class NoConvergence(BicentralError):
    """Product budget exhausted before the residual dropped below tolerance."""

    def __init__(self, iterations: int, final_residual: float):
        self.iterations = iterations
        self.final_residual = final_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(final residual {final_residual:.3e})"
        )


class ParseError(BicentralError):
    """Malformed input text. Line and column are 1-based; 0 means unknown."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class DuplicateLabel(ParseError):
    """A label occurs twice on the same axis."""


class NegativeWeight(ParseError):
    """A matrix cell holds a negative value."""


class DuplicateEdge(ParseError):
    """The same (a, b) pair appears on more than one edge-list line."""


class NonPositiveWeight(ParseError):
    """An edge-list weight is zero or negative; listed edges must be positive."""


class EmptyRelation(ParseError):
    """The input text contains no labels or weights at all."""
