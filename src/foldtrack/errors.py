"""Exception taxonomy shared across the package."""


class FoldtrackError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(FoldtrackError, ValueError):
    """Malformed combinatorial data: endpoint mismatches, bad ids, degenerate maps."""


class CertificationError(FoldtrackError):
    """A claimed property (automorphism, homotopy equivalence, homeomorphism) failed to certify."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CapacityError(FoldtrackError):
    """An exhaustive search exceeded its configured budget."""


class NumericError(FoldtrackError):
    """A floating-point result failed an exact check it must satisfy, such
    as a Perron-Frobenius value outside its classical bounds."""
