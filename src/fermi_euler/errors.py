"""Exception types shared across the package."""


class FermiEulerError(Exception):
    """Base class for all package-specific errors."""


class NonpositiveBeta(FermiEulerError):
    """Inverse temperature multiplier must be strictly positive."""


class OutOfDomain(FermiEulerError):
    """Conserved densities outside the one-phase (dualizable) region."""


class NonFinite(OutOfDomain):
    """NaN or infinite value where a finite one is required; the message
    names the offending cell, site or index."""


class NoConvergence(FermiEulerError):
    """Newton iteration failed; carries the final residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class NotAState(FermiEulerError):
    """Matrix is not a valid density matrix."""


class SingularReference(FermiEulerError):
    """Reference state too close to singular for relative-entropy logs."""


class NotOrthonormal(FermiEulerError):
    """Vector family fails the orthonormality tolerance."""


class TooLarge(FermiEulerError):
    """Requested Fock-space construction exceeds the size cap."""


class CutoffTooLarge(FermiEulerError):
    """Momentum cutoff scale not representable on the grid."""


class BadWindow(FermiEulerError):
    """Coarse-graining window incompatible with the lattice."""


class VacuumCell(FermiEulerError):
    """Flux evaluation on a cell with nonpositive particle density."""


class CflViolation(FermiEulerError):
    """Time step exceeds the CFL-stable bound."""


class LeftOnePhaseRegion(FermiEulerError):
    """Solver state left the one-phase region; halting instead of extrapolating."""
