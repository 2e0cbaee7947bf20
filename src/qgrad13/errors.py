"""Exception types shared across the package.

DomainError and its subclasses signal inadmissible physical inputs (the CLI
maps them to exit code 3); the remaining types signal numerical failures that
must never be swallowed silently.
"""


class DomainError(ValueError):
    """Inadmissible input: fugacity/statistics out of range, bad state."""


class CondensationError(DomainError):
    """Boson fugacity at or beyond the condensation boundary z -> 1."""


class NoSolution(DomainError):
    """No admissible (z, T) reproduces the requested (rho, p)."""


class SingularD(RuntimeError):
    """The left symmetrizer-like factor D is numerically singular.

    Should not happen for admissible states; treated as a bug signal.
    """


class InadmissibleCell(RuntimeError):
    """A solver cell left the admissible set; carries the cell index."""

    def __init__(self, index, message=""):
        self.index = index
        self.reason = message
        super().__init__(f"cell {index} inadmissible{': ' + message if message else ''}")


class CFLViolation(RuntimeError):
    """Computed time step is nonpositive."""
