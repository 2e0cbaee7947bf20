"""Exception types shared across the package.

DomainError and its subclasses, InadmissibleCell among them, signal
inadmissible physical inputs (the CLI maps them to exit code 3); the remaining
types signal numerical failures that must never be swallowed silently.
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


class InadmissibleCell(DomainError):
    """A 1D cell, a solver's or a `MomentState5`, is not admissible.

    The message says in words what the fields hold: the cell `index`, the
    `quantity` that broke ("p11", "sigma11/p", "fugacity", "spectral
    radius", ...), its `value` where one exists, and the `step` and time `t`,
    both None for the initial check.
    """

    def __init__(self, index, message="", *, quantity=None, value=None,
                 step=None, t=None):
        self.index = index
        self.quantity = quantity
        self.value = value
        self.step = step
        self.t = t
        super().__init__(f"cell {index} inadmissible{': ' + message if message else ''}")


class CFLViolation(RuntimeError):
    """The run spent its step budget before reaching t_end."""
