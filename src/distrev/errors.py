"""Exception types shared across the package."""


class DistrevError(Exception):
    """Base class for all errors raised by this package."""


class FormulaParseError(DistrevError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownAtomError(DistrevError):
    pass


class MatrixError(DistrevError):
    pass


class BoundExceededError(DistrevError):
    pass


class ModeMismatchError(DistrevError):
    pass


class UndefinedPairError(DistrevError):
    pass


class FamilyError(DistrevError):
    pass


class UnrealizableError(DistrevError):
    """An operator table is unrealizable for a structural reason that needs
    no search (empty result on a finite nonempty pair, or X not within W)."""


class WitnessError(DistrevError):
    """A verdict whose witness fails its explicit recheck: a sat witness
    that does not reproduce the table it claims to realize, or a loop chain
    that is not a counterexample.  A checker fault, never a property of the
    input."""


class InconsistentTheoryError(DistrevError):
    pass


class FileFormatError(DistrevError):
    pass
