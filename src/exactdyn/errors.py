"""Exception hierarchy shared by all exactdyn modules."""


class ExactDynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ExactDynError):
    """An argument lies outside the mathematical domain of an operation.

    A grid state, readout or run of readouts that breaks its invariants
    is such an argument too.
    """


class NotACodeError(ExactDynError):
    """A natural number is not the code of any canonical rational."""


class IllFormedError(ExactDynError):
    """A recursive-function term violates a constructor arity constraint."""


class ArityMismatchError(ExactDynError):
    """An argument vector does not match the arity of a term."""


class ProgramParseError(ExactDynError):
    """A program file does not conform to the textual term format."""
