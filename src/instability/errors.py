"""Exception hierarchy shared by the whole package.

Each class carries the CLI's exit code and the `kind` of its JSON error
line, so library code should raise the most specific class that applies.
"""


class InstabilityError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    kind = "internal"


class ParseError(InstabilityError):
    """Malformed input files or JSON payloads."""

    exit_code = 1
    kind = "parse"


class ValidationError(InstabilityError):
    """Inputs violate a documented invariant (shape, positivity, range...)."""

    exit_code = 2
    kind = "validation"


class SolverError(InstabilityError):
    """A numerical routine failed to reach its accuracy contract."""

    exit_code = 3
    kind = "solver"


class BudgetError(InstabilityError):
    """A computation was refused because it exceeds a size/evaluation budget."""

    exit_code = 4
    kind = "budget"
