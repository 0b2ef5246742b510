"""The errors a run can end in, each with its report label and exit code.

The command line prints an error as one ``<label>: <message>`` line and
exits with the error's code.  Both bases subclass `ValueError`, so library
callers that catch `ValueError` keep working.
"""

USAGE, PRECONDITION = 2, 3


class TropvalError(ValueError):
    """Input the tool cannot use: usage, parse or input error (exit 2)."""

    label = "input_error"
    exit_code = USAGE


class PreconditionError(TropvalError):
    """A precondition of the requested operation fails on valid input (exit 3)."""

    label = "precondition_violation"
    exit_code = PRECONDITION
