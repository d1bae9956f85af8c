"""Exception types shared across the toolkit.

ValidationError covers bad inputs (malformed graphs, shape mismatches,
preconditions on sizes and windows).  NumericError covers failures that only
show up at run time: positivity violations in the discrete Toda step,
non-closed one-forms handed to the potential constructor, singular matrices.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericError(RuntimeError):
    """A numeric condition required by an operation failed."""
