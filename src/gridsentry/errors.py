"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage problems (bad flags or
config schema violations, raised as ValueError) exit 1, DataError exits 2,
NumericError exits 3.
"""


class DataError(Exception):
    """Input data is unusable: missing columns, too many bad rows, bad bundle."""


class NumericError(Exception):
    """A numeric routine failed: non-convergent SVD, non-finite loss or gradient."""
