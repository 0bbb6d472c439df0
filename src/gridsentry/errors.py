"""Exception types shared across the package, and the JSON document loader.

The CLI maps these onto process exit codes: usage problems (bad flags or
config schema violations, raised as ValueError) exit 1, DataError exits 2,
NumericError exits 3.
"""

import json
from pathlib import Path


class DataError(Exception):
    """Input data is unusable: missing columns, too many bad rows, bad bundle."""


class NumericError(Exception):
    """A numeric routine failed: non-convergent SVD, non-finite loss or gradient."""


def load_json_object(path, what: str, build):
    """``build(doc)`` for the JSON object stored at ``path``.

    A file that cannot be read or parsed, a document that is not a JSON
    object, and a KeyError, IndexError, TypeError or ValueError raised while
    building from it all become DataError naming ``what`` and ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"malformed {what} {path}: not a JSON object")
    try:
        return build(doc)
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from exc
