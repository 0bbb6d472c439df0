"""One dataclass <-> JSON codec for config types and saved documents.

``encode`` writes every field of a dataclass as JSON values: nested
dataclasses and named tuples become objects, tuples and lists become lists,
and numpy arrays nested lists. ``decode`` builds the dataclass back from
such a dict. It raises ValueError naming the level on any key it does not
know or misses, and naming the field on a value of the wrong JSON type.

Config types hold settings only, and a missing key keeps its default. What
the program derives for each run, such as a grid run's seed and its node
masks, is passed to the functions that use it as an argument.

A saved document (snapshot, model params, detector bundle, report) is a
dataclass with a ``FORMAT_VERSION`` class variable. ``encode`` writes it as
``format_version``, and ``decode`` rejects any other version and requires
every field of the document and of everything nested in it, configs too: a
saved file holds all it was written with, so a missing key is an error,
never a default. Arrays decode as float64.

``save`` writes every JSON file the package keeps, with sorted keys and a
trailing newline: snapshots (``generate``, ``ingest``, ``attack``) and attack
receipts compact, detector bundles (``bundle.json``), refine reports
(``refine_report.json``) and grid reports (``report.json``) with a two-space
indent. ``load`` reads config files and saved documents. The alert JSONL and
the summary lines on stderr keep their own layouts.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np

from .errors import DataError


def dumps(obj, indent: int | None = None) -> str:
    """``obj`` as JSON text: sorted keys, a trailing newline, and no spaces
    between items unless ``indent`` is given."""
    separators = (",", ":") if indent is None else None
    return json.dumps(encode(obj), sort_keys=True, indent=indent,
                      separators=separators) + "\n"


def save(obj, path, indent: int | None = None) -> None:
    """Write ``dumps(obj, indent)`` to ``path`` as UTF-8."""
    Path(path).write_text(dumps(obj, indent), encoding="utf-8")


def load(path, what: str, cls=None, level: str | None = None):
    """The JSON object stored at ``path``, decoded as ``cls`` if one is given.

    ``decode`` names ``level``, or ``what`` if no level is given, in its
    messages. A file that cannot be read or parsed, a document that is not a
    JSON object, and a KeyError, IndexError, TypeError or ValueError raised
    while building from it all become DataError naming ``what`` and ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"malformed {what} {path}: not a JSON object")
    if cls is None:
        return doc
    try:
        return decode(cls, doc, level or what)
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from exc


def encode(obj):
    """``obj`` as JSON values; a document gains its ``format_version``."""
    if isinstance(obj, (str, int, float, type(None))):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        doc = ({"format_version": obj.FORMAT_VERSION}
               if hasattr(obj, "FORMAT_VERSION") else {})
        for f in dataclasses.fields(obj):
            doc[f.name] = encode(getattr(obj, f.name))
        return doc
    if hasattr(obj, "_asdict"):  # a named tuple
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {key: encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(value) for value in obj]
    raise TypeError(f"cannot encode a {type(obj).__name__}")


def decode(cls, doc: dict, level: str, saved: bool = False):
    """Build ``cls``, a dataclass or named tuple, from ``doc``.

    A config's missing keys keep their defaults. A document, and every value
    nested in one (``saved``), must hold every field.
    """
    version = getattr(cls, "FORMAT_VERSION", None)
    saved = saved or version is not None
    noun = level if saved else f"{level} config"
    if not isinstance(doc, dict):
        raise ValueError(f"{noun} must be a JSON object")
    keys = set(doc)
    if version is not None:
        found = doc.get("format_version")
        if type(found) is not int or found != version:
            raise ValueError(f"unsupported {level} format_version {found!r}")
        keys.discard("format_version")
    defaults = _has_default(cls)
    unknown = sorted(keys - defaults.keys())
    if unknown:
        raise ValueError(f"unknown {noun} keys: {unknown}")
    missing = sorted(name for name, has_default in defaults.items()
                     if name not in keys and (saved or not has_default))
    if missing:
        raise ValueError(f"missing {noun} keys: {missing}")
    hints = _type_hints(cls)
    return cls(**{name: _decode_value(hints[name], doc[name], name, saved)
                  for name in defaults if name in keys})


# Each class's field types: ``typing.get_type_hints`` compiles every
# annotation string again on each call, and a class's hints never change.
_HINTS: dict[type, dict] = {}


def _type_hints(cls) -> dict:
    hints = _HINTS.get(cls)
    if hints is None:
        hints = _HINTS[cls] = typing.get_type_hints(cls)
    return hints


def _has_default(cls) -> dict[str, bool]:
    """Each field of a dataclass or named tuple, and whether it has a default."""
    if dataclasses.is_dataclass(cls):
        return {f.name: (f.default is not dataclasses.MISSING
                         or f.default_factory is not dataclasses.MISSING)
                for f in dataclasses.fields(cls)}
    return {name: name in cls._field_defaults for name in cls._fields}


# What a JSON value must be for each scalar field type, and its name in errors.
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _decode_value(hint, value, name: str, saved: bool):
    """``value`` checked against ``hint``; scalars are kept as given.

    Only an Optional field takes null, an int field takes only an integer,
    a float field an integer or a float, and neither takes a bool. A tuple
    field's items are cast to its item type.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        return None if value is None else _decode_value(args[0], value, name, saved)
    if hint is np.ndarray:
        return _decode_array(value, name)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        if origin is list:
            return [_decode_value(args[0], v, name, saved) for v in value]
        kinds = args[:1] * len(value) if args[1:] == (...,) else args
        if len(kinds) != len(value):
            raise ValueError(f"{name} must hold {len(kinds)} items, got {value!r}")
        return tuple(kind(_decode_value(kind, v, name, saved))
                     for kind, v in zip(kinds, value))
    if hint is dict or origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        if hint is dict:
            return value
        return {key: _decode_value(args[1], v, name, saved)
                for key, v in value.items()}
    if dataclasses.is_dataclass(hint) or hasattr(hint, "_fields"):
        return decode(hint, value, name, saved)
    accepted, what = _SCALARS[hint]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _decode_array(value, name: str) -> np.ndarray:
    """A float64 array from nested lists of numbers; anything else is rejected."""
    try:
        array = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a list of numbers")
    return array.astype(np.float64, copy=False)
