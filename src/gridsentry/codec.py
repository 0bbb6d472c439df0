"""One dataclass <-> dict codec for the config types.

``encode`` writes every field of a config dataclass, recursing into nested
configs and writing tuples as lists; ``decode`` builds the dataclass back
from such a dict and raises ValueError naming the level on any key it does
not know, and naming the field on a value of the wrong JSON type. Config
types hold settings only: what the program derives for each run, such as a
grid run's seed and its node masks, is passed to the functions that use it
as an argument.
"""

from __future__ import annotations

import dataclasses
import types
import typing

def encode(obj, cls=None) -> dict:
    """Every field of a config dataclass, or only those of its base ``cls``."""
    doc = {}
    for f in dataclasses.fields(cls or obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = encode(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def decode(cls, doc: dict, level: str):
    """Build ``cls`` from ``doc``; missing keys keep their defaults."""
    if not isinstance(doc, dict):
        raise ValueError(f"{level} config must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise ValueError(f"unknown {level} config keys: {unknown}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _decode_value(hints[name], value, name)
                  for name, value in doc.items()})


# What a JSON value must be for each scalar field type, and its name in errors.
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _decode_value(hint, value, name: str):
    """``value`` checked against ``hint``; scalars are kept as given.

    Only an Optional field takes null, an int field takes only an integer,
    a float field an integer or a float, and neither takes a bool.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        return None if value is None else _decode_value(args[0], value, name)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(args[0](_decode_value(args[0], v, name)) for v in value)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, name)
    accepted, what = _SCALARS[hint]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value
