"""One dataclass <-> dict codec for the config types.

``encode`` writes every field of a config dataclass, recursing into nested
configs and writing tuples as lists; ``decode`` builds the dataclass back
from such a dict and raises ValueError naming the level on any key it does
not know. Config types hold settings only: what the program derives for
each run, such as a grid run's seed and its node masks, is passed to the
functions that use it as an argument.
"""

from __future__ import annotations

import dataclasses
import types
import typing

def encode(obj) -> dict:
    """Every field of a config dataclass."""
    doc = {}
    for f in dataclasses.fields(obj):
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


def _decode_value(hint, value, name: str):
    if value is None:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        return _decode_value(args[0], value, name)
    if origin is tuple:
        return tuple(args[0](v) for v in value)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, name)
    return value
