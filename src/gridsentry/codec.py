"""One dataclass <-> dict codec for the config types.

``encode`` writes every field of a config dataclass, recursing into nested
configs and writing tuples as lists; ``decode`` builds the dataclass back
from such a dict and raises ValueError naming the level on any key it does
not know. Fields marked with :data:`PROGRAM_SET` are filled in by the
program (per-run seeds, node masks, z-score statistics), so they are
neither written nor accepted.
"""

from __future__ import annotations

import dataclasses
import types
import typing

PROGRAM_SET = {"program_set": True}


def _fields(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if not f.metadata.get("program_set")]


def encode(obj) -> dict:
    """Every field of a config dataclass that is not set by the program."""
    doc = {}
    for f in _fields(type(obj)):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = encode(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def decode(cls, doc: dict, level: str):
    """Build ``cls`` from ``doc``; missing keys keep their defaults."""
    names = {f.name for f in _fields(cls)}
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
