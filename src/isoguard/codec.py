"""The JSON codec of the pipeline config and the classifier model files.

``to_doc`` turns a dataclass into a JSON-ready dict and ``from_doc`` turns
it back. Each field's annotation picks its decoder, so a value of the wrong
type raises an IsoguardError naming the dotted field (``select.n_trees``,
``stumps[0].polarity``) instead of flowing on into a stage.
"""
from __future__ import annotations

import functools
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import IsoguardError, checked_float, checked_int

IntArray = typing.Annotated[np.ndarray, np.int64]  # an int64 array field; a bare np.ndarray field is float64


def to_doc(obj) -> dict:
    """``obj``'s fields by name, with arrays as nested lists and dataclasses as dicts."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return to_doc(value) if is_dataclass(value) else value


def from_doc(cls: type, doc: dict, label: str, name: str = ""):
    """The ``cls`` that ``doc`` describes. A key the document leaves out
    takes the field's default; a field without one is a missing key, and a
    key that is no field is rejected. ``label`` ("config", "model") and the
    dotted ``name`` of a nested object go into the messages."""
    if not isinstance(doc, dict):
        raise IsoguardError(f"{name or label} must be an object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        where = f"keys in {label} section {name!r}" if name else f"{label} keys"
        raise IsoguardError(f"unknown {where}: {sorted(unknown)}")
    hints = _hints(cls)
    values = {}
    for f in fields(cls):
        path = f"{name}.{f.name}" if name else f.name
        if f.name in doc:
            values[f.name] = _decode(hints[f.name], doc[f.name], path, label)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise IsoguardError(f"missing key {path!r}")
    return cls(**values)


@functools.cache
def _hints(cls: type) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def _decode(tp, value, name: str, label: str):
    if is_dataclass(tp):
        return from_doc(tp, value, label, name)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        if type(value) is not list:
            raise IsoguardError(f"{name} must be a list, got {value!r}")
        return [_decode(args[0], v, f"{name}[{i}]", label) for i, v in enumerate(value)]
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(args[0], value, name, label)
    if origin is typing.Annotated:
        return _array(value, name, args[1])
    if tp is np.ndarray:
        return _array(value, name, np.float64)
    return _SCALARS[tp](value, name)


def _exactly(kind: type, noun: str):
    def check(value, what: str):
        if type(value) is not kind:
            raise IsoguardError(f"{what} must be {noun}, got {value!r}")
        return value

    return check


_SCALARS = {int: checked_int, float: checked_float, bool: _exactly(bool, "a boolean"), str: _exactly(str, "a string")}


def _array(value, name: str, dtype: type) -> np.ndarray:
    """``value`` as a ``dtype`` array of finite numbers. The cell types are
    checked in one pass over the object array; only when that fails does
    the scalar check run per cell, to name the first bad one."""
    cells = np.array(value, dtype=object)
    if set(map(type, cells.ravel().tolist())) <= ({int} if dtype is np.int64 else {int, float}):
        a = cells.astype(dtype)  # an int beyond int64 or float range raises OverflowError here
        if np.isfinite(a).all():
            return a
    check = checked_int if dtype is np.int64 else checked_float
    return np.array([check(v, f"{name} element") for v in cells.flat], dtype).reshape(cells.shape)
