"""The JSON codec of the pipeline config, transforms.json, rfe.json, forest.json and the model files.

``to_doc`` turns a dataclass into a JSON-ready dict and ``from_doc`` turns
it back. Each field's annotation picks its decoder, so a value of the wrong
type raises an IsoguardError naming the dotted field (``select.n_trees``,
``stumps[0].polarity``, ``trees[3].left``, ``encoders.proto['tcp']``)
instead of flowing on into a stage.

A field states its own range or choice in its annotation, so no loader
repeats it: ``Annotated[int, ">= 1"]`` or ``Annotated[float, "in (0, 0.5]"]``
bounds a number (the spec is ``>``/``>=`` a bound, or an interval with
open or closed ends, and is the text of the message:
``forest.trees must be >= 1, got 0``), and ``Literal["fixed",
"contamination"]`` lists the values a field may take.
``check_types`` applies the same decoders to a dataclass built in Python.
"""
from __future__ import annotations

import functools
import operator
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
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return to_doc(value) if is_dataclass(value) else value


def from_doc(cls: type, doc: dict, label: str, name: str = ""):
    """The ``cls`` that ``doc`` describes. A key the document leaves out
    takes the field's default; a field without one is a missing key, and a
    key that is no field is rejected. ``label`` ("config", "forest") and the
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


def check_types(obj, label: str, name: str = "") -> None:
    """Check each field of the dataclass ``obj`` with the decoder that
    ``from_doc`` picks for it, so an object built in Python meets the rules a
    document does. A nested dataclass must be an instance of its annotated
    class and is checked field by field."""
    hints = _hints(type(obj))
    for f in fields(obj):
        path = f"{name}.{f.name}" if name else f.name
        tp, value = hints[f.name], getattr(obj, f.name)
        if not is_dataclass(tp):
            _decode(tp, _plain(value), path, label)
        elif isinstance(value, tp):
            check_types(value, label, path)
        else:
            raise IsoguardError(f"{path} must be a {tp.__name__}, got {value!r}")


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
    if origin is dict:  # dict[str, T]: an entry holding an object is named like a field, a scalar like an element
        if type(value) is not dict:
            raise IsoguardError(f"{name} must be an object, got {value!r}")
        nested = is_dataclass(args[1]) or typing.get_origin(args[1]) is dict
        return {k: _decode(args[1], v, f"{name}.{k}" if nested else f"{name}[{k!r}]", label) for k, v in value.items()}
    if origin is types.UnionType or origin is typing.Union:  # X | None; Annotated[...] | None is a typing.Union
        return None if value is None else _decode(args[0], value, name, label)
    if origin is typing.Literal:
        if value not in args:
            raise IsoguardError(f"{name} must be {' or '.join(map(repr, args))}, got {value!r}")
        return value
    if origin is typing.Annotated:
        base, spec = args
        if base is np.ndarray:
            return _array(value, name, spec)
        value = _decode(base, value, name, label)
        if not _in_range(value, spec):
            raise IsoguardError(f"{name} must be {spec}, got {value!r}")
        return value
    if tp is np.ndarray:
        return _array(value, name, np.float64)
    return _SCALARS[tp](value, name)


_BOUNDS = {">": operator.gt, ">=": operator.ge, "(": operator.gt, "[": operator.ge, ")": operator.lt, "]": operator.le}


def _in_range(value, spec: str) -> bool:
    """Whether ``value`` meets ``spec``: a bound such as ">= 1" or "> 0", or an interval such as "in (0, 0.5]"."""
    if spec.startswith("in "):
        low, high = spec[3:].split(", ")
        return _BOUNDS[low[0]](value, float(low[1:])) and _BOUNDS[high[-1]](value, float(high[:-1]))
    op, bound = spec.split(" ")
    return _BOUNDS[op](value, float(bound))


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
    flat = cells.ravel().tolist()  # not cells.flat, which stops at 32 dimensions and JSON can nest to numpy's 64
    if set(map(type, flat)) <= ({int} if dtype is np.int64 else {int, float}):
        a = cells.astype(dtype)  # an int beyond int64 or float range raises OverflowError here
        if np.isfinite(a).all():
            return a
    check = checked_int if dtype is np.int64 else checked_float
    return np.array([check(v, f"{name} element") for v in flat], dtype).reshape(cells.shape)
