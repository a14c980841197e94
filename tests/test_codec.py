import re
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np
import pytest

from isoguard.codec import check_types, from_doc
from isoguard.errors import IsoguardError


@dataclass
class Stats:
    mean: float


@dataclass
class Tables:
    codes: dict[str, dict[str, int]]
    stats: dict[str, Stats]


class TestDictFields:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"codes": {"proto": {"tcp": 0.5}}, "stats": {}}, "codes.proto['tcp'] must be an integer, got 0.5"),
            ({"codes": {"proto": 1}, "stats": {}}, "codes.proto must be an object, got 1"),
            ({"codes": {}, "stats": {"dur": {"mean": "x"}}}, "stats.dur.mean must be a finite number, got 'x'"),
            ({"codes": {}, "stats": {"dur": {"mean": 1.0, "std": 1.0}}}, "unknown keys in tables section 'stats.dur'"),
            ({"codes": [], "stats": {}}, "codes must be an object, got []"),
        ],
        ids=["scalar entry", "object entry", "nested field", "nested unknown key", "not an object"],
    )
    def test_entries_are_named_like_fields_or_elements(self, doc, message):
        # an entry holding an object is named like a field, one holding a scalar like an element
        with pytest.raises(IsoguardError) as caught:
            from_doc(Tables, doc, "tables")
        assert message in str(caught.value)


@dataclass
class Ranges:
    half: Annotated[float, "in (0, 0.5]"] = 0.25
    unit: Annotated[float, "in [0, 1)"] = 0.5
    cap: Annotated[int, ">= 1"] | None = None
    mode: Literal["fixed", "contamination"] = "fixed"


@dataclass
class Outer:
    ranges: Ranges


@dataclass
class Vector:
    values: np.ndarray


class TestRangeAndChoiceFields:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("half", 0.0, "ranges.half must be in (0, 0.5], got 0.0"),
            ("half", 0.5000000000000001, "ranges.half must be in (0, 0.5], got 0.5000000000000001"),
            ("unit", -1e-300, "ranges.unit must be in [0, 1), got -1e-300"),
            ("unit", 1, "ranges.unit must be in [0, 1), got 1.0"),
            ("cap", 0, "ranges.cap must be >= 1, got 0"),
            ("cap", 1.0, "ranges.cap must be an integer, got 1.0"),
            ("mode", "fixd", "ranges.mode must be 'fixed' or 'contamination', got 'fixd'"),
            ("mode", ["fixed"], "ranges.mode must be 'fixed' or 'contamination', got ['fixed']"),
        ],
    )
    def test_value_outside_its_annotation_is_rejected(self, key, value, message):
        with pytest.raises(IsoguardError) as caught:
            from_doc(Outer, {"ranges": {key: value}}, "doc")
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key, value",
        [("half", 0.5), ("half", 5e-324), ("unit", 0), ("unit", 0.9999999999999999), ("cap", None), ("cap", 1),
         ("mode", "contamination")],
    )
    def test_value_inside_its_annotation_is_kept(self, key, value):
        assert getattr(from_doc(Outer, {"ranges": {key: value}}, "doc").ranges, key) == value

    def test_check_types_applies_the_ranges(self):
        check_types(Outer(Ranges(cap=None)), "doc")
        with pytest.raises(IsoguardError, match=re.escape("ranges.cap must be >= 1, got 0")):
            check_types(Outer(Ranges(cap=0)), "doc")

    def test_array_nested_past_numpys_dimensions_is_rejected(self):
        # JSON nests deeper than the 32 dimensions numpy's flat iterator takes
        deep = []
        for _ in range(100):
            deep = [deep]
        with pytest.raises(IsoguardError, match=re.escape("values element must be a finite number, got [[")):
            from_doc(Vector, {"values": deep}, "doc")
