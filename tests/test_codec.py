from dataclasses import dataclass

import pytest

from isoguard.codec import from_doc
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
