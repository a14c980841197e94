import pytest

from isoguard import data


@pytest.fixture(autouse=True)
def empty_parse_memo():
    """Start every test with ``load_csv``'s parse memo empty, so that test
    order cannot decide whether a load parses or hits."""
    data._parsed.clear()


@pytest.fixture
def parses(monkeypatch):
    """The file names ``load_csv`` parsed (rather than took from its memo), in call order."""
    seen = []
    parse_columns = data._parse_columns

    def counting(raw, path, target_column):
        seen.append(path.name)
        return parse_columns(raw, path, target_column)

    monkeypatch.setattr(data, "_parse_columns", counting)
    return seen
