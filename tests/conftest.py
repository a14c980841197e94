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
    read_records = data._read_records

    def counting(raw, path):
        seen.append(path.name)
        return read_records(raw, path)

    monkeypatch.setattr(data, "_read_records", counting)
    return seen
