"""The Python-int seed hashes against the numpy-scalar implementation they replaced."""
import numpy as np
import pytest

from isoguard.prng import _mix, derive_seed, extend_hash, extend_hashes, hash64, splitmix64, unit_uniforms

# ---------------------------------------------------------------------------
# oracle: numpy uint64 scalars inside errstate, as first written

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED0 = np.uint64(0x8B72E0F5E28E3C4D)


def oracle_splitmix64(x):
    with np.errstate(over="ignore"):
        z = (x if isinstance(x, np.ndarray) else np.uint64(x)) + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def oracle_fold(h, part):
    if isinstance(part, str):
        for b in part.encode("utf-8"):
            h = oracle_splitmix64(h ^ np.uint64(b))
        return oracle_splitmix64(h ^ np.uint64(len(part)))
    return oracle_splitmix64(h ^ np.uint64(int(part) & _MASK))


def oracle_hash64(*parts):
    h = _SEED0
    for part in parts:
        h = oracle_fold(h, part)
    return h


def oracle_unit_uniforms(base, keys):
    with np.errstate(over="ignore"):
        mixed = oracle_splitmix64(base ^ oracle_splitmix64(keys.astype(np.uint64)))
    return (mixed >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


# ---------------------------------------------------------------------------
# corpus

SCALARS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1, -2, -(2**63), -(2**64) + 1, 2**64, 2**64 + 5, 2**70 + 3, -(2**80)]
TAGS = ["", "a", "tree", "select-sample", "forêt", "ß", "日本語", "😀 emoji", "\x00", "a\x00b"]


def _tuples():
    rng = np.random.default_rng(2024)
    pool = SCALARS + TAGS + [int(v) for v in rng.integers(0, 2**63, size=8)]
    out = []
    for length in range(1, 7):
        for _ in range(12):
            out.append(tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=length)))
    return out


TUPLES = _tuples()


@pytest.mark.parametrize("x", SCALARS)
def test_scalar_hash_matches_oracle(x):
    assert type(hash64(x)) is np.uint64
    assert hash64(x) == oracle_hash64(x)
    assert derive_seed(x) == int(oracle_hash64(x))


@pytest.mark.parametrize("tag", TAGS)
def test_string_tag_matches_oracle(tag):
    assert hash64(tag) == oracle_hash64(tag)
    assert derive_seed(7, tag) == int(oracle_hash64(7, tag))


def test_mixed_tuples_match_oracle():
    for parts in TUPLES:
        assert hash64(*parts) == oracle_hash64(*parts), parts
        assert derive_seed(*parts) == int(oracle_hash64(*parts)), parts


def test_extend_hash_continues_the_fold():
    for parts in TUPLES:
        for cut in range(len(parts) + 1):
            assert extend_hash(int(hash64(*parts[:cut])), *parts[cut:]) == int(oracle_hash64(*parts)), parts


def test_extend_hashes_is_the_array_fold():
    h = int(hash64(12345, 6))
    ids = np.array([0, 1, 2, 63, 64, 1000, 2**40], dtype=np.uint64)
    got = extend_hashes(h, ids, 0x5EED_CA9D)
    want = [oracle_hash64(12345, 6, int(i), 0x5EED_CA9D) for i in ids]
    assert got.dtype == np.uint64
    assert got.tolist() == [int(w) for w in want]


def test_extend_hashes_broadcasts_a_column_of_hashes():
    hashes = np.array([hash64(7, t) for t in (0, 1, 5, 2**40)] + [np.uint64(2**64 - 1)], dtype=np.uint64)
    ids = np.array([0, 1, 63, 64, 2**40, 2**64 - 1], dtype=np.uint64)
    got = extend_hashes(hashes[:, None], ids, 0x5EED_7442)
    assert got.shape == (hashes.size, ids.size) and got.dtype == np.uint64
    for t in range(hashes.size):
        for i in range(ids.size):
            assert int(got[t, i]) == extend_hash(int(hashes[t]), int(ids[i]), 0x5EED_7442), (t, i)


def test_splitmix64_scalar_and_array_match_oracle():
    values = [v & _MASK for v in SCALARS]
    for v in values:
        assert _mix(v) == int(oracle_splitmix64(np.uint64(v)))
    arr = np.array(values, dtype=np.uint64)
    assert np.array_equal(splitmix64(arr), oracle_splitmix64(arr))


def test_unit_uniforms_match_oracle():
    rng = np.random.default_rng(9)
    keys = np.concatenate(
        [np.arange(45, dtype=np.uint64), rng.integers(0, 2**63, size=20).astype(np.uint64), [np.uint64(_MASK)]]
    )
    for parts in TUPLES[::7]:
        base = hash64(*parts)
        got = unit_uniforms(base, keys)
        want = oracle_unit_uniforms(oracle_hash64(*parts), keys)
        assert np.array_equal(got, want), parts
        assert ((0.0 <= got) & (got < 1.0)).all()


def test_unit_uniforms_broadcast_one_row_per_base():
    keys = np.arange(41, dtype=np.uint64)
    bases = np.array([hash64(5, i) for i in range(6)], dtype=np.uint64)
    grid = unit_uniforms(bases[:, None], keys)
    assert grid.shape == (6, 41)
    for i in range(6):
        assert np.array_equal(grid[i], oracle_unit_uniforms(oracle_hash64(5, i), keys))


def test_array_path_raises_no_overflow_warning():
    arr = np.array([_MASK, 2**63], dtype=np.uint64)
    with np.errstate(over="raise"):
        splitmix64(arr)
        unit_uniforms(hash64(1), arr)
