import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from refpack.hashing import (
    DEFAULT_SEED_1,
    DEFAULT_SEED_2,
    murmur3_low64,
    murmur3_low64_batch,
    murmur3_x64_128,
)

# ---------------------------------------------------------------------------
# Oracle: a line-by-line transliteration of the canonical public-domain
# MurmurHash3_x64_128 C++ source (Austin Appleby), kept deliberately separate
# from the library implementation.
# ---------------------------------------------------------------------------

_M = (1 << 64) - 1


def _rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & _M


def _fmix(k):
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _M
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _M
    k ^= k >> 33
    return k


def murmur_oracle(data: bytes, seed: int) -> tuple[int, int]:
    h1 = h2 = seed & _M
    c1, c2 = 0x87C37B91114253D5, 0x4CF5AD432745937F
    nblocks = len(data) // 16
    for i in range(nblocks):
        k1 = int.from_bytes(data[i * 16 : i * 16 + 8], "little")
        k2 = int.from_bytes(data[i * 16 + 8 : i * 16 + 16], "little")
        k1 = (k1 * c1) & _M
        k1 = _rotl(k1, 31)
        k1 = (k1 * c2) & _M
        h1 ^= k1
        h1 = _rotl(h1, 27)
        h1 = (h1 + h2) & _M
        h1 = (h1 * 5 + 0x52DCE729) & _M
        k2 = (k2 * c2) & _M
        k2 = _rotl(k2, 33)
        k2 = (k2 * c1) & _M
        h2 ^= k2
        h2 = _rotl(h2, 31)
        h2 = (h2 + h1) & _M
        h2 = (h2 * 5 + 0x38495AB5) & _M
    tail = data[nblocks * 16 :]
    k1 = k2 = 0
    if len(tail) >= 9:
        for i in range(len(tail) - 1, 7, -1):
            k2 = (k2 << 8) | tail[i]
        k2 = (k2 * c2) & _M
        k2 = _rotl(k2, 33)
        k2 = (k2 * c1) & _M
        h2 ^= k2
    if len(tail) >= 1:
        for i in range(min(len(tail), 8) - 1, -1, -1):
            k1 = (k1 << 8) | tail[i]
        k1 = (k1 * c1) & _M
        k1 = _rotl(k1, 31)
        k1 = (k1 * c2) & _M
        h1 ^= k1
    h1 ^= len(data)
    h2 ^= len(data)
    h1 = (h1 + h2) & _M
    h2 = (h2 + h1) & _M
    h1 = _fmix(h1)
    h2 = _fmix(h2)
    h1 = (h1 + h2) & _M
    h2 = (h2 + h1) & _M
    return h1, h2


# (data, seed) -> (h1, h2), frozen from the oracle; the fox vector matches the
# widely published reference value 6c1b07bc7bbc4be3 / 47939ac4a93c437a.
VECTORS = [
    (b"", 0, 0x0, 0x0),
    (b"", 1, 0x4610ABE56EFF5CB5, 0x51622DAA78F83583),
    (b"a", 0, 0x85555565F6597889, 0xE6B53A48510E895A),
    (b"abc", 123456789, 0x37A8AF9C25414AAA, 0x4AD7C6C5DF9AD2CD),
    (
        b"The quick brown fox jumps over the lazy dog",
        0,
        0xE34BBC7BBC071B6C,
        0x7A433CA9C49A9347,
    ),
    (b"\x00" * 16, 0, 0x4BBD1BF27DA918D6, 0xB465A9ECCD791CB6),
    (bytes(range(37)), 0xDEADBEEF, 0x25D322FAA7C4DA08, 0x862CA06498769C03),
    (b"ACGTACGTACGTACGT", DEFAULT_SEED_1, 0x8DCF896F59F8B743, 0xD1268659F7A4C35F),
    (b"ACGTACGTACGTACGT", DEFAULT_SEED_2, 0x00C9EB42CB2F1181, 0x4196A13D71F3C352),
]


@pytest.mark.parametrize("data,seed,h1,h2", VECTORS)
def test_frozen_vectors(data, seed, h1, h2):
    assert murmur_oracle(data, seed) == (h1, h2)
    assert murmur3_x64_128(data, seed) == (h2 << 64) | h1
    assert murmur3_low64(data, seed) == h1


@given(st.binary(max_size=120), st.integers(0, _M))
def test_matches_oracle(data, seed):
    h1, h2 = murmur_oracle(data, seed)
    assert murmur3_x64_128(data, seed) == (h2 << 64) | h1


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 64])
def test_batch_matches_scalar(width):
    rng = np.random.default_rng(width)
    mats = rng.integers(0, 256, (64, width), dtype=np.uint8)
    batch = murmur3_low64_batch(mats, np.full(len(mats), 0xABCDEF, np.uint64))
    scalar = np.array(
        [murmur3_low64(row.tobytes(), 0xABCDEF) for row in mats], dtype=np.uint64
    )
    assert (batch == scalar).all()


def test_batch_empty():
    out = murmur3_low64_batch(np.empty((0, 8), dtype=np.uint8), np.full(0, 1, np.uint64))
    assert out.shape == (0,) and out.dtype == np.uint64


def test_batch_noncontiguous_input():
    rng = np.random.default_rng(5)
    big = rng.integers(0, 256, (10, 32), dtype=np.uint8)
    view = big[::2, ::2]  # strided on both axes
    batch = murmur3_low64_batch(view, np.full(len(view), 7, np.uint64))
    scalar = [murmur3_low64(row.tobytes(), 7) for row in view]
    assert batch.tolist() == scalar


def test_seeds_change_output():
    assert murmur3_low64(b"ACGT", DEFAULT_SEED_1) != murmur3_low64(b"ACGT", DEFAULT_SEED_2)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        murmur3_x64_128(b"x", -1)


def test_batch_per_row_seeds():
    rng = np.random.default_rng(6)
    mats = rng.integers(0, 256, (12, 20), dtype=np.uint8)
    seeds = rng.integers(0, 2**63, 12, dtype=np.uint64) * np.uint64(2)
    mats_before, seeds_before = mats.copy(), seeds.copy()
    batch = murmur3_low64_batch(mats, seeds)
    assert batch.tolist() == [murmur3_low64(row.tobytes(), int(s)) for row, s in zip(mats, seeds)]
    # The hash works in place on its own arrays, never on the caller's, with
    # or without a padded tail.
    whole_lanes = np.ascontiguousarray(mats[:, :16])
    murmur3_low64_batch(whole_lanes, seeds)
    assert (mats == mats_before).all() and (seeds == seeds_before).all()
    assert (whole_lanes == mats_before[:, :16]).all()
    with pytest.raises(ValueError, match="one seed per message"):
        murmur3_low64_batch(mats, seeds[:-1])
    with pytest.raises(ValueError, match="one seed per message"):
        murmur3_low64_batch(mats, seeds.astype(np.int64))
