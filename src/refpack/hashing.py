"""MurmurHash3 x64 128-bit, scalar and batch forms.

The scalar form follows the public reference implementation exactly and is
the behavioral contract. The batch form computes the same function over many
equal-width messages at once with numpy and exists purely for throughput;
equality of the two is a tested property.

Index probing uses the low 64 bits (h1) of the 128-bit output.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK64 = (1 << 64) - 1

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F

# Two fixed, published 64-bit constants used as the default probe seeds:
# 2**64 / golden ratio, and the second xxHash64 prime.
DEFAULT_SEED_1 = 0x9E3779B97F4A7C15
DEFAULT_SEED_2 = 0xC2B2AE3D27D4EB4F


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def murmur3_x64_128(data: bytes, seed: int = 0) -> int:
    """Full 128-bit hash as an int; h1 occupies the low 64 bits."""
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    length = len(data)
    h1 = seed
    h2 = seed

    nblocks = length // 16
    for i in range(nblocks):
        k1, k2 = struct.unpack_from("<QQ", data, i * 16)
        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64
        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    tail = data[nblocks * 16 :]
    if len(tail) > 8:
        k2 = int.from_bytes(tail[8:], "little")
        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
    if tail:
        k1 = int.from_bytes(tail[:8], "little")
        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1 | (h2 << 64)


def murmur3_low64(data: bytes, seed: int = 0) -> int:
    """Low 64 bits (h1) of the 128-bit hash; the probing hash."""
    return murmur3_x64_128(data, seed) & _MASK64


def _rotl64_into(x: np.ndarray, r: int, spare: np.ndarray) -> None:
    """Rotate ``x`` left by ``r`` bits in place; ``spare`` is scratch of x's shape."""
    np.right_shift(x, np.uint64(64 - r), out=spare)
    x <<= np.uint64(r)
    x |= spare


def _fmix64_into(k: np.ndarray, spare: np.ndarray) -> None:
    for multiplier in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        np.right_shift(k, np.uint64(33), out=spare)
        k ^= spare
        k *= np.uint64(multiplier)
    np.right_shift(k, np.uint64(33), out=spare)
    k ^= spare


def _mixed_lane(lane: np.ndarray, first: int, r: int, second: int, out: np.ndarray,
                spare: np.ndarray) -> np.ndarray:
    """``rotl(lane * first, r) * second`` into ``out``; ``lane`` is only read."""
    np.multiply(lane, np.uint64(first), out=out)
    _rotl64_into(out, r, spare)
    out *= np.uint64(second)
    return out


def murmur3_low64_batch(messages: np.ndarray, seed: int | np.ndarray = 0) -> np.ndarray:
    """h1 for each row of a (n, width) uint8 array of equal-width messages.

    ``seed`` is one seed for every row, or a uint64 array of n seeds, one per
    row, so that several seeds can share one call. Neither argument is
    modified: the state lives in two fresh arrays and two reused scratch
    arrays, which every step updates in place.
    """
    if messages.ndim != 2:
        raise ValueError("expected a 2-d array of messages")
    messages = np.ascontiguousarray(messages, dtype=np.uint8)
    n, width = messages.shape
    if isinstance(seed, np.ndarray):
        if seed.dtype != np.uint64 or seed.shape != (n,):
            raise ValueError("per-row seeds must be a uint64 array with one seed per message")
        h1 = seed.copy()
    else:
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        h1 = np.full(n, np.uint64(seed), dtype=np.uint64)
    h2 = h1.copy()
    k, spare = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)

    if width % 8:
        # The tail, zero-padded to whole u64 lanes (one or two). Rows copy
        # as single void values, much faster than byte columns.
        padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
        padded[:, :width].view(f"V{width}")[:, 0] = messages.view(f"V{width}")[:, 0]
        messages = padded
    lanes = messages.view("<u8")
    nblocks = width // 16
    tail_len = width - nblocks * 16
    for i in range(nblocks):
        h1 ^= _mixed_lane(lanes[:, 2 * i], _C1, 31, _C2, k, spare)
        _rotl64_into(h1, 27, spare)
        h1 += h2
        h1 *= np.uint64(5)
        h1 += np.uint64(0x52DCE729)
        h2 ^= _mixed_lane(lanes[:, 2 * i + 1], _C2, 33, _C1, k, spare)
        _rotl64_into(h2, 31, spare)
        h2 += h1
        h2 *= np.uint64(5)
        h2 += np.uint64(0x38495AB5)

    if tail_len > 8:
        h2 ^= _mixed_lane(lanes[:, 2 * nblocks + 1], _C2, 33, _C1, k, spare)
    if tail_len:
        h1 ^= _mixed_lane(lanes[:, 2 * nblocks], _C1, 31, _C2, k, spare)

    h1 ^= np.uint64(width)
    h2 ^= np.uint64(width)
    h1 += h2
    h2 += h1
    _fmix64_into(h1, spare)
    _fmix64_into(h2, spare)
    h1 += h2
    return h1
