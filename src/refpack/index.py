"""Cuckoo-hashed k-mer index over a packed reference, with a 4-bit prefilter.

Each slot stores a u32 reference offset (0xFFFFFFFF = empty); keys are
implicit and recovered from the reference during verification and eviction.
A slot's filter nibble holds the low 4 bits of the packed reference k-mer
stored there (bases 0 and 1), so a nibble mismatch proves the full
verification would fail; a nibble match proves nothing.

On-disk ".bidx" layout, all little-endian:

    magic      4 bytes  "BIDX"
    version    u16      (=1)
    k          u16
    stride     u32
    capacity   u64
    seed1      u64
    seed2      u64
    checksum   32 bytes (reference digest)
    slots      capacity * u32
    nibbles    capacity/2 bytes, two slots per byte, low nibble first
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RefpackError
from .hashing import DEFAULT_SEED_1, DEFAULT_SEED_2, murmur3_low64, murmur3_low64_batch
from .sequence import Kmer, PackedSequence, sequence_checksum

EMPTY_SLOT = 0xFFFFFFFF
EVICTION_LIMIT = 500

_MAGIC = b"BIDX"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQQQ32s")


class Orientation(IntEnum):
    FORWARD = 1
    REVERSE = 2


@dataclass(frozen=True)
class Candidate:
    """A verified match: offset of the forward-oriented reference k-mer."""

    orientation: Orientation
    offset: int


@dataclass
class QueryStats:
    probes: int = 0
    prefilter_rejects: int = 0
    verify_failures: int = 0
    hits: int = 0


def _pack_rows(win: np.ndarray) -> np.ndarray:
    """Pack (n, k) code rows into (n, ceil(k/4)) bytes, base 0 in low bits."""
    n, k = win.shape
    pad = (-k) % 4
    if pad:
        win = np.concatenate([win, np.zeros((n, pad), dtype=np.uint8)], axis=1)
    quad = win.reshape(n, -1, 4)
    return (quad[:, :, 0] | (quad[:, :, 1] << 2) | (quad[:, :, 2] << 4) | (quad[:, :, 3] << 6)).astype(np.uint8)


def window_probe_tables(
    codes: np.ndarray,
    k: int,
    offsets: np.ndarray,
    seeds: tuple[int, int],
    *,
    include_rc: bool = False,
    chunk: int = 1 << 16,
):
    """Hashes (and filter nibbles) of the k-mers starting at ``offsets``.

    Returns (h1, h2, low4) arrays, plus (h1_rc, h2_rc, low4_rc) for the
    reverse complements when ``include_rc`` is set. Work is chunked to bound
    the transient (chunk, k) expansion.
    """
    n = offsets.size
    h1 = np.empty(n, dtype=np.uint64)
    h2 = np.empty(n, dtype=np.uint64)
    low4 = np.empty(n, dtype=np.uint8)
    if include_rc:
        h1r = np.empty(n, dtype=np.uint64)
        h2r = np.empty(n, dtype=np.uint64)
        low4r = np.empty(n, dtype=np.uint8)
    if n == 0:
        empty = (h1, h2, low4)
        return empty + (h1r, h2r, low4r) if include_rc else empty

    windows = sliding_window_view(codes, k)
    for start in range(0, n, chunk):
        sel = offsets[start : start + chunk]
        win = windows[sel]
        packed = _pack_rows(win)
        h1[start : start + chunk] = murmur3_low64_batch(packed, seeds[0])
        h2[start : start + chunk] = murmur3_low64_batch(packed, seeds[1])
        low4[start : start + chunk] = packed[:, 0] & 0xF
        if include_rc:
            packed_rc = _pack_rows((win ^ 3)[:, ::-1])
            h1r[start : start + chunk] = murmur3_low64_batch(packed_rc, seeds[0])
            h2r[start : start + chunk] = murmur3_low64_batch(packed_rc, seeds[1])
            low4r[start : start + chunk] = packed_rc[:, 0] & 0xF
    if include_rc:
        return h1, h2, low4, h1r, h2r, low4r
    return h1, h2, low4


class ReferenceIndex:
    """Offsets of sampled reference k-mers, cuckoo-hashed into two slots each."""

    def __init__(
        self,
        *,
        k: int,
        sampling_stride: int,
        capacity: int,
        seeds: tuple[int, int],
        ref_checksum: bytes,
        slots: np.ndarray,
        nibbles: np.ndarray,
        skipped_keys: int = 0,
    ):
        self.k = k
        self.sampling_stride = sampling_stride
        self.capacity = capacity
        self.seeds = seeds
        self.ref_checksum = ref_checksum
        self.slots = slots
        self.nibbles = nibbles  # one filter nibble per slot; empty slots hold 0
        self.skipped_keys = skipped_keys
        self._mask = capacity - 1

    @property
    def occupied(self) -> int:
        return int((self.slots != EMPTY_SLOT).sum())

    @property
    def load_factor(self) -> float:
        return self.occupied / self.capacity

    def hash_pair(self, kmer: Kmer) -> tuple[int, int]:
        raw = kmer.bytes_le()
        return (
            murmur3_low64(raw, self.seeds[0]),
            murmur3_low64(raw, self.seeds[1]),
        )

    def probe(
        self,
        ref_codes_bytes: bytes,
        fwd_codes: bytes,
        rc_codes: bytes,
        hashes: tuple[int, int, int, int],
        *,
        use_prefilter: bool = True,
        stats: QueryStats | None = None,
    ) -> Candidate | None:
        """Core probe sequence: h1(t), h2(t), h1(rc t), h2(rc t).

        The first probe whose slot verifies against the reference wins, which
        makes forward orientation win ties by construction.
        """
        k = self.k
        mask = self._mask
        slots = self.slots
        nibbles = self.nibbles
        lf = fwd_codes[0] | (fwd_codes[1] << 2) if k > 1 else fwd_codes[0]
        lr = rc_codes[0] | (rc_codes[1] << 2) if k > 1 else rc_codes[0]
        h1f, h2f, h1r, h2r = hashes
        for h, codes, low4, orient in (
            (h1f, fwd_codes, lf, Orientation.FORWARD),
            (h2f, fwd_codes, lf, Orientation.FORWARD),
            (h1r, rc_codes, lr, Orientation.REVERSE),
            (h2r, rc_codes, lr, Orientation.REVERSE),
        ):
            slot = h & mask
            if stats is not None:
                stats.probes += 1
            if use_prefilter and nibbles[slot] != low4:
                if stats is not None:
                    stats.prefilter_rejects += 1
                continue
            off = int(slots[slot])
            if off == EMPTY_SLOT or ref_codes_bytes[off : off + k] != codes:
                if stats is not None:
                    stats.verify_failures += 1
                continue
            if stats is not None:
                stats.hits += 1
            return Candidate(orient, off)
        return None

    def query(
        self,
        reference: PackedSequence,
        target: Kmer,
        *,
        use_prefilter: bool = True,
        stats: QueryStats | None = None,
    ) -> Candidate | None:
        """Look up a target k-mer in both orientations; None when absent."""
        if target.k != self.k:
            raise ValueError(f"query k {target.k} does not match index k {self.k}")
        rc = target.reverse_complement()
        h1f, h2f = self.hash_pair(target)
        h1r, h2r = self.hash_pair(rc)
        return self.probe(
            reference.codes_bytes(),
            target.to_codes(),
            rc.to_codes(),
            (h1f, h2f, h1r, h2r),
            use_prefilter=use_prefilter,
            stats=stats,
        )

    # --- serialization ---

    def save(self, dest: Union[str, Path, BinaryIO]) -> None:
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self.k,
            self.sampling_stride,
            self.capacity,
            self.seeds[0],
            self.seeds[1],
            self.ref_checksum,
        )
        nib = self.nibbles
        if nib.size % 2:
            nib = np.concatenate([nib, np.zeros(1, dtype=np.uint8)])
        packed_nibbles = (nib[0::2] | (nib[1::2] << 4)).astype(np.uint8)
        payload = header + self.slots.astype("<u4").tobytes() + packed_nibbles.tobytes()
        if isinstance(dest, (str, Path)):
            Path(dest).write_bytes(payload)
        else:
            dest.write(payload)

    @classmethod
    def load(cls, src: Union[str, Path, bytes, BinaryIO]) -> "ReferenceIndex":
        if isinstance(src, (str, Path)):
            blob = Path(src).read_bytes()
        elif isinstance(src, bytes):
            blob = src
        else:
            blob = src.read()
        if len(blob) < _HEADER.size:
            raise RefpackError("index file too short")
        magic, version, k, stride, capacity, s1, s2, checksum = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise RefpackError("bad index magic")
        if version != _VERSION:
            raise RefpackError(f"unsupported index version {version}")
        if capacity < 1 or capacity & (capacity - 1):
            raise RefpackError("index capacity is not a power of two")
        slot_bytes = capacity * 4
        nibble_bytes = (capacity + 1) // 2
        expected = _HEADER.size + slot_bytes + nibble_bytes
        if len(blob) != expected:
            raise RefpackError(
                f"index file size {len(blob)} does not match expected {expected}"
            )
        slots = np.frombuffer(blob, dtype="<u4", count=capacity, offset=_HEADER.size).copy()
        packed_nibbles = np.frombuffer(
            blob, dtype=np.uint8, count=nibble_bytes, offset=_HEADER.size + slot_bytes
        )
        nibbles = np.empty(nibble_bytes * 2, dtype=np.uint8)
        nibbles[0::2] = packed_nibbles & 0xF
        nibbles[1::2] = packed_nibbles >> 4
        return cls(
            k=k,
            sampling_stride=stride,
            capacity=capacity,
            seeds=(s1, s2),
            ref_checksum=checksum,
            slots=slots,
            nibbles=nibbles[:capacity],
        )


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def build_index(
    reference: PackedSequence,
    k: int,
    sampling_stride: int = 1,
    seeds: tuple[int, int] = (DEFAULT_SEED_1, DEFAULT_SEED_2),
) -> ReferenceIndex:
    """Index the k-mer at every stride-aligned reference offset.

    Capacity is the smallest power of two at least twice the number of
    insertion attempts, so the load factor never exceeds 0.5. Exact-duplicate
    k-mers keep their first offset. A key whose eviction chain exceeds
    EVICTION_LIMIT displacements is skipped and counted; the table is restored
    to its prior state, so a skip never loses an already-inserted key.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if sampling_stride < 1:
        raise ValueError("sampling_stride must be positive")
    if reference.length < k:
        raise ValueError(
            f"reference length {reference.length} is shorter than k={k}"
        )
    if reference.length >= EMPTY_SLOT:
        raise ValueError("reference too long for 32-bit offsets")

    codes = reference.codes()
    ref_cb = reference.codes_bytes()
    offsets = np.arange(0, reference.length - k + 1, sampling_stride, dtype=np.int64)
    n_attempts = int(offsets.size)
    capacity = _next_power_of_two(2 * n_attempts)
    mask = capacity - 1

    h1s, h2s, low4s = window_probe_tables(codes, k, offsets, seeds)
    slots = np.full(capacity, EMPTY_SLOT, dtype=np.uint32)
    nibbles = np.zeros(capacity, dtype=np.uint8)
    stride = sampling_stride
    skipped = 0

    def kmers_equal(a: int, b: int) -> bool:
        return ref_cb[a : a + k] == ref_cb[b : b + k]

    for i in range(n_attempts):
        off = int(offsets[i])
        s1 = int(h1s[i]) & mask
        s2 = int(h2s[i]) & mask

        dup = False
        for s in (s1, s2):
            held = int(slots[s])
            if held != EMPTY_SLOT and kmers_equal(held, off):
                dup = True
                break
        if dup:
            continue

        cur = off
        cur_low4 = int(low4s[i])
        pos = s1
        trail: list[int] = []
        placed = False
        for _ in range(EVICTION_LIMIT):
            prev = int(slots[pos])
            prev_low4 = int(nibbles[pos])
            slots[pos] = cur
            nibbles[pos] = cur_low4
            trail.append(pos)
            if prev == EMPTY_SLOT:
                placed = True
                break
            cur, cur_low4 = prev, prev_low4
            j = cur // stride
            a = int(h1s[j]) & mask
            b = int(h2s[j]) & mask
            pos = b if pos == a else a
        if not placed:
            # Unwind the displacement chain so only the new key is dropped.
            for pos in reversed(trail):
                held, held_low4 = int(slots[pos]), int(nibbles[pos])
                slots[pos] = cur
                nibbles[pos] = cur_low4
                cur, cur_low4 = held, held_low4
            assert cur == off
            skipped += 1

    return ReferenceIndex(
        k=k,
        sampling_stride=sampling_stride,
        capacity=capacity,
        seeds=seeds,
        ref_checksum=sequence_checksum(reference),
        slots=slots,
        nibbles=nibbles,
        skipped_keys=skipped,
    )
