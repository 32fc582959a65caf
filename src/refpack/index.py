"""Cuckoo-hashed k-mer index over a packed reference, with a 4-bit prefilter.

Each slot stores a u32 reference offset (0xFFFFFFFF = empty); keys are
implicit and recovered from the reference during verification and eviction.
A slot's filter nibble holds the low 4 bits of the packed reference k-mer
stored there (bases 0 and 1), so a nibble mismatch proves the full
verification would fail; a nibble match proves nothing.

The build is batched (``build_index``): exact-duplicate k-mers are dropped up
front, keeping each k-mer's first offset; numpy rounds then place all pending
keys at once, one winner per slot, for at most EVICTION_LIMIT rounds. A key
still pending after the last round is skipped and counted.
Lookups try both slots of the forward k-mer before either slot of its reverse
complement, so with no skipped key every lookup result is independent of
which of its two slots a key landed in.

Lookups come in two forms with the same answers. ``ReferenceIndex.probe`` is
the array form the compressor uses: it takes every stride-aligned window of a
target at once, hashes the packed k-mers of both strands in one call per
chunk, gathers the four candidate slots of each as a (4, n) array, applies the
nibble test, drops empty slots and offsets past the reference end, verifies
the survivors by comparing packed k-mers, and keeps each window's first
verified probe. ``ReferenceIndex.query`` looks up one k-mer with scalar code,
which is cheaper for a single lookup. Nothing unpacks the reference.

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
from typing import BinaryIO, NamedTuple, Union

import numpy as np

from .errors import RefpackError
from .hashing import DEFAULT_SEED_1, DEFAULT_SEED_2, murmur3_low64, murmur3_low64_batch
from .sequence import (
    Kmer, PackedSequence, kmer_at, packed_kmers, reverse_complement_rows, sequence_checksum
)

EMPTY_SLOT = 0xFFFFFFFF
# Rounds of the batched build; a key still pending after the last is skipped.
EVICTION_LIMIT = 500

_MAGIC = b"BIDX"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQQQ32s")
# A claim in the batched build: a little-endian u64 whose high word is the
# slot and low word the key, so that sorting the u64 orders slot, then key.
_CLAIM = np.dtype([("key", "<u4"), ("slot", "<u4")])
# Positions per step of the array probe, which bounds its packed rows and
# hashes of target and reference k-mers.
_PROBE_CHUNK = 1 << 14
# Indexed by the first verified probe (4 = none): its orientation code and
# the number of probes made up to and including it.
_PROBE_ORIENTATION = np.array([1, 1, 2, 2, 0], dtype=np.uint8)
_PROBES_MADE = np.array([1, 2, 3, 4, 4], dtype=np.uint8)
_PROBE_ROWS = np.arange(4)[:, None]


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


class ProbeResult(NamedTuple):
    """Per-position outcome of ``ReferenceIndex.probe``.

    ``orientation`` is 0 where nothing verified, else an ``Orientation``
    value, with the verified ``offset``. ``probes`` counts the slots tried up
    to and including the first hit (4 on a miss) and ``prefilter_rejects``
    those of them the nibble test turned away, so that ``QueryStats`` can be
    charged for exactly the positions a caller used.
    """

    orientation: np.ndarray
    offset: np.ndarray
    probes: np.ndarray
    prefilter_rejects: np.ndarray

    def count(self, used: np.ndarray, stats: QueryStats) -> None:
        """Add the probes made at the position indices ``used`` to ``stats``."""
        probes = int(self.probes[used].sum(dtype=np.int64))
        rejects = int(self.prefilter_rejects[used].sum(dtype=np.int64))
        hits = int(np.count_nonzero(self.orientation[used]))
        stats.probes += probes
        stats.prefilter_rejects += rejects
        stats.verify_failures += probes - rejects - hits
        stats.hits += hits


def _hashed_rows(data, k: int, starts: np.ndarray, seeds: tuple[int, int], include_rc: bool):
    """The packed k-mers at ``starts`` as hash messages, and their hashes.

    Block j of the messages (n rows each) and row j of the hashes are strand
    j // 2 under seed j % 2, the strands being the k-mers and, with
    ``include_rc``, their reverse complements. One hash call covers all.
    """
    forward = packed_kmers(data, starts, k)
    strands = (forward, reverse_complement_rows(forward, k)) if include_rc else (forward,)
    messages = np.concatenate([strand for strand in strands for _ in seeds])
    seed_pattern = np.array(seeds * len(strands), dtype=np.uint64)
    hashes = murmur3_low64_batch(messages, np.repeat(seed_pattern, starts.size))
    return messages, hashes.reshape(-1, starts.size)


def window_probe_tables(
    data, k: int, offsets: np.ndarray, seeds: tuple[int, int], *, chunk: int = 1 << 16
):
    """Hashes (h1, h2) and filter nibbles (low4) of the k-mers starting at ``offsets``.

    ``data`` is the packed bytes of the sequence. Each chunk of windows is
    hashed in one ``murmur3_low64_batch`` call (``_hashed_rows``) of at most
    ``chunk`` rows, which bounds the transient rows and hashes.
    """
    per_call = max(1, chunk // 2)
    n = offsets.size
    h1, h2 = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    low4 = np.empty(n, dtype=np.uint8)
    for start in range(0, n, per_call):
        part = offsets[start : start + per_call]
        messages, hashed = _hashed_rows(data, k, part, seeds, False)
        stop = start + part.size
        h1[start:stop], h2[start:stop] = hashed
        low4[start:stop] = messages[: part.size, 0] & 0xF
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

    def probe(
        self,
        reference: PackedSequence,
        data,
        positions: np.ndarray,
        *,
        use_prefilter: bool = True,
    ) -> ProbeResult:
        """Look up the k-mers starting at ``positions`` of the packed bytes ``data``.

        Each position's probes of the slots h1(t), h2(t), h1(rc t), h2(rc t)
        are the rows of a (4, n) array. A probe passes the nibble test, then
        the slot's offset (empty slots and offsets past ``reference.length -
        k`` fail), then a comparison of the packed reference k-mer there with
        the packed target k-mer, or with its reverse complement for a reverse
        probe. The first verified probe wins, so forward orientation wins
        ties, as in ``query``. Positions are gathered and hashed _PROBE_CHUNK
        at a time, which bounds the temporaries.
        """
        k = self.k
        # Offsets above this fail (all of them when the reference is shorter
        # than k); so does EMPTY_SLOT, since every indexable reference is
        # shorter than EMPTY_SLOT.
        last = min(reference.length - k, EMPTY_SLOT - 1)
        n = positions.size
        result = ProbeResult(
            orientation=np.zeros(n, dtype=np.uint8),
            offset=np.zeros(n, dtype=np.uint32),
            probes=np.full(n, 4, dtype=np.uint8),
            prefilter_rejects=np.zeros(n, dtype=np.uint8),
        )
        mask = np.uint64(self._mask)
        for start in range(0, n, _PROBE_CHUNK):
            part = slice(start, start + _PROBE_CHUNK)
            # Row j of ``slot`` holds every position's j-th probe, and block j
            # of ``messages`` the packed k-mers it hashed.
            messages, slot = _hashed_rows(data, k, positions[part], self.seeds, True)
            slot &= mask
            offsets = self.slots[slot]
            live = offsets <= last
            if use_prefilter:
                rejected = self.nibbles[slot] != (messages[:, 0] & 0xF).reshape(4, -1)
                live &= ~rejected
            probe_no, rows = np.nonzero(live)
            # A probe verifies against the row it hashed: the target k-mer for
            # probes 0 and 1, its reverse complement for 2 and 3, so no row
            # is flipped. Rows compare as single void values.
            void = f"V{messages.shape[1]}"
            ref_kmers = packed_kmers(reference.data, offsets[probe_no, rows], k).view(void)
            wanted = messages[probe_no * live.shape[1] + rows].view(void)
            # Row 4 stands for "no probe verified".
            verified = np.zeros((5, live.shape[1]), dtype=bool)
            verified[4] = True
            verified[probe_no, rows] = (ref_kmers == wanted).ravel()
            first = verified.argmax(axis=0)
            result.orientation[part] = _PROBE_ORIENTATION[first]
            result.offset[part] = np.where(first < 4, offsets[first & 3, np.arange(first.size)], 0)
            result.probes[part] = _PROBES_MADE[first]
            if use_prefilter:
                result.prefilter_rejects[part] = (rejected & (_PROBE_ROWS < first)).sum(axis=0)
        return result

    def query(
        self,
        reference: PackedSequence,
        target: Kmer,
        *,
        use_prefilter: bool = True,
        stats: QueryStats | None = None,
    ) -> Candidate | None:
        """Look up one target k-mer in both orientations; None when absent.

        Probes h1(t), h2(t), h1(rc t), h2(rc t) in turn, one slot at a time;
        the first slot whose k-mer verifies against the reference wins, which
        makes forward orientation win ties by construction. ``probe`` gives
        the same answer for many k-mers at once.
        """
        if target.k != self.k:
            raise ValueError(f"query k {target.k} does not match index k {self.k}")
        k = self.k
        last = min(reference.length - k, EMPTY_SLOT - 1)
        for kmer, orient in (
            (target, Orientation.FORWARD),
            (target.reverse_complement(), Orientation.REVERSE),
        ):
            raw = kmer.bytes_le()
            for seed in self.seeds:
                slot = murmur3_low64(raw, seed) & self._mask
                if stats is not None:
                    stats.probes += 1
                if use_prefilter and self.nibbles[slot] != kmer.low4:
                    if stats is not None:
                        stats.prefilter_rejects += 1
                    continue
                off = int(self.slots[slot])
                if off > last or kmer_at(reference, off, k) != kmer:
                    if stats is not None:
                        stats.verify_failures += 1
                    continue
                if stats is not None:
                    stats.hits += 1
                return Candidate(orient, off)
        return None

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


def _first_occurrences(data, k: int, stride: int, h1s: np.ndarray) -> np.ndarray:
    """Ascending uint32 key indices of the first occurrence of each distinct k-mer.

    Key ``i`` is the k-mer at offset ``i * stride``. Sorting by ``h1`` finds
    the keys that share an ``h1`` with another key; only their packed k-mers
    are compared, and of equal k-mers the smallest key index stays.
    """
    n = h1s.size
    order = np.argsort(h1s)
    sorted_h1 = h1s[order]
    tied = np.flatnonzero(sorted_h1[1:] == sorted_h1[:-1])
    del sorted_h1
    keep = np.ones(n, dtype=bool)
    if tied.size:
        in_run = np.zeros(n, dtype=bool)
        in_run[tied] = True
        in_run[tied + 1] = True
        candidates = np.sort(order[in_run])
        rows = packed_kmers(data, candidates * stride, k)
        kmers = rows.view(f"V{rows.shape[1]}").ravel()
        # A stable sort keeps equal k-mers in key order: the first one stays.
        by_kmer = np.argsort(kmers, kind="stable")
        repeat = kmers[by_kmer[1:]] == kmers[by_kmer[:-1]]
        keep[candidates[by_kmer[1:][repeat]]] = False
    del order
    return np.arange(n, dtype=np.uint32)[keep]


def build_index(
    reference: PackedSequence,
    k: int,
    sampling_stride: int = 1,
    seeds: tuple[int, int] = (DEFAULT_SEED_1, DEFAULT_SEED_2),
) -> ReferenceIndex:
    """Index the k-mer at every stride-aligned reference offset.

    Capacity is the smallest power of two at least twice the number of
    insertion attempts, so the load factor never exceeds 0.5. Key ``i`` is
    the k-mer at offset ``i * stride``; slots hold offsets, so a slot's key
    is its offset divided by the stride. The build has two steps:

    1. Exact duplicates are dropped up front: each k-mer keeps its first
       (smallest) offset. Distinct k-mers with equal hashes all stay.
    2. Round-based insertion places the remaining keys together, for at most
       EVICTION_LIMIT rounds. In a round every pending key claims one of its
       two slots; the lowest key index claiming a slot wins it and displaces
       the key held there. Losers and displaced keys claim their other slot
       in the next round. A key still pending after the last round, having
       lost its claim or been displaced in it, is skipped and counted.

    Placement is deterministic. With no skipped key, every distinct k-mer is
    stored with its first offset, whatever the slot layout.
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
    stride = sampling_stride
    capacity = _next_power_of_two(2 * ((reference.length - k) // stride + 1))
    if capacity > 1 << 32:
        raise ValueError("too many k-mers for 32-bit slot indices; raise sampling_stride")
    mask = capacity - 1

    offsets = np.arange(0, reference.length - k + 1, stride, dtype=np.int64)
    h1s, h2s, low4s = window_probe_tables(reference.data, k, offsets, seeds)
    # Each 64-bit array is freed once spent, so the build's peak memory stays
    # near the hashing step's: the rounds work on uint32 slots and keys.
    del offsets
    h2s &= mask
    slot_b = h2s.astype(np.uint32)
    del h2s
    pending = _first_occurrences(reference.data, k, stride, h1s)
    h1s &= mask
    slot_a = h1s.astype(np.uint32)
    del h1s

    slots = np.full(capacity, EMPTY_SLOT, dtype=np.uint32)
    nibbles = np.zeros(capacity, dtype=np.uint8)
    target = slot_a[pending]
    for _ in range(EVICTION_LIMIT):
        if not pending.size:
            break
        # One sort of (slot, key) words orders the claims by slot, then by
        # key: the first claim on each slot is its winner.
        claims = target.astype("<u8")
        del target
        claims <<= 32
        claims |= pending
        del pending
        claims.sort()
        pairs = claims.view(_CLAIM)
        won = np.ones(pairs.size, dtype=bool)
        won[1:] = pairs["slot"][1:] != pairs["slot"][:-1]
        won_slots, won_keys = pairs["slot"][won], pairs["key"][won]
        lost = np.logical_not(won, out=won)
        # ``left`` is the slot each next-round key lost or was evicted from.
        left, pending = pairs["slot"][lost], pairs["key"][lost]
        del claims, pairs, won, lost
        holders = slots[won_slots]
        nibbles[won_slots] = low4s[won_keys]
        won_keys *= stride  # now offsets
        slots[won_slots] = won_keys
        evicted = holders != EMPTY_SLOT
        left = np.concatenate([left, won_slots[evicted]])
        pending = np.concatenate([pending, holders[evicted] // stride])
        first = slot_a[pending]
        target = np.where(left == first, slot_b[pending], first)

    return ReferenceIndex(
        k=k,
        sampling_stride=sampling_stride,
        capacity=capacity,
        seeds=seeds,
        ref_checksum=sequence_checksum(reference),
        slots=slots,
        nibbles=nibbles,
        skipped_keys=int(pending.size),
    )
