"""Cuckoo-hashed k-mer index over a packed reference, with a 4-bit prefilter.

Each slot stores a u32 reference offset (0xFFFFFFFF = empty); keys are
implicit and recovered from the reference during verification and eviction.
A slot's filter nibble holds the low 4 bits of the packed reference k-mer
stored there (bases 0 and 1), so a nibble mismatch proves the full
verification would fail; a nibble match proves nothing.

The build is batched (``build_index``). ``window_probe_tables`` reads the
k-mer rows as strided views of four shifted copies of the packed bytes, not
window by window, and hashes them straight into uint32 slot pairs. Exact
duplicate k-mers are dropped up front, keeping each k-mer's first offset;
only keys that share their slot pair with another are compared byte by byte.
Numpy rounds then place all pending keys at once, one winner per slot, for at
most EVICTION_LIMIT rounds: the first, into an empty table, by a minimum per
slot, and the later ones by sorting their claims; the last few pending keys,
typically one eviction chain, run the same rounds on Python ints. A key still
pending after the last round is skipped and counted.
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

import math
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
# Pending keys at or below which a round runs on Python ints (``_settle_few``):
# there a numpy round costs its per-call overhead, whatever its size.
_FEW_CLAIMS = 32

_MAGIC = b"BIDX"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQQQ32s")
# A claim in the batched build: a little-endian u64 whose high word is the
# slot and low word the key, so that sorting the u64 orders slot, then key.
_CLAIM = np.dtype([("key", "<u4"), ("slot", "<u4")])
# Positions per step of the array probe, which bounds its packed rows and
# hashes of target and reference k-mers. ``compress_records`` batches records
# by this many stride windows, so its per-window arrays hold about this many
# windows, or one record's windows when that record is longer.
_PROBE_CHUNK = 1 << 13
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


def _hashed_rows(data, k: int, starts: np.ndarray, seeds: tuple[int, int]):
    """The packed k-mers at ``starts`` on both strands as hash messages, and
    their hashes.

    Block j of the messages (n rows each) and row j of the hashes are strand
    j // 2 under seed j % 2, the strands being the k-mers and their reverse
    complements. One hash call covers all.
    """
    forward = packed_kmers(data, starts, k)
    strands = (forward, reverse_complement_rows(forward, k))
    messages = np.concatenate([strand for strand in strands for _ in seeds])
    seed_pattern = np.array(seeds * len(strands), dtype=np.uint64)
    hashes = murmur3_low64_batch(messages, np.repeat(seed_pattern, starts.size))
    return messages, hashes.reshape(-1, starts.size)


def window_probe_tables(
    data, k: int, stride: int, count: int, seeds: tuple[int, int], mask: int,
    *, chunk: int = 1 << 15,
):
    """Slots (slot_a, slot_b) and filter nibbles (low4) of ``count`` k-mers.

    Key ``i`` is the k-mer at offset ``i * stride`` of the packed bytes
    ``data``; its slots are its hashes under the two seeds, ANDed with
    ``mask``, as uint32. The rows are not gathered one window at a time:
    keys whose offsets share a residue mod 4 (every ``4 / gcd(stride, 4)``-th
    key) are a strided view of the packed bytes shifted down by that residue.
    Each chunk of keys is hashed in one ``murmur3_low64_batch`` call of at
    most ``chunk`` rows, which bounds the transient rows and hashes.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    width = (k + 3) // 4
    period = 4 // math.gcd(stride, 4)
    step = period * stride // 4  # bytes between a residue class's rows
    # shifted[r] byte j holds bases 4j + r to 4j + r + 3; bases past the end
    # read as zero.
    wide = np.zeros(raw.size + 1, dtype=np.uint16)
    wide[:-1] = raw
    wide[:-1] |= wide[1:] << 8
    shifted = {r: (wide >> 2 * r).astype(np.uint8) for r in {i * stride & 3 for i in range(period)}}
    del wide
    row = f"V{width}"  # rows copy as single void values
    per_call = max(1, chunk // 2)
    seed_rows = np.repeat(np.array(seeds, dtype=np.uint64), per_call)
    slot_a, slot_b = np.empty(count, dtype=np.uint32), np.empty(count, dtype=np.uint32)
    low4 = np.empty(count, dtype=np.uint8)
    for start in range(0, count, per_call):
        n = min(per_call, count - start)
        # Rows 0..n-1 hash under seeds[0] and their copies n..2n-1 under seeds[1].
        messages = np.empty((2 * n, width), dtype=np.uint8)
        rows = messages.view(row)[:, 0]
        for first in range(start, start + min(period, n)):
            offset = first * stride
            rows[first - start : n : period] = np.ndarray(
                len(range(first, start + n, period)), row, shifted[offset & 3], offset >> 2, step
            )
        if k % 4:
            messages[:n, -1] &= (1 << 2 * (k % 4)) - 1
        rows[n:] = rows[:n]
        if n < per_call:
            seed_rows = np.repeat(np.array(seeds, dtype=np.uint64), n)
        hashes = murmur3_low64_batch(messages, seed_rows)
        hashes &= np.uint64(mask)
        slot_a[start : start + n] = hashes[:n]
        slot_b[start : start + n] = hashes[n:]
        low4[start : start + n] = messages[:n, 0] & 0xF
        del messages, rows, hashes
    return slot_a, slot_b, low4


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
        return int(np.count_nonzero(self.slots != EMPTY_SLOT))

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
            messages, slot = _hashed_rows(data, k, positions[part], self.seeds)
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
            # Free this chunk's rows before the next chunk makes its own.
            del messages, slot, offsets, live, probe_no, rows, ref_kmers, wanted, verified
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
        # Three writes of the arrays' own buffers: no joined copy of the file.
        parts = (header, self.slots.astype("<u4", copy=False), packed_nibbles)
        if isinstance(dest, (str, Path)):
            with open(dest, "wb") as out:
                for part in parts:
                    out.write(part)
        else:
            for part in parts:
                dest.write(part)

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


def _first_occurrences(
    data, k: int, stride: int, capacity: int, slot_a: np.ndarray, slot_b: np.ndarray
):
    """Ascending uint32 key indices of the first occurrence of each distinct k-mer,
    or None when every key is one.

    Key ``i`` is the k-mer at offset ``i * stride``. Equal k-mers share both
    slots, so only keys whose ``(slot_a, slot_b)`` pair another key shares
    can repeat; sorting the pairs finds them. Only their packed k-mers are
    compared, and of equal k-mers the smallest key index stays.
    """
    pairs = slot_a.astype(np.uint64)
    pairs <<= 32
    pairs |= slot_b
    pairs.sort()
    tied = pairs[1:] == pairs[:-1]
    if not tied.any():
        return None
    shared = np.unique(pairs[1:][tied])
    del pairs, tied
    # A key can share its pair only if its slot_a is a shared pair's high
    # word: a table of those narrows the keys to test against whole pairs.
    marked = np.zeros(capacity, dtype=bool)
    marked[shared >> 32] = True
    maybe = np.flatnonzero(marked[slot_a])
    del marked
    pairs = slot_a[maybe].astype(np.uint64)
    pairs <<= 32
    pairs |= slot_b[maybe]
    candidates = maybe[np.isin(pairs, shared)]
    rows = packed_kmers(data, candidates * stride, k)
    kmers = rows.view(f"V{rows.shape[1]}").ravel()
    # A stable sort keeps equal k-mers in key order: the first one stays.
    by_kmer = np.argsort(kmers, kind="stable")
    repeat = kmers[by_kmer[1:]] == kmers[by_kmer[:-1]]
    keep = np.ones(slot_a.size, dtype=bool)
    keep[candidates[by_kmer[1:][repeat]]] = False
    return np.compress(keep, np.arange(slot_a.size, dtype=np.uint32))


def _settle_few(slots, slot_a, slot_b, pending: list, target: list, rounds: int) -> int:
    """The build's remaining rounds, once at most _FEW_CLAIMS keys are pending,
    on Python ints; returns how many keys are still pending after them.

    Each round is the batched one: claims in (slot, key) order, the first
    claim on a slot wins it and displaces its holder, and a loser or a
    displaced key next claims its slot other than the one it left. Pending
    keys never grow in number, and a long eviction chain is typically one
    key.
    """
    for _ in range(rounds):
        if not pending:
            break
        claims = sorted(zip(target, pending))
        left, pending, claimed = [], [], None
        for slot, key in claims:
            if slot != claimed:  # the lowest key claiming a slot wins it
                claimed = slot
                holder = slots.item(slot)
                slots[slot] = key
                if holder == EMPTY_SLOT:
                    continue
                key = holder
            left.append(slot)
            pending.append(key)
        target = [
            slot_b.item(key) if slot == slot_a.item(key) else slot_a.item(key)
            for slot, key in zip(left, pending)
        ]
    return len(pending)


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
    is its offset divided by the stride. The build has three steps:

    1. ``window_probe_tables`` hashes every key, reading its rows as strided
       views of the packed bytes, into uint32 slot pairs and filter nibbles.
    2. Exact duplicates are dropped: each k-mer keeps its first (smallest)
       offset. Only keys that share their slot pair with another key are
       compared byte by byte; distinct k-mers with equal slots all stay.
    3. Round-based insertion places the remaining keys together, for at most
       EVICTION_LIMIT rounds. In a round every pending key claims one of its
       two slots; the lowest key index claiming a slot wins it and displaces
       the key held there. Losers and displaced keys claim their other slot
       in the next round. A key still pending after the last round, having
       lost its claim or been displaced in it, is skipped and counted. The
       table is empty before the first round, so that round needs no sort:
       a minimum per slot picks its winners, and it displaces nothing.
       Later rounds sort their claims by (slot, key); once at most
       _FEW_CLAIMS keys are pending, the rest run the same rounds on Python
       ints (``_settle_few``).

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
    count = (reference.length - k) // stride + 1
    capacity = _next_power_of_two(2 * count)
    if capacity > 1 << 32:
        raise ValueError("too many k-mers for 32-bit slot indices; raise sampling_stride")

    slot_a, slot_b, low4s = window_probe_tables(
        reference.data, k, stride, count, seeds, capacity - 1
    )
    pending = _first_occurrences(reference.data, k, stride, capacity, slot_a, slot_b)
    if pending is None:
        pending, target = np.arange(count, dtype=np.uint32), slot_a
    else:
        target = slot_a[pending]

    # Slots hold key indices until the rounds end. Round 1: each claimed
    # slot keeps its lowest claimant; every other claimant moves to slot_b.
    slots = np.full(capacity, EMPTY_SLOT, dtype=np.uint32)
    np.minimum.at(slots, target, pending)
    lost = slots[target] != pending
    pending = np.compress(lost, pending)
    del target, lost
    target = slot_b[pending]
    rounds_left = EVICTION_LIMIT - 1
    while pending.size > _FEW_CLAIMS and rounds_left:
        rounds_left -= 1
        # One sort of (slot, key) words orders the claims by slot, then by
        # key: the first claim on each slot is its winner.
        claims = target.astype("<u8")
        del target
        claims <<= 32
        claims |= pending
        claims.sort()
        pairs = claims.view(_CLAIM)
        won = np.ones(pairs.size, dtype=bool)
        won[1:] = pairs["slot"][1:] != pairs["slot"][:-1]
        won_slots, won_keys = np.compress(won, pairs["slot"]), np.compress(won, pairs["key"])
        lost = np.logical_not(won, out=won)
        # ``left`` is the slot each next-round key lost or was evicted from.
        left, pending = np.compress(lost, pairs["slot"]), np.compress(lost, pairs["key"])
        del claims, pairs, won, lost
        holders = slots[won_slots]
        slots[won_slots] = won_keys
        evicted = holders != EMPTY_SLOT
        left = np.concatenate([left, np.compress(evicted, won_slots)])
        pending = np.concatenate([pending, np.compress(evicted, holders)])
        del won_slots, won_keys, holders, evicted
        first = slot_a[pending]
        target = np.where(left == first, slot_b[pending], first)
        del first
    skipped = _settle_few(slots, slot_a, slot_b, pending.tolist(), target.tolist(), rounds_left)
    del slot_a, slot_b, pending, target

    # Each held key brings its filter nibble, and keys become offsets.
    held = slots != EMPTY_SLOT
    nibbles = low4s[np.minimum(slots, count - 1)]
    nibbles *= held
    del low4s
    if stride > 1:
        slots = np.where(held, slots * stride, EMPTY_SLOT)

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
