"""Cuckoo-hashed k-mer index over a packed reference, with a 4-bit prefilter.

Each slot stores a u32 reference offset (0xFFFFFFFF = empty); keys are
implicit and recovered from the reference during verification and eviction.
A slot's filter nibble holds the low 4 bits of the packed reference k-mer
stored there (bases 0 and 1), so a nibble mismatch proves the full
verification would fail; a nibble match proves nothing.

The build is batched (``build_index``): exact-duplicate k-mers are dropped up
front, keeping each k-mer's first offset; numpy rounds then place all pending
keys at once, one winner per slot, for at most EVICTION_LIMIT rounds; the few
keys still pending go through the scalar cuckoo loop, where EVICTION_LIMIT
bounds each key's eviction chain and a key past it is skipped and counted.
Lookups try both slots of the forward k-mer before either slot of its reverse
complement, so with no skipped key every lookup result is independent of
which of its two slots a key landed in.

Lookups come in two forms with the same answers. ``ReferenceIndex.probe`` is
the array form the compressor uses: it takes every stride-aligned window of a
target at once (hashed by ``window_probe_tables``, one hash call per chunk),
gathers the four candidate slots of each as a (4, n) array, applies the
nibble test, drops empty slots and offsets past the reference end, verifies
the survivors by comparing gathered reference k-mers with the target windows,
and keeps each window's first verified probe. ``ReferenceIndex.query`` looks
up one k-mer with scalar code, which is cheaper for a single lookup.

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
from .sequence import Kmer, PackedSequence, sequence_checksum

EMPTY_SLOT = 0xFFFFFFFF
EVICTION_LIMIT = 500

_MAGIC = b"BIDX"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQQQ32s")
# A claim in the batched build: a little-endian u64 whose high word is the
# slot and low word the key, so that sorting the u64 orders slot, then key.
_CLAIM = np.dtype([("key", "<u4"), ("slot", "<u4")])
# Positions per step of the array probe, which bounds its (positions, k)
# gathers of target and reference k-mers.
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


def _kmer_windows(codes: np.ndarray, k: int) -> np.ndarray:
    """(len - k + 1, k) view of every k-mer of a uint8 code array.

    The same view as numpy's ``sliding_window_view``, made without its
    argument checks, which cost more than the probe of a short record.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    return np.ndarray((max(codes.size - k + 1, 0), k), np.uint8, codes, strides=(1, 1))


def _pack_rows(win: np.ndarray) -> np.ndarray:
    """Pack (n, k) code rows into (n, ceil(k/4)) bytes, base 0 in low bits."""
    n, k = win.shape
    pad = (-k) % 4
    if pad:
        win = np.concatenate([win, np.zeros((n, pad), dtype=np.uint8)], axis=1)
    # Each little-endian u32 holds four codes, one per byte; fold the four
    # 2-bit codes into its low byte.
    quad = np.ascontiguousarray(win).view("<u4")
    quad = quad | (quad >> 6)
    quad &= 0x000F000F
    quad |= quad >> 12
    return quad.astype(np.uint8)


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
    reverse complements when ``include_rc`` is set. Windows are hashed a
    chunk at a time in one ``murmur3_low64_batch`` call: the forward rows
    under both seeds (and the reverse-complement rows under both seeds), with
    the seed given per row. A call holds at most ``chunk`` rows, which bounds
    the transient (rows, k) expansion.
    """
    strands = 2 if include_rc else 1
    per_call = max(1, chunk // (2 * strands))
    n = offsets.size
    tables = [
        (np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint8))
        for _ in range(strands)
    ]
    seed_pattern = np.array(seeds * strands, dtype=np.uint64)
    for start in range(0, n, per_call):
        win = _kmer_windows(codes, k)[offsets[start : start + per_call]]
        m = win.shape[0]
        packed = [_pack_rows(win)]
        if include_rc:
            packed.append(_pack_rows((win ^ 3)[:, ::-1]))
        # Rows in order: strand 0 under seed 1, strand 0 under seed 2, ...
        rows = np.concatenate([strand for strand in packed for _ in seeds])
        hashed = murmur3_low64_batch(rows, np.repeat(seed_pattern, m)).reshape(-1, m)
        for j, (h1, h2, low4) in enumerate(tables):
            h1[start : start + m] = hashed[2 * j]
            h2[start : start + m] = hashed[2 * j + 1]
            low4[start : start + m] = packed[j][:, 0] & 0xF
    return tuple(array for table in tables for array in table)


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
        codes: np.ndarray,
        positions: np.ndarray,
        tables: tuple[np.ndarray, ...],
        *,
        use_prefilter: bool = True,
    ) -> ProbeResult:
        """Look up the k-mers of ``codes`` starting at ``positions``, all at once.

        ``tables`` are the six arrays ``window_probe_tables(codes, k,
        positions, seeds, include_rc=True)`` returns. Each position's probes
        of the slots h1(t), h2(t), h1(rc t), h2(rc t) are the rows of a (4, n)
        array. A probe passes the nibble test, then the slot's offset (empty
        slots and offsets past ``reference.length - k`` fail), then a
        comparison of the reference k-mer there with the target window. The
        first verified probe wins, so forward orientation wins ties, as in
        ``query``. Positions are taken _PROBE_CHUNK at a time, which bounds
        the gathered k-mers.
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
        if n == 0:
            return result
        target_windows = _kmer_windows(codes, k)
        ref_windows = _kmer_windows(reference.codes(), k)
        h1f, h2f, low4f, h1r, h2r, low4r = tables
        mask = np.uint64(self._mask)
        for start in range(0, n, _PROBE_CHUNK):
            part = slice(start, start + _PROBE_CHUNK)
            # Row j holds every position's j-th probe.
            slot = np.concatenate((h1f[part], h2f[part], h1r[part], h2r[part])).reshape(4, -1)
            slot &= mask
            offsets = self.slots[slot]
            live = offsets <= last
            if use_prefilter:
                low4 = np.concatenate((low4f[part], low4f[part], low4r[part], low4r[part]))
                rejected = self.nibbles[slot] != low4.reshape(4, -1)
                live &= ~rejected
            probe_no, rows = np.nonzero(live)
            # Verify in forward orientation: a reverse probe's reference
            # k-mer, reverse-complemented, must equal the target window.
            ref_kmers = ref_windows[offsets[probe_no, rows]]
            reverse = probe_no >= 2
            ref_kmers[reverse] = ref_kmers[reverse, ::-1] ^ 3
            # Row 4 stands for "no probe verified".
            verified = np.zeros((5, live.shape[1]), dtype=bool)
            verified[4] = True
            verified[probe_no, rows] = (ref_kmers == target_windows[positions[part][rows]]).all(axis=1)
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
        ref_codes_bytes = reference.codes_bytes()
        for kmer, orient in (
            (target, Orientation.FORWARD),
            (target.reverse_complement(), Orientation.REVERSE),
        ):
            raw = kmer.bytes_le()
            codes = kmer.to_codes()
            for seed in self.seeds:
                slot = murmur3_low64(raw, seed) & self._mask
                if stats is not None:
                    stats.probes += 1
                if use_prefilter and self.nibbles[slot] != kmer.low4:
                    if stats is not None:
                        stats.prefilter_rejects += 1
                    continue
                off = int(self.slots[slot])
                if off == EMPTY_SLOT or ref_codes_bytes[off : off + k] != codes:
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


def _first_occurrences(codes: np.ndarray, k: int, stride: int, h1s: np.ndarray) -> np.ndarray:
    """Ascending uint32 key indices of the first occurrence of each distinct k-mer.

    Key ``i`` is the k-mer at offset ``i * stride``. Sorting by ``h1`` finds
    the keys that share an ``h1`` with another key; only those are compared
    base by base, and of equal k-mers the smallest key index stays.
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
        windows = _kmer_windows(codes, k)[candidates * stride]
        kmers = np.ascontiguousarray(windows).view(f"V{k}").ravel()
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
    is its offset divided by the stride. The build has three steps:

    1. Exact duplicates are dropped up front: each k-mer keeps its first
       (smallest) offset. Distinct k-mers with equal hashes all stay.
    2. Round-based insertion places the remaining keys together, for at most
       EVICTION_LIMIT rounds. In a round every pending key claims one of its
       two slots; the lowest key index claiming a slot wins it and displaces
       the key held there. Losers and displaced keys claim their other slot
       in the next round.
    3. The keys still pending after the rounds (the residue) go through the
       scalar cuckoo loop one at a time, in key order. A key whose eviction
       chain there exceeds EVICTION_LIMIT displacements is skipped and
       counted; the table is restored to its prior state, so a skip never
       loses an already-placed key.

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

    codes = reference.codes()
    offsets = np.arange(0, reference.length - k + 1, stride, dtype=np.int64)
    h1s, h2s, low4s = window_probe_tables(codes, k, offsets, seeds)
    # Each 64-bit array is freed once spent, so the build's peak memory stays
    # near the hashing step's: the rounds work on uint32 slots and keys.
    del offsets
    h2s &= mask
    slot_b = h2s.astype(np.uint32)
    del h2s
    pending = _first_occurrences(codes, k, stride, h1s)
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

    skipped = 0
    for key in np.sort(pending).tolist():
        off = key * stride
        cur = off
        cur_low4 = int(low4s[key])
        pos = int(slot_a[key])
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
            a = int(slot_a[j])
            b = int(slot_b[j])
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
