""".bnc container: framed records of grouped tokens plus a random-access index.

File layout, all integers little-endian:

    offset  size  field
    0       4     magic "BNCC"
    4       2     version (=1; version 1 requires s == 16)
    6       2     k
    8       2     s
    10      32    reference checksum
    42      4     record count
    46      8     index blob offset
    54      4     meta CRC32 over bytes [0,54) plus the record table
    58      ...   record table: {u16 id length, id bytes, u64 base count,
                               u64 group count, u64 byte offset}
    ...     ...   per record: group bytes followed by CRC32(group bytes)
    ...     ...   index blob, per record: {u32 granularity, u64 entry count,
                               entries (u64 base offset, u64 group ordinal,
                               u64 byte offset), u32 section CRC32}

Each record is written from one ``CompressResult``: its ``kinds`` give the
headers, the base count check and the chunk index, and its ``words`` are the
payload. Record byte offsets are absolute; chunk-index byte offsets are
relative to the record's group bytes. An empty container is exactly the
58-byte header. Every byte of the file is covered by one of the three CRCs,
so any single-byte corruption surfaces as a structured error instead of
silently wrong output.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Union

import numpy as np

from .compress import (
    GROUP_SLOTS,
    WORD_BYTES,
    CompressParams,
    CompressResult,
    CompressedStream,
    TokenKind,
    encode_groups,
    group_count,
)
from .decompress import decode_groups
from .errors import ChecksumMismatch, CorruptContainer, CorruptStream
from .sequence import PackedSequence, sequence_checksum

MAGIC = b"BNCC"
VERSION = 1
HEADER_LEN = 58
DEFAULT_GRANULARITY = 16

_FIXED = struct.Struct("<4sHHH32sIQ")  # through the index blob offset (54 bytes)
_CRC = struct.Struct("<I")


@dataclass
class ChunkIndex:
    """Sorted entry points: decompressed base offset -> (group, byte) position."""

    granularity: int
    base_offsets: tuple[int, ...]
    group_ordinals: tuple[int, ...]
    byte_offsets: tuple[int, ...]

    def __post_init__(self):
        if self.granularity < 1:
            raise ValueError("granularity must be positive")

    @property
    def entries(self) -> list[tuple[int, int, int]]:
        return list(zip(self.base_offsets, self.group_ordinals, self.byte_offsets))

    def predecessor(self, base_offset: int) -> tuple[int, int, int]:
        """The last entry at or before ``base_offset``."""
        if not self.base_offsets:
            raise ValueError("chunk index has no entries")
        i = bisect_right(self.base_offsets, base_offset) - 1
        if i < 0:
            raise ValueError(f"no entry at or before base offset {base_offset}")
        return (self.base_offsets[i], self.group_ordinals[i], self.byte_offsets[i])


def build_chunk_index(
    kinds: np.ndarray, granularity: int, params: CompressParams
) -> ChunkIndex:
    """One entry per ``granularity`` groups, at chain-free positions only.

    A boundary is an entry point when decoding from it with fresh state never
    hits a continuation before the first full match token, which is exactly
    what the compressor's break mode guarantees.
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    step = GROUP_SLOTS * granularity
    # A boundary is chain-free when the first non-verbatim token at or after
    # it is a match, or when there is none.
    if kinds.size <= step:
        # Token 0 is the only candidate, and it sits at the origin.
        first = kinds[kinds != TokenKind.VERBATIM.value][:1]
        origin = () if (first == TokenKind.CONTINUATION.value).any() else (0,)
        return ChunkIndex(granularity, origin, origin, origin)
    starts = np.arange(0, kinds.size, step)
    non_verbatim = np.flatnonzero(kinds != TokenKind.VERBATIM.value)
    free = np.append(kinds[non_verbatim] != TokenKind.CONTINUATION.value, True)
    at = starts[free[np.searchsorted(non_verbatim, starts)]]
    groups = at // GROUP_SLOTS
    words = _sums_before(params.kind_words[kinds], at)
    return ChunkIndex(
        granularity,
        tuple(_sums_before(params.kind_bases[kinds], at).tolist()),
        tuple(groups.tolist()),
        tuple((WORD_BYTES * (groups + words)).tolist()),
    )


def _sums_before(per_token: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``per_token[:i].sum()`` for each ``i`` in ``at``."""
    return np.concatenate([[0], np.cumsum(per_token)])[at]


@dataclass
class ContainerRecord:
    id: str
    n_bases: int
    n_groups: int
    byte_offset: int  # absolute file offset of the record's group bytes
    region_size: int  # group bytes plus trailing CRC
    chunk_index: ChunkIndex | None = None


@dataclass
class Container:
    params: CompressParams
    ref_checksum: bytes
    records: list[ContainerRecord]
    data: bytes

    def find_record(self, record_id: str) -> ContainerRecord:
        for rec in self.records:
            if rec.id == record_id:
                return rec
        raise KeyError(f"no record named {record_id!r}")

    def group_bytes(self, record: ContainerRecord) -> bytes:
        """The record's group bytes, CRC-verified."""
        start = record.byte_offset
        end = start + record.region_size
        region = self.data[start:end]
        body, crc = region[:-4], _CRC.unpack(region[-4:])[0]
        if zlib.crc32(body) != crc:
            raise CorruptContainer(f"record {record.id!r}: group data CRC mismatch")
        return body


def write_container(
    records: Iterable[tuple[str, CompressResult]],
    params: CompressParams,
    ref_checksum: bytes,
    dest: Union[str, Path, BinaryIO],
    *,
    granularity: int = DEFAULT_GRANULARITY,
) -> int:
    """Assemble and write a container; returns the byte size written.

    ``records`` yields (id, compress result) pairs. All validation happens
    before any byte reaches ``dest``.
    """
    if not params.container_compatible:
        raise ValueError(f"container version {VERSION} requires s=16, got s={params.s}")
    if len(ref_checksum) != 32:
        raise ValueError("ref_checksum must be 32 bytes")

    specs = []
    for rec_id, result in records:
        kinds, n_bases = result.kinds, result.n_bases
        raw = int(params.kind_bases[kinds].sum())
        if not (0 <= raw - n_bases < params.s) and not (raw == 0 and n_bases == 0):
            raise ValueError(
                f"record {rec_id!r}: token stream yields {raw} bases, "
                f"inconsistent with declared count {n_bases}"
            )
        rid = rec_id.encode("utf-8")
        if len(rid) > 0xFFFF:
            raise ValueError(f"record id too long: {len(rid)} bytes")
        group_bytes = encode_groups(kinds, result.words, params)
        cindex = build_chunk_index(kinds, granularity, params)
        specs.append((rid, n_bases, group_count(kinds.size), group_bytes, cindex))

    table = bytearray()
    regions = bytearray()
    blob = bytearray()
    # Record table sized first so absolute offsets are known.
    table_len = sum(2 + len(rid) + 24 for rid, *_ in specs)
    cursor = HEADER_LEN + table_len
    for rid, n_bases, n_groups, group_bytes, cindex in specs:
        table += struct.pack("<H", len(rid)) + rid
        table += struct.pack("<QQQ", n_bases, n_groups, cursor)
        regions += group_bytes
        regions += _CRC.pack(zlib.crc32(group_bytes))
        cursor += len(group_bytes) + 4
        section = struct.pack("<IQ", cindex.granularity, len(cindex.base_offsets))
        for b, g, y in zip(
            cindex.base_offsets, cindex.group_ordinals, cindex.byte_offsets
        ):
            section += struct.pack("<QQQ", b, g, y)
        blob += section
        blob += _CRC.pack(zlib.crc32(section))

    index_blob_offset = HEADER_LEN + table_len + len(regions)
    fixed = _FIXED.pack(
        MAGIC, VERSION, params.k, params.s, ref_checksum, len(specs), index_blob_offset
    )
    meta_crc = zlib.crc32(fixed + bytes(table))
    payload = fixed + _CRC.pack(meta_crc) + bytes(table) + bytes(regions) + bytes(blob)

    if isinstance(dest, (str, Path)):
        Path(dest).write_bytes(payload)
    else:
        dest.write(payload)
    return len(payload)


class _Cursor:
    """Bounds-checked reader; any overrun is a structured corruption error."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise CorruptContainer(f"truncated container while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "little")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u64(self, what: str) -> int:
        return int.from_bytes(self.take(8, what), "little")


def read_container(src: Union[str, Path, bytes, BinaryIO]) -> Container:
    if isinstance(src, (str, Path)):
        data = Path(src).read_bytes()
    elif isinstance(src, bytes):
        data = src
    else:
        data = src.read()

    if len(data) < HEADER_LEN:
        raise CorruptContainer(f"file too short for header: {len(data)} bytes")
    magic, version, k, s, checksum, n_records, blob_offset = _FIXED.unpack_from(data)
    (meta_crc,) = _CRC.unpack_from(data, _FIXED.size)
    if magic != MAGIC:
        raise CorruptContainer("bad magic")
    if version != VERSION:
        raise CorruptContainer(f"unsupported container version {version}")
    if s != 16:
        raise CorruptContainer(f"container version {VERSION} requires s=16, found s={s}")
    if k < s or k % s:
        raise CorruptContainer(f"invalid k={k} for s={s}")

    cur = _Cursor(data, HEADER_LEN)
    raw_records = []
    for _ in range(n_records):
        id_len = cur.u16("record id length")
        rid = cur.take(id_len, "record id").decode("utf-8", errors="replace")
        n_bases = cur.u64("record base count")
        n_groups = cur.u64("record group count")
        byte_offset = cur.u64("record byte offset")
        raw_records.append((rid, n_bases, n_groups, byte_offset))
    table_end = cur.pos

    if zlib.crc32(data[: _FIXED.size] + data[HEADER_LEN:table_end]) != meta_crc:
        raise CorruptContainer("header/record-table CRC mismatch")
    if not table_end <= blob_offset <= len(data):
        raise CorruptContainer(f"index blob offset {blob_offset} out of bounds")

    records: list[ContainerRecord] = []
    prev_end = table_end
    for i, (rid, n_bases, n_groups, byte_offset) in enumerate(raw_records):
        if byte_offset != prev_end:
            raise CorruptContainer(
                f"record {rid!r}: group data at {byte_offset}, expected {prev_end}"
            )
        next_start = (
            raw_records[i + 1][3] if i + 1 < len(raw_records) else blob_offset
        )
        region_size = next_start - byte_offset
        if region_size < 4:
            raise CorruptContainer(f"record {rid!r}: region too small")
        records.append(
            ContainerRecord(rid, n_bases, n_groups, byte_offset, region_size, None)
        )
        prev_end = next_start

    bcur = _Cursor(data, blob_offset)
    for rec in records:
        section_start = bcur.pos
        granularity = bcur.u32("chunk index granularity")
        n_entries = bcur.u64("chunk index entry count")
        if n_entries > (len(data) - bcur.pos) // 24 + 1:
            raise CorruptContainer("chunk index entry count exceeds file size")
        bases, groups, bytes_ = [], [], []
        for _ in range(n_entries):
            bases.append(bcur.u64("chunk index base offset"))
            groups.append(bcur.u64("chunk index group ordinal"))
            bytes_.append(bcur.u64("chunk index byte offset"))
        section = data[section_start : bcur.pos]
        crc = bcur.u32("chunk index CRC")
        if zlib.crc32(section) != crc:
            raise CorruptContainer(f"record {rec.id!r}: chunk index CRC mismatch")
        if granularity < 1:
            raise CorruptContainer(f"record {rec.id!r}: zero chunk index granularity")
        if not bases or (bases[0], groups[0], bytes_[0]) != (0, 0, 0):
            raise CorruptContainer(f"record {rec.id!r}: chunk index must start at origin")
        for j in range(1, n_entries):
            if bases[j] <= bases[j - 1]:
                raise CorruptContainer(
                    f"record {rec.id!r}: chunk index keys not strictly increasing"
                )
            if groups[j] >= rec.n_groups or bytes_[j] >= rec.region_size - 4:
                raise CorruptContainer(
                    f"record {rec.id!r}: chunk index entry out of range"
                )
        rec.chunk_index = ChunkIndex(granularity, tuple(bases), tuple(groups), tuple(bytes_))
    if bcur.pos != len(data):
        raise CorruptContainer(f"{len(data) - bcur.pos} trailing bytes after index blob")

    return Container(
        params=CompressParams(k=k, s=s),
        ref_checksum=checksum,
        records=records,
        data=data,
    )


def record_stream(container: Container, record: ContainerRecord) -> CompressedStream:
    return CompressedStream(
        data=container.group_bytes(record),
        n_groups=record.n_groups,
        n_bases=record.n_bases,
        k=container.params.k,
        s=container.params.s,
        ref_checksum=container.ref_checksum,
    )


def decompress_record(
    container: Container, record: ContainerRecord, reference: PackedSequence
) -> PackedSequence:
    from .decompress import decompress

    return decompress(record_stream(container, record), reference)


def extract_range(
    container: Container,
    record: ContainerRecord,
    reference: PackedSequence,
    base_offset: int,
    length: int,
    *,
    _stats: dict | None = None,
) -> PackedSequence:
    """Decode ``length`` bases starting at ``base_offset`` without a full decode.

    The record's group bytes are CRC-checked first. Decoding begins at the
    chunk-index predecessor entry and stops as soon as the requested window is
    covered, so at most (gap to the entry + length + one group) bases are ever
    decoded.
    """
    if base_offset < 0 or length < 0 or base_offset + length > record.n_bases:
        raise ValueError(
            f"extract range [{base_offset}, {base_offset + length}) outside "
            f"record of {record.n_bases} bases"
        )
    if sequence_checksum(reference) != container.ref_checksum:
        raise ChecksumMismatch("container references a different sequence")
    if length == 0:
        return PackedSequence(b"", 0)

    entry_base, entry_group, entry_byte = record.chunk_index.predecessor(base_offset)
    needed = (base_offset - entry_base) + length
    parts: list[np.ndarray] = []
    got = 0
    for codes in decode_groups(
        container.group_bytes(record)[entry_byte:],
        record.n_groups - entry_group,
        entry_group,
        reference,
        container.params,
    ):
        parts.append(codes)
        got += codes.size
        if got >= needed:
            break
    if got < needed:
        raise CorruptStream(
            f"record {record.id!r}: stream ended {needed - got} bases short of "
            f"extract range"
        )
    if _stats is not None:
        _stats["decoded_bases"] = got
        _stats["groups_decoded"] = len(parts)
    skip = base_offset - entry_base
    codes = np.concatenate(parts)[skip : skip + length]
    return PackedSequence.from_codes(codes)
