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
from typing import BinaryIO, Iterable, Sequence, Union

import numpy as np

from .compress import (
    GROUP_SLOTS,
    WORD_BYTES,
    CompressParams,
    CompressResult,
    TokenKind,
    encode_records,
    group_count,
    ragged_arange,
    record_sums,
)
from .decompress import decode_group, decode_records
from .errors import ChecksumMismatch, CorruptContainer, CorruptStream
from .sequence import PackedSequence, read_bytes, sequence_checksum, write_bytes

MAGIC = b"BNCC"
VERSION = 1
HEADER_LEN = 58
DEFAULT_GRANULARITY = 16

_FIXED = struct.Struct("<4sHHH32sIQ")  # through the index blob offset (54 bytes)
_CRC = struct.Struct("<I")
_ID_LEN = struct.Struct("<H")
_RECORD = struct.Struct("<QQQ")  # base count, group count, byte offset
_SECTION = struct.Struct("<IQ")  # granularity, entry count
_ENTRY = struct.Struct("<QQQ")  # base offset, group ordinal, byte offset


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
    kinds: Sequence[np.ndarray], granularity: int, params: CompressParams
) -> list[ChunkIndex]:
    """Each record's chunk index: one entry per ``granularity`` groups of its
    token ``kinds``, at chain-free positions only.

    A boundary is an entry point when decoding from it with fresh state never
    hits a continuation before the first full match token, which is exactly
    what the compressor's break mode guarantees. All records are indexed
    from one cumulative sum over their joined kinds.
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    step = GROUP_SLOTS * granularity
    sizes = np.array([k.size for k in kinds], dtype=np.int64)
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    joined = np.concatenate([np.zeros(0, np.uint8), *kinds])
    # Each record's boundaries, at least its origin (that of an empty record
    # included), as record-local and joined token positions.
    record, boundary = ragged_arange(np.maximum(1, (sizes + step - 1) // step))
    local = boundary * step
    at = firsts[record] + local
    # A boundary is chain-free when the first non-verbatim token at or after
    # it in its record is a match, or when there is none.
    non_verbatim = np.flatnonzero(joined != TokenKind.VERBATIM.value)
    after = np.searchsorted(non_verbatim, at)
    free = np.append(joined[non_verbatim] != TokenKind.CONTINUATION.value, True)[after]
    free |= np.append(non_verbatim, joined.size)[after] >= ends[record]
    record, local, at = record[free], local[free], at[free]
    groups = local // GROUP_SLOTS
    words = _sums_before(params.kind_words[joined], at, firsts[record])
    bases, groups, byte_offsets = (
        tuple(column.tolist())
        for column in (
            _sums_before(params.kind_bases[joined], at, firsts[record]),
            groups,
            WORD_BYTES * (groups + words),
        )
    )
    cuts = np.cumsum(np.bincount(record, minlength=sizes.size)).tolist()
    return [
        ChunkIndex(granularity, bases[a:b], groups[a:b], byte_offsets[a:b])
        for a, b in zip([0, *cuts], cuts)
    ]


def _sums_before(per_token: np.ndarray, at: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """``per_token[o:i].sum()`` for each ``i`` in ``at`` and ``o`` in ``origin``."""
    sums = np.concatenate([[0], np.cumsum(per_token)])
    return sums[at] - sums[origin]


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

    records = list(records)
    results = [result for _, result in records]
    kinds = [result.kinds for result in results]
    rids = []
    for (rec_id, result), raw in zip(records, record_sums(params.kind_bases, kinds).tolist()):
        n_bases = result.n_bases
        if not (0 <= raw - n_bases < params.s) and not (raw == 0 and n_bases == 0):
            raise ValueError(
                f"record {rec_id!r}: token stream yields {raw} bases, "
                f"inconsistent with declared count {n_bases}"
            )
        rid = rec_id.encode("utf-8")
        if len(rid) > 0xFFFF:
            raise ValueError(f"record id too long: {len(rid)} bytes")
        rids.append(rid)
    encoded = encode_records(results, params)
    cindexes = build_chunk_index(kinds, granularity, params)

    table = bytearray()
    regions = bytearray()
    blob = bytearray()
    # Record table sized first so absolute offsets are known.
    table_len = sum(2 + len(rid) + 24 for rid in rids)
    cursor = HEADER_LEN + table_len
    for rid, result, group_bytes, cindex in zip(rids, results, encoded, cindexes):
        table += _ID_LEN.pack(len(rid)) + rid
        table += _RECORD.pack(result.n_bases, group_count(result.kinds.size), cursor)
        regions += group_bytes
        regions += _CRC.pack(zlib.crc32(group_bytes))
        cursor += len(group_bytes) + 4
        section = _SECTION.pack(cindex.granularity, len(cindex.base_offsets))
        for b, g, y in zip(
            cindex.base_offsets, cindex.group_ordinals, cindex.byte_offsets
        ):
            section += _ENTRY.pack(b, g, y)
        blob += section
        blob += _CRC.pack(zlib.crc32(section))

    index_blob_offset = HEADER_LEN + table_len + len(regions)
    fixed = _FIXED.pack(
        MAGIC, VERSION, params.k, params.s, ref_checksum, len(rids), index_blob_offset
    )
    meta_crc = zlib.crc32(fixed + table)
    parts = (fixed, _CRC.pack(meta_crc), table, regions, blob)
    write_bytes(dest, *parts)
    return sum(map(len, parts))


def _need(data: bytes, pos: int, fields: tuple[tuple[int, str], ...]) -> None:
    """Raise for the first of the consecutive (size, name) fields at ``pos``
    that runs past the end of ``data``."""
    for size, what in fields:
        pos += size
        if pos > len(data):
            raise CorruptContainer(f"truncated container while reading {what}")


_ID_LEN_FIELD = ((_ID_LEN.size, "record id length"),)
_RECORD_FIELDS = (
    (8, "record base count"), (8, "record group count"), (8, "record byte offset"),
)
_SECTION_FIELDS = ((4, "chunk index granularity"), (8, "chunk index entry count"))
_ENTRY_FIELDS = (
    (8, "chunk index base offset"),
    (8, "chunk index group ordinal"),
    (8, "chunk index byte offset"),
)


def read_container(src: Union[str, Path, bytes, BinaryIO]) -> Container:
    data = read_bytes(src)
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

    size = len(data)
    pos = HEADER_LEN
    raw_records = []
    for _ in range(n_records):
        if pos + _ID_LEN.size > size:
            _need(data, pos, _ID_LEN_FIELD)
        (id_len,) = _ID_LEN.unpack_from(data, pos)
        pos += _ID_LEN.size
        if pos + id_len + _RECORD.size > size:
            _need(data, pos, ((id_len, "record id"), *_RECORD_FIELDS))
        rid = data[pos : pos + id_len].decode("utf-8", errors="replace")
        pos += id_len
        raw_records.append((rid, *_RECORD.unpack_from(data, pos)))
        pos += _RECORD.size
    table_end = pos

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

    pos = blob_offset
    for rec in records:
        section_start = pos
        if pos + _SECTION.size > size:
            _need(data, pos, _SECTION_FIELDS)
        granularity, n_entries = _SECTION.unpack_from(data, pos)
        pos += _SECTION.size
        if n_entries > (size - pos) // _ENTRY.size + 1:
            raise CorruptContainer("chunk index entry count exceeds file size")
        entries_end = pos + n_entries * _ENTRY.size
        if entries_end + _CRC.size > size:
            _need(data, pos, _ENTRY_FIELDS * n_entries + ((_CRC.size, "chunk index CRC"),))
        entries = list(_ENTRY.iter_unpack(data[pos:entries_end]))
        (crc,) = _CRC.unpack_from(data, entries_end)
        pos = entries_end + _CRC.size
        if zlib.crc32(data[section_start:entries_end]) != crc:
            raise CorruptContainer(f"record {rec.id!r}: chunk index CRC mismatch")
        if granularity < 1:
            raise CorruptContainer(f"record {rec.id!r}: zero chunk index granularity")
        if not entries or entries[0] != (0, 0, 0):
            raise CorruptContainer(f"record {rec.id!r}: chunk index must start at origin")
        for (prev_base, _, _), (base, group, byte) in zip(entries, entries[1:]):
            if base <= prev_base:
                raise CorruptContainer(
                    f"record {rec.id!r}: chunk index keys not strictly increasing"
                )
            if group >= rec.n_groups or byte >= rec.region_size - 4:
                raise CorruptContainer(
                    f"record {rec.id!r}: chunk index entry out of range"
                )
        bases, groups, bytes_ = zip(*entries)
        rec.chunk_index = ChunkIndex(granularity, bases, groups, bytes_)
    if pos != size:
        raise CorruptContainer(f"{size - pos} trailing bytes after index blob")

    return Container(
        params=CompressParams(k=k, s=s),
        ref_checksum=checksum,
        records=records,
        data=data,
    )


def decompress_records(
    container: Container, records: Iterable[ContainerRecord], reference: PackedSequence
) -> list[PackedSequence]:
    """Decode the given records in one decoder call.

    Every record's CRC is checked before the reference checksum, so a corrupt
    record reads as a corrupt container even against the wrong reference.
    """
    triples = [(container.group_bytes(rec), rec.n_groups, rec.n_bases) for rec in records]
    return decode_records(triples, reference, container.params, container.ref_checksum)


def decompress_record(
    container: Container, record: ContainerRecord, reference: PackedSequence
) -> PackedSequence:
    return decompress_records(container, [record], reference)[0]


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
    entry = memoryview(container.group_bytes(record))[entry_byte:]
    (codes,), (groups,) = decode_group(
        [(entry, record.n_groups - entry_group, entry_group)],
        reference,
        container.params,
        needed=needed,
    )
    if codes.size < needed:
        raise CorruptStream(
            f"record {record.id!r}: stream ended {needed - codes.size} bases short of "
            f"extract range"
        )
    if _stats is not None:
        _stats["decoded_bases"] = codes.size
        _stats["groups_decoded"] = groups
    skip = base_offset - entry_base
    return PackedSequence.from_codes(codes[skip : skip + length])
