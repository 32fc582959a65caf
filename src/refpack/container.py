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

Both directions work in array passes, so that a container of many short
records costs little Python per record:

* ``write_container`` encodes every record's groups in one call and takes the
  chunk-index entries of all records as flat arrays (``ChunkEntries``). The
  record table and the index blob are laid out by scattering rows of bytes
  (id lengths, ids, fixed u64 fields, section heads, entries) at offsets
  summed from the records' sizes. The CRCs are the only per-record calls.
* ``read_container`` walks the record table reading only each row's id
  length and id, and the index blob reading only each section's entry count
  and checking its CRC. One gather then reads all fixed fields, and one more
  all entries. The record origins and the entries' order and range are
  checked with array passes, which raise the same first fault, with the same
  message, that a reader checking field by field in file order would. A
  count read from the file sizes no array until the walk has checked it
  against the file's size. The checked entries of all records stay as three
  flat lists on the ``Container``; each record keeps the range of its own,
  which ``extract_range`` bisects.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .compress import (
    GROUP_SLOTS,
    WORD_BYTES,
    CompressParams,
    CompressResult,
    TokenKind,
    encode_records,
    group_count,
    record_sums,
)
from .decompress import decode_packed, decode_records
from .errors import ChecksumMismatch, CorruptContainer, CorruptStream
from .sequence import PackedSequence, packed_slice, ragged_arange, read_bytes, sequence_checksum
from .sequence import write_bytes

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


class ChunkEntries(NamedTuple):
    """The chunk-index entries of records, record after record, as flat arrays."""

    counts: np.ndarray  # entries of each record
    base_offsets: np.ndarray
    group_ordinals: np.ndarray
    byte_offsets: np.ndarray


def build_chunk_index(
    kinds: Sequence[np.ndarray], granularity: int, params: CompressParams
) -> ChunkEntries:
    """Each record's chunk-index entries: one per ``granularity`` groups of
    its token ``kinds``, at chain-free positions only.

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
    return ChunkEntries(
        np.bincount(record, minlength=sizes.size),
        _sums_before(params.kind_bases[joined], at, firsts[record]),
        groups,
        WORD_BYTES * (groups + words),
    )


def _sums_before(per_token: np.ndarray, at: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """``per_token[o:i].sum()`` for each ``i`` in ``at`` and ``o`` in ``origin``."""
    sums = np.concatenate([[0], np.cumsum(per_token)])
    return sums[at] - sums[origin]


@dataclass(slots=True)
class ContainerRecord:
    id: str
    n_bases: int
    n_groups: int
    byte_offset: int  # absolute file offset of the record's group bytes
    region_size: int  # group bytes plus trailing CRC
    granularity: int  # groups per chunk-index entry
    first_entry: int  # where the record's entries start in Container.entries
    n_entries: int


@dataclass
class Container:
    params: CompressParams
    ref_checksum: bytes
    records: list[ContainerRecord]
    data: bytes
    # The chunk-index entries of all records, record after record: base
    # offsets, group ordinals and byte offsets.
    entries: tuple[list[int], list[int], list[int]]
    # (byte offset, size) of each record region whose CRC has passed
    _verified: set[tuple[int, int]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    _view: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._view = memoryview(self.data)

    def find_record(self, record_id: str) -> ContainerRecord:
        for rec in self.records:
            if rec.id == record_id:
                return rec
        raise KeyError(f"no record named {record_id!r}")

    def group_bytes(self, record: ContainerRecord) -> memoryview:
        """A view of the record's group bytes, CRC-verified on first use: the
        check runs once per region of this container, not once per call."""
        region = (record.byte_offset, record.region_size)
        crc_at = record.byte_offset + record.region_size - _CRC.size
        body = self._view[record.byte_offset : crc_at]
        if region not in self._verified:
            if zlib.crc32(body) != _CRC.unpack_from(self.data, crc_at)[0]:
                raise CorruptContainer(f"record {record.id!r}: group data CRC mismatch")
            self._verified.add(region)
        return body


def _le_rows(values, dtype: str) -> np.ndarray:
    """The little-endian bytes of each of ``values`` (integers, or rows of
    them) as one row of a uint8 array."""
    values = np.ascontiguousarray(values, dtype=dtype)
    return (values if values.ndim == 2 else values[:, None]).view(np.uint8)


def _scatter_rows(out: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Write byte row i of ``rows`` into ``out`` at ``starts[i]``."""
    out[starts[:, None] + np.arange(rows.shape[1])] = rows


def _crc_rows(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The CRC32 of each ``data[start:end]``, as rows of 4 bytes."""
    data = memoryview(data)
    return _le_rows([zlib.crc32(data[a:b]) for a, b in zip(starts.tolist(), ends.tolist())], "<u4")


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
    n_bases = [result.n_bases for result in results]
    rids = []
    for (rec_id, _), raw, n in zip(records, record_sums(params.kind_bases, kinds).tolist(), n_bases):
        if not (0 <= raw - n < params.s and n >= 0):
            raise ValueError(
                f"record {rec_id!r}: token stream yields {raw} bases, "
                f"inconsistent with declared count {n}"
            )
        rid = rec_id.encode("utf-8")
        if len(rid) > 0xFFFF:
            raise ValueError(f"record id too long: {len(rid)} bytes")
        rids.append(rid)
    group_data, group_sizes = encode_records(results, params)
    entries = build_chunk_index(kinds, granularity, params)
    n = len(rids)

    # The record table: per record a u16 id length, the id, and u64 base
    # count, group count and absolute byte offset.
    id_lens = np.array([len(rid) for rid in rids], dtype=np.int64)
    row_ends = np.cumsum(_ID_LEN.size + id_lens + _RECORD.size)
    fixed_at = row_ends - _RECORD.size
    id_at = fixed_at - id_lens
    table = np.empty(int(row_ends[-1]) if n else 0, dtype=np.uint8)
    _scatter_rows(table, id_at - _ID_LEN.size, _le_rows(id_lens, "<u2"))
    record, i = ragged_arange(id_lens)
    table[id_at[record] + i] = np.frombuffer(b"".join(rids), dtype=np.uint8)
    region_sizes = group_sizes + _CRC.size
    byte_offsets = HEADER_LEN + table.size + np.cumsum(region_sizes) - region_sizes
    fixed = np.empty((n, 3), dtype="<u8")
    fixed[:, 0] = n_bases
    fixed[:, 1] = group_count(np.array([k.size for k in kinds], dtype=np.int64))
    fixed[:, 2] = byte_offsets
    _scatter_rows(table, fixed_at, _le_rows(fixed, "<u8"))

    # The regions: each record's group bytes followed by their CRC.
    groups = np.frombuffer(group_data, dtype=np.uint8)
    group_ends = np.cumsum(group_sizes)
    crcs = _crc_rows(groups, group_ends - group_sizes, group_ends)
    regions = np.insert(groups, np.repeat(group_ends, _CRC.size), crcs.ravel())

    # The index blob: per record a u32 granularity, a u64 entry count, the
    # entries, and the CRC of the section so far.
    crc_at = np.cumsum(_SECTION.size + _ENTRY.size * entries.counts + _CRC.size) - _CRC.size
    section_at = crc_at - _ENTRY.size * entries.counts - _SECTION.size
    blob = np.empty(int(crc_at[-1]) + _CRC.size if n else 0, dtype=np.uint8)
    head = np.concatenate(
        [_le_rows(np.full(n, granularity, dtype="<u4"), "<u4"), _le_rows(entries.counts, "<u8")],
        axis=1,
    )
    _scatter_rows(blob, section_at, head)
    record, i = ragged_arange(entries.counts)
    columns = np.transpose([entries.base_offsets, entries.group_ordinals, entries.byte_offsets])
    _scatter_rows(blob, section_at[record] + _SECTION.size + _ENTRY.size * i,
                  _le_rows(columns, "<u8"))
    _scatter_rows(blob, crc_at, _crc_rows(blob, section_at, crc_at))

    index_blob_offset = HEADER_LEN + table.size + regions.size
    header = _FIXED.pack(MAGIC, VERSION, params.k, params.s, ref_checksum, n, index_blob_offset)
    meta_crc = zlib.crc32(table, zlib.crc32(header))
    parts = (header, _CRC.pack(meta_crc), table, regions, blob)
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


def _gather(data: bytes, starts: np.ndarray, dtype: str, count: int = 1) -> np.ndarray:
    """The ``count`` consecutive ``dtype`` integers at each of ``starts`` in
    ``data``, one row each."""
    size = np.dtype(dtype).itemsize
    # Item i of this view is the integer that starts at byte i.
    at_byte = np.ndarray((len(data) - size + 1,), dtype, data, strides=(1,))
    return at_byte[starts[:, None] + size * np.arange(count)]


def read_container(src: Union[str, Path, bytes, BinaryIO]) -> Container:
    """Parse and check a container; its first fault in file order raises
    ``CorruptContainer``."""
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
    id_ends = []
    for _ in range(n_records):
        if pos + _ID_LEN.size > size:
            _need(data, pos, _ID_LEN_FIELD)
        id_end = pos + _ID_LEN.size + (data[pos] | data[pos + 1] << 8)
        if id_end + _RECORD.size > size:
            _need(data, pos + _ID_LEN.size, ((id_end - pos - 2, "record id"), *_RECORD_FIELDS))
        id_ends.append(id_end)
        pos = id_end + _RECORD.size
    table_end = pos

    view = memoryview(data)
    if zlib.crc32(view[HEADER_LEN:table_end], zlib.crc32(view[: _FIXED.size])) != meta_crc:
        raise CorruptContainer("header/record-table CRC mismatch")
    if not table_end <= blob_offset <= size:
        raise CorruptContainer(f"index blob offset {blob_offset} out of bounds")

    # Each id starts after the row before it and its own u16 length.
    fixed_at = np.array(id_ends, dtype=np.int64)
    id_starts = np.append(HEADER_LEN, fixed_at[:-1] + _RECORD.size) + _ID_LEN.size
    ids = [data[a:b].decode("utf-8", "replace") for a, b in zip(id_starts.tolist(), id_ends)]
    n_bases, n_groups, byte_offsets = _gather(data, fixed_at, "<u8", 3).T
    if ids and byte_offsets[0] != table_end:
        raise CorruptContainer(
            f"record {ids[0]!r}: group data at {byte_offsets[0]}, expected {table_end}"
        )
    # Each record's region runs to the next one's, the last one's to the blob.
    # In u64 arithmetic a region that ends before it starts wraps, so it is
    # tested for apart.
    region_ends = np.append(byte_offsets[1:], np.uint64(blob_offset))
    small = np.flatnonzero((region_ends < byte_offsets) | (region_ends - byte_offsets < 4))
    if small.size:
        raise CorruptContainer(f"record {ids[small[0]]!r}: region too small")
    region_sizes = region_ends - byte_offsets

    granularities, entries, blob_end, walk_fault = _read_sections(data, blob_offset, ids)
    fault = _entry_fault(ids, granularities, entries, n_groups, region_sizes) or walk_fault
    if fault is not None:
        raise fault
    if blob_end != size:
        raise CorruptContainer(f"{size - blob_end} trailing bytes after index blob")

    counts = entries.counts
    records = list(map(
        ContainerRecord,
        ids,
        n_bases.tolist(),
        n_groups.tolist(),
        byte_offsets.tolist(),
        region_sizes.tolist(),
        granularities.tolist(),
        (np.cumsum(counts) - counts).tolist(),
        counts.tolist(),
    ))
    return Container(
        params=CompressParams(k=k, s=s),
        ref_checksum=checksum,
        records=records,
        data=data,
        entries=(
            entries.base_offsets.tolist(),
            entries.group_ordinals.tolist(),
            entries.byte_offsets.tolist(),
        ),
    )


def _read_sections(
    data: bytes, pos: int, ids: list[str]
) -> tuple[np.ndarray, ChunkEntries, int, CorruptContainer | None]:
    """Read the index blob from ``pos``, one section a record, up to its
    first fault of size or CRC.

    The walk reads each section's entry count, to find the next section, and
    checks the section's size and CRC. Returns the granularities and entries
    of the sections before the fault, the position after them, and the
    fault, if there is one.
    """
    size = len(data)
    view = memoryview(data)
    starts: list[int] = []
    counts: list[int] = []
    fault = None
    try:
        for rid in ids:
            if pos + _SECTION.size > size:
                _need(data, pos, _SECTION_FIELDS)
            _, n_entries = _SECTION.unpack_from(data, pos)
            first_entry = pos + _SECTION.size
            crc_at = first_entry + n_entries * _ENTRY.size
            if crc_at + _CRC.size > size:
                if n_entries > (size - first_entry) // _ENTRY.size + 1:
                    raise CorruptContainer("chunk index entry count exceeds file size")
                _need(data, first_entry, (*_ENTRY_FIELDS * n_entries, (4, "chunk index CRC")))
            if zlib.crc32(view[pos:crc_at]) != _CRC.unpack_from(data, crc_at)[0]:
                raise CorruptContainer(f"record {rid!r}: chunk index CRC mismatch")
            starts.append(pos)
            counts.append(n_entries)
            pos = crc_at + _CRC.size
    except CorruptContainer as err:
        fault = err

    starts, counts = np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64)
    record, i = ragged_arange(counts)
    columns = _gather(data, (starts + _SECTION.size)[record] + _ENTRY.size * i, "<u8", 3).T
    return _gather(data, starts, "<u4")[:, 0], ChunkEntries(counts, *columns), pos, fault


def _entry_fault(
    ids: list[str],
    granularities: np.ndarray,
    entries: ChunkEntries,
    n_groups: np.ndarray,
    region_sizes: np.ndarray,
) -> CorruptContainer | None:
    """The first fault in the contents of the sections, or None.

    Sections are checked in file order. Within one, a zero granularity comes
    first, then an origin other than (0, 0, 0), then the entries after the
    origin one by one, each for keys in order before its range. A byte
    offset off a word boundary is out of range: decoding cannot start there.
    """
    counts = entries.counts
    record, i = ragged_arange(counts)
    firsts = np.flatnonzero(i == 0)
    off_origin = np.ones(counts.size, dtype=bool)
    off_origin[record[firsts]] = (
        entries.base_offsets[firsts] | entries.group_ordinals[firsts] | entries.byte_offsets[firsts]
    ) != 0
    zero = granularities < 1
    later = np.flatnonzero(i > 0)
    of = record[later]
    unordered = np.zeros(record.size, dtype=bool)
    unordered[later] = entries.base_offsets[later] <= entries.base_offsets[later - 1]
    bad = unordered.copy()
    bad[later] |= (
        (entries.group_ordinals[later] >= n_groups[of])
        | (entries.byte_offsets[later] >= region_sizes[of] - _CRC.size)
        | (entries.byte_offsets[later] % WORD_BYTES != 0)
    )
    bad_entry = np.flatnonzero(bad)[:1]
    candidates = [*np.flatnonzero(zero | off_origin)[:1].tolist(), *record[bad_entry].tolist()]
    if not candidates:
        return None
    r = min(candidates)
    if zero[r]:
        what = "zero chunk index granularity"
    elif off_origin[r]:
        what = "chunk index must start at origin"
    elif unordered[bad_entry[0]]:
        what = "chunk index keys not strictly increasing"
    else:
        what = "chunk index entry out of range"
    return CorruptContainer(f"record {ids[r]!r}: {what}")


def decompress_records(
    container: Container, records: Iterable[ContainerRecord], reference: PackedSequence
) -> list[PackedSequence]:
    """Decode the given records in one decoder call.

    Every record's CRC is checked before the reference checksum, so a corrupt
    record reads as a corrupt container even against the wrong reference.
    Each record's bytes are copied out of their view: a view is an object the
    garbage collector tracks, and a batch of many would trigger collections.
    """
    triples = [(bytes(container.group_bytes(rec)), rec.n_groups, rec.n_bases) for rec in records]
    return decode_records(triples, reference, container.params, container.ref_checksum)


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
    record's last chunk-index entry at or before ``base_offset``; the frame
    walk passes over the groups that end by ``base_offset`` by header alone
    and stops once the range is covered, so fewer than (length + two groups)
    bases are ever decoded. Passed-over groups raise framing faults and
    orphan continuations as a full decode does, but not an out-of-range
    reference offset, since none of their bases are output. A stream that
    ends short of the range raises ``CorruptStream``.

    Token expansion and gather have two forms (``decode_packed``): under
    ``_FEW_GROUPS`` decoded groups, they are walked slot by slot and only the
    tokens that overlap the range are gathered, on one Python int; at or over
    it, numpy expands and gathers every decoded token into packed bytes, read
    as one. Either way the range is cut out of the int with a shift and a mask.
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

    # The reader checked that each record's entries start at its origin, so
    # one of them is at or before any offset.
    bases, ordinals, byte_offsets = container.entries
    first = record.first_entry
    i = bisect_right(bases, base_offset, first, first + record.n_entries) - 1
    entry_base, entry_group, entry_byte = bases[i], ordinals[i], byte_offsets[i]
    skip = base_offset - entry_base
    entry = container.group_bytes(record)[entry_byte:]
    (value, first, end), groups, (skipped_groups, skipped_bases) = decode_packed(
        (entry, record.n_groups - entry_group, entry_group),
        reference,
        container.params,
        needed=skip + length,
        start=skip,
    )
    short = skip + length - (skipped_bases + end)
    if short > 0:
        raise CorruptStream(
            f"record {record.id!r}: stream ended {short} bases short of extract range"
        )
    if _stats is not None:
        _stats["decoded_bases"] = end - first
        _stats["groups_decoded"] = groups
        _stats["groups_skipped"] = skipped_groups
    return packed_slice(value, skip - skipped_bases - first, length)
