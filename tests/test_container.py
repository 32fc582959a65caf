import gc
import importlib
import io
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refpack import (
    CompressParams,
    CompressResult,
    MutationProfile,
    TokenKind,
    build_index,
    compress,
    mutate,
    pack_bases,
    random_reads,
    random_sequence,
    read_container,
    write_container,
)
import refpack.container as container_mod
from refpack.compress import GROUP_SLOTS, encode_groups, group_count
from refpack.container import (
    _CRC,
    _FIXED,
    DEFAULT_GRANULARITY,
    HEADER_LEN,
    MAGIC,
    VERSION,
    Container,
    ContainerRecord,
    build_chunk_index,
    decompress_records,
    extract_range,
)
from refpack.errors import ChecksumMismatch, CorruptContainer, CorruptStream, RefpackError
from refpack.index import ReferenceIndex
from refpack.sequence import PackedSequence, read_2bit_raw, sequence_checksum, write_2bit_raw

decompress_mod = importlib.import_module("refpack.decompress")

V = TokenKind.VERBATIM
FM = TokenKind.FORWARD_MATCH
C = TokenKind.CONTINUATION


def kinds_of(*kinds):
    return np.array(kinds, dtype=np.uint8)


def result_of(kinds, words, n_bases):
    return CompressResult(kinds_of(*kinds), np.array(words, dtype="<u4"), n_bases)


def built_entries(kinds, granularity, params):
    """Each record's chunk-index entries from ``build_chunk_index``, as
    (base offset, group ordinal, byte offset) tuples."""
    entries = build_chunk_index(kinds, granularity, params)
    rows = list(zip(*(column.tolist() for column in entries[1:])))
    ends = np.cumsum(entries.counts).tolist()
    return [rows[a:b] for a, b in zip([0, *ends], ends)]


def read_entries(box, rec):
    """A read record's chunk-index entries, sliced out of ``box.entries``, as
    (base offset, group ordinal, byte offset) tuples."""
    first, end = rec.first_entry, rec.first_entry + rec.n_entries
    return list(zip(*(column[first:end] for column in box.entries)))


def checksum_of(reference):
    return sequence_checksum(reference)


def container_bytes(records, params, reference, **kw):
    buf = io.BytesIO()
    write_container(records, params, checksum_of(reference), buf, **kw)
    return buf.getvalue()


@pytest.fixture(scope="module")
def packed(reference, index64):
    """A two-record container over the session reference, plus the raw inputs."""
    rng = np.random.default_rng(0x5EA)
    params = CompressParams(k=64, s=16)
    profile = MutationProfile(snp=0.01, insertion=0.001, deletion=0.001)
    targets = {
        "whole": mutate(reference, profile, rng),
        "slice": PackedSequence.from_codes(reference.codes()[5_000:17_311]),
    }
    records = []
    for rec_id, target in targets.items():
        result = compress(target, index64, reference, params, break_every_groups=2)
        records.append((rec_id, result))
    data = container_bytes(records, params, reference, granularity=2)
    return data, targets, params


def test_empty_container_is_bare_header(reference):
    data = container_bytes([], CompressParams(k=64, s=16), reference)
    assert len(data) == HEADER_LEN == 58
    box = read_container(data)
    assert box.records == []
    assert box.params == CompressParams(k=64, s=16)
    assert box.ref_checksum == checksum_of(reference)


def test_single_record_frozen_size(reference):
    # 58 header + (2 + 1 + 24) table + (8 group bytes + 4 crc) region
    # + (4 + 8 + 24 + 4) one-entry index section.
    record = result_of([FM] + [C] * 15, [0], 1024)
    data = container_bytes([("r", record)], CompressParams(k=64, s=16), reference)
    assert len(data) == 137
    box = read_container(data)
    (rec,) = box.records
    assert rec.id == "r"
    assert (rec.n_bases, rec.n_groups) == (1024, 1)
    assert rec.byte_offset == 58 + 27
    assert rec.region_size == 12
    assert read_entries(box, rec) == [(0, 0, 0)]


def test_round_trip_all_records(packed, reference):
    data, targets, _ = packed
    box = read_container(data)
    assert [r.id for r in box.records] == list(targets)
    for rec in box.records:
        assert decompress_records(box, [rec], reference)[0] == targets[rec.id]


def test_read_sources_agree(packed, tmp_path):
    data, _, _ = packed
    path = tmp_path / "a.bnc"
    path.write_bytes(data)
    for src in (data, str(path), path, io.BytesIO(data)):
        box = read_container(src)
        assert box.data == data


def test_path_and_stream_writes_identical(reference, tmp_path):
    params = CompressParams(k=64, s=16)
    records = [("x", result_of([V] * 3, [0xE4] * 3, 48))]
    path = tmp_path / "b.bnc"
    n = write_container(records, params, checksum_of(reference), path)
    data = container_bytes(records, params, reference)
    assert path.read_bytes() == data
    assert n == len(data)


@pytest.mark.parametrize("fmt", [".bnc", ".bidx", ".2bit-raw"])
def test_every_format_reads_and_writes_every_source(fmt, reference, index64, tmp_path):
    params = CompressParams(k=64, s=16)
    records = [("x", result_of([V] * 3, [0xE4] * 3, 48))]

    def index_fields(index):
        return (index.k, index.seeds, index.ref_checksum, index.slots.tobytes(),
                index.nibbles.tobytes())

    write, read, fields, expected = {
        ".bnc": (
            lambda dest: write_container(records, params, checksum_of(reference), dest),
            read_container,
            lambda box: decompress_records(box, box.records[:1], reference)[0].to_ascii(),
            ("ACGT" + "A" * 12) * 3,
        ),
        ".bidx": (index64.save, ReferenceIndex.load, index_fields, index_fields(index64)),
        ".2bit-raw": (
            lambda dest: write_2bit_raw(reference, dest), read_2bit_raw, lambda seq: seq, reference
        ),
    }[fmt]
    stream = io.BytesIO()
    write(stream)
    data = stream.getvalue()
    path = tmp_path / f"a{fmt}"
    for dest in (str(path), path):
        path.unlink(missing_ok=True)
        write(dest)
        assert path.read_bytes() == data
    for src in (data, str(path), path, io.BytesIO(data)):
        assert fields(read(src)) == expected


def test_find_record(packed):
    data, _, _ = packed
    box = read_container(data)
    assert box.find_record("slice") is box.records[1]
    with pytest.raises(KeyError, match="nope"):
        box.find_record("nope")


def test_decompress_records_keeps_fault_order(packed, reference):
    data, _, _ = packed
    rec = read_container(data).records[1]
    corrupt = bytearray(data)
    corrupt[rec.byte_offset] ^= 0x01
    box = read_container(bytes(corrupt))
    wrong = PackedSequence.from_codes(reference.codes()[1:])
    # Record CRCs are checked before the reference checksum.
    with pytest.raises(CorruptContainer, match="'slice': group data CRC mismatch"):
        decompress_records(box, box.records, wrong)
    with pytest.raises(ChecksumMismatch):
        decompress_records(box, box.records[:1], wrong)
    # An empty selection decodes nothing, so it checks nothing.
    assert decompress_records(box, [], wrong) == []


def test_empty_record_inside_container(reference):
    params = CompressParams(k=64, s=16)
    records = [
        ("a", result_of([V] * 20, [0xE4] * 20, 320)),
        ("void", result_of([], [], 0)),
        ("b", result_of([V] * 20, [0xE4] * 20, 310)),
    ]
    data = container_bytes(records, params, reference)
    box = read_container(data)
    rec = box.find_record("void")
    assert (rec.n_bases, rec.n_groups, rec.region_size) == (0, 0, 4)
    assert decompress_records(box, [rec], reference)[0].length == 0
    assert decompress_records(box, [box.find_record("b")], reference)[0].length == 310


def test_write_rejects_wide_stride(reference):
    with pytest.raises(ValueError, match="requires s=16"):
        container_bytes([], CompressParams(k=64, s=32), reference)


def test_write_rejects_bad_checksum_length():
    with pytest.raises(ValueError, match="32 bytes"):
        write_container([], CompressParams(k=64, s=16), b"short", io.BytesIO())


def test_write_rejects_inconsistent_base_count(reference):
    params = CompressParams(k=64, s=16)
    # One verbatim token yields 16 raw bases; declaring 17 would underrun and
    # declaring 0 exceeds the padding window.
    for bad in (17, 0):
        with pytest.raises(ValueError, match="inconsistent"):
            container_bytes([("r", result_of([V], [0], bad))], params, reference)
    assert container_bytes([("r", result_of([V], [0], 1))], params, reference)


def test_chunk_index_empty_tokens_has_origin():
    params = CompressParams(k=64, s=16)
    assert built_entries([kinds_of()], 4, params) == [[(0, 0, 0)]]


def test_chunk_index_all_verbatim_arithmetic():
    params = CompressParams(k=64, s=16)
    (entries,) = built_entries([kinds_of(*[V] * 64)], 2, params)
    # Boundary every 32 tokens; 32 verbatims = 512 bases, 2 headers + 32
    # payload words = 136 bytes.
    assert entries == [(0, 0, 0), (512, 2, 136)]


def test_chunk_index_dense_under_break_mode(reference, index64):
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(7)
    target = mutate(reference, MutationProfile(snp=0.02), rng)
    result = compress(target, index64, reference, params, break_every_groups=3)
    (entries,) = built_entries([result.kinds], 3, params)
    boundaries = -(-result.kinds.size // (16 * 3))
    assert len(entries) == boundaries
    bases = [base for base, _, _ in entries]
    assert bases == sorted(bases)


def test_chunk_index_skips_chained_boundaries():
    params = CompressParams(k=64, s=16)
    assert built_entries([kinds_of(FM, *[C] * 31)], 1, params) == [[(0, 0, 0)]]
    # A full match at the boundary makes it usable again.
    assert built_entries([kinds_of(*[FM] * 17, *[C] * 15)], 1, params) == [
        [(0, 0, 0), (1024, 1, 68)]
    ]


def test_chunk_index_verbatim_does_not_clear_chain():
    params = CompressParams(k=64, s=16)
    # Group 1 opens with a verbatim but still owes state to group 0's match.
    assert built_entries([kinds_of(FM, *[C] * 15, V, *[C] * 15)], 1, params) == [[(0, 0, 0)]]


def chunk_index_reference(kinds, granularity, params):
    """Token-by-token chunk index: the reference for the array version."""
    kinds = kinds.tolist()
    # needs_state[i]: decoding kinds[i:] with fresh state would fail.
    needs_state = [False] * (len(kinds) + 1)
    for i in range(len(kinds) - 1, -1, -1):
        needs_state[i] = kinds[i] == C or (kinds[i] == V and needs_state[i + 1])
    entries = []
    bases = n_bytes = 0
    for i, kind in enumerate(kinds):
        if i % (16 * granularity) == 0 and not needs_state[i]:
            entries.append((bases, i // 16, n_bytes))
        if i % 16 == 0:
            n_bytes += 4
        bases += params.s if kind == V else params.k
        n_bytes += 4 * (params.words_per_verbatim if kind == V else int(kind != C))
    return entries if kinds else [(0, 0, 0)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 200), st.integers(1, 3), st.sampled_from([16, 32]),
       st.integers(0, 2**32 - 1))
def test_chunk_index_matches_reference(n, granularity, s, seed):
    params = CompressParams(k=64, s=s)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(4, n, p=rng.dirichlet(np.ones(4))).astype(np.uint8)
    assert built_entries([kinds], granularity, params) == [
        chunk_index_reference(kinds, granularity, params)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 120), max_size=6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_chunk_index_of_many_records_matches_reference(sizes, granularity, seed):
    """Records indexed together each get their own index: a record's origin
    does not depend on the tokens of the record before it."""
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(seed)
    kinds = [rng.choice(4, n, p=rng.dirichlet(np.ones(4))).astype(np.uint8) for n in sizes]
    got = built_entries(kinds, granularity, params)
    assert got == [chunk_index_reference(k, granularity, params) for k in kinds]


def test_write_container_batch_matches_record_by_record(reference, index64):
    """Every record's group bytes, CRC and chunk index section are those of a
    container holding that record alone, and its offsets follow the records
    before it."""
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(0xBA7)
    ref = reference.codes()
    targets = [
        pack_bases(""), random_sequence(5, rng), random_sequence(64, rng),
        PackedSequence.from_codes(ref[100:165]), PackedSequence.from_codes(ref[900:1100]),
        PackedSequence.from_codes(ref[2000:2203]),
        mutate(reference, MutationProfile(snp=0.01), rng),
    ]
    records = [(f"r{i}", compress(t, index64, reference, params, break_every_groups=2))
               for i, t in enumerate(targets)]
    batch = read_container(container_bytes(records, params, reference, granularity=2))
    for record, one in zip(batch.records, records):
        single = read_container(container_bytes([one], params, reference, granularity=2))
        (alone,) = single.records
        assert batch.group_bytes(record) == single.group_bytes(alone)
        assert (record.id, record.n_bases, record.n_groups, record.region_size) == (
            alone.id, alone.n_bases, alone.n_groups, alone.region_size
        )
        assert record.granularity == alone.granularity
        assert read_entries(batch, record) == read_entries(single, alone)


def write_container_by_field(records, params, ref_checksum, granularity):
    """The struct-per-field container writer that ``write_container``
    replaced, kept as the reference for its bytes. Group bytes come from
    ``encode_groups`` and entries from ``chunk_index_reference``, one record
    at a time."""
    rids = [rec_id.encode("utf-8") for rec_id, _ in records]
    table, regions, blob = bytearray(), bytearray(), bytearray()
    cursor = HEADER_LEN + sum(2 + len(rid) + 24 for rid in rids)
    for rid, (_, result) in zip(rids, records):
        group_bytes = encode_groups(result.kinds, result.words, params)
        n_groups = -(-result.kinds.size // 16)
        table += struct.pack("<H", len(rid)) + rid
        table += struct.pack("<QQQ", result.n_bases, n_groups, cursor)
        regions += group_bytes + struct.pack("<I", zlib.crc32(group_bytes))
        cursor += len(group_bytes) + 4
        entries = chunk_index_reference(result.kinds, granularity, params)
        section = struct.pack("<IQ", granularity, len(entries))
        for entry in entries:
            section += struct.pack("<QQQ", *entry)
        blob += section + struct.pack("<I", zlib.crc32(section))
    index_blob_offset = HEADER_LEN + len(table) + len(regions)
    fixed = _FIXED.pack(
        MAGIC, VERSION, params.k, params.s, ref_checksum, len(rids), index_blob_offset
    )
    return fixed + struct.pack("<I", zlib.crc32(fixed + table)) + table + regions + blob


@pytest.fixture(scope="module")
def many_reads(reference):
    """1,250 mutated 200-base reads of the reference, as in the ``reads``
    benchmark workload."""
    rng = np.random.default_rng(0x5EAD)
    profile = MutationProfile(snp=0.02, insertion=0.001, deletion=0.001)
    reads = random_reads(reference, 1_250, 200, profile, rng, rc_fraction=0.5)
    return [(f"read{i:05d}", read) for i, read in enumerate(reads)]


@pytest.mark.parametrize("granularity", [1, 2, 16])
def test_write_container_matches_struct_per_field_writer(
    granularity, reference, index64, many_reads
):
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(granularity)
    odd = [
        ("empty", pack_bases("")),
        ("", random_sequence(300, rng)),
        ("id-" + "\u00e9" * 200, mutate(reference, MutationProfile(snp=0.01), rng)),
    ]
    assert len(odd[2][0].encode("utf-8")) >= 300  # the u16 length uses its high byte
    targets = odd + many_reads
    results = compress(
        [seq for _, seq in targets], index64, reference, params,
        break_every_groups=granularity,
    )
    records = [(rec_id, result) for (rec_id, _), result in zip(targets, results)]
    checksum = checksum_of(reference)
    for chosen in ([], records[:3], records):
        expected = write_container_by_field(chosen, params, checksum, granularity)
        got = container_bytes(chosen, params, reference, granularity=granularity)
        assert got == expected
    assert read_container(got) == read_container_by_field(got)


def test_read_container_holds_no_per_record_index_objects(reference, index64, many_reads):
    """The chunk index of a read container is three flat lists of ints, so
    the objects the garbage collector tracks grow by about one per record."""
    params = CompressParams(k=64, s=16)
    results = compress([read for _, read in many_reads], index64, reference, params)
    records = [(rec_id, result) for (rec_id, _), result in zip(many_reads, results)]
    data = container_bytes(records, params, reference)
    gc.collect()
    before = len(gc.get_objects())
    box = read_container(data)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(box.records) == 1_250
    assert added <= len(box.records) + 16, added


def test_read_container_rejects_counts_beyond_the_file():
    """Counts in a header and in a section are checked against the file size
    before anything is sized from them."""
    params = CompressParams(k=64, s=16)
    header = _FIXED.pack(MAGIC, VERSION, params.k, params.s, bytes(32), 2**32 - 1, 100)
    table = struct.pack("<H", 3) + b"abc" + bytes(24)
    data = header + struct.pack("<I", zlib.crc32(header + table)) + table
    data += bytes(100 - len(data))
    assert len(data) == 100
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptContainer, match="truncated container"):
            read_container(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1 and peak < 1 << 20
    assert _read_outcome(read_container_by_field, data) == _read_outcome(read_container, data)

    packed = container_bytes(
        [("r", result_of([V], [0], 16))], params, pack_bases("ACGT"), granularity=1
    )
    section = struct.pack("<IQ", 1, 2**60) + struct.pack("<QQQ", 0, 0, 0)
    bad = _with_section(packed, 0, section)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptContainer, match="entry count exceeds file size"):
            read_container(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert _read_outcome(read_container_by_field, bad) == _read_outcome(read_container, bad)


def test_section_fault_in_a_late_record_is_reported_as_by_field(reference, index64, many_reads):
    """A corrupt section in record 700 of 1,250 is reported exactly as the
    field-by-field reader reports it, whichever check it fails, and before a
    fault in a later record, whichever that is."""
    params = CompressParams(k=64, s=16)
    targets = list(many_reads)
    for i in (700, 900):  # records with more than one chunk-index entry
        targets[i] = (f"read{i:05d}", PackedSequence.from_codes(reference.codes()[i : i + 2_000]))
    results = compress(
        [seq for _, seq in targets], index64, reference, params, break_every_groups=1
    )
    records = [(rec_id, result) for (rec_id, _), result in zip(targets, results)]
    data = container_bytes(records, params, reference, granularity=1)
    box = read_container(data)
    blob_offset = int.from_bytes(data[46:54], "little")

    def section(i):
        entries = read_entries(box, box.records[i])
        assert len(entries) >= 2
        return struct.pack("<IQ", 1, len(entries)), b"".join(
            struct.pack("<QQQ", *e) for e in entries
        )

    def with_sections(replaced, broken_crc=None):
        """``data`` with the sections of some records replaced and re-CRC'd,
        and with the CRC of one record's section left unfixed."""
        out = bytearray(data[:blob_offset])
        pos = blob_offset
        for i, rec in enumerate(box.records):
            size = 12 + 24 * rec.n_entries
            body = replaced.get(i, data[pos : pos + size])
            crc = zlib.crc32(body) ^ (i == broken_crc)
            out += body + struct.pack("<I", crc)
            pos += size + 4
        return bytes(out)

    def faults(i):
        """Sections of record ``i`` that fail each content check."""
        head, body = section(i)
        return {
            "zero chunk index granularity": struct.pack("<IQ", 0, len(body) // 24) + body,
            "chunk index keys not strictly increasing": head + body[:24] + body[:24] + body[48:],
            "chunk index entry out of range": head + body[:-8] + struct.pack("<Q", 10**6),
            "chunk index must start at origin": struct.pack("<IQ", 1, 0),
        }

    crafted = {}
    for what, bad in faults(700).items():
        crafted[what] = with_sections({700: bad})
        crafted[f"{what} before a CRC fault"] = with_sections({700: bad}, broken_crc=900)
        for later, worse in faults(900).items():
            crafted[f"{what} before {later}"] = with_sections({700: bad, 900: worse})
    crafted["CRC fault before a content fault"] = with_sections(
        {900: faults(900)["chunk index must start at origin"]}, broken_crc=700
    )
    for name, bad in crafted.items():
        expected = _read_outcome(read_container_by_field, bad)
        assert isinstance(expected, str) and expected.startswith("record 'read00700': "), name
        assert _read_outcome(read_container, bad) == expected, name
        what = expected.split(": ", 1)[1]
        assert name.startswith(what if what != "chunk index CRC mismatch" else "CRC fault"), name


def test_chunk_index_validation():
    params = CompressParams(k=64, s=16)
    with pytest.raises(ValueError, match="granularity"):
        build_chunk_index([kinds_of()], 0, params)


def test_extract_matches_full_decode(packed, reference):
    data, targets, _ = packed
    box = read_container(data)
    rng = np.random.default_rng(41)
    for rec in box.records:
        full = decompress_records(box, [rec], reference)[0]
        codes = full.codes()
        for _ in range(40):
            off = int(rng.integers(0, rec.n_bases))
            length = int(rng.integers(0, min(2048, rec.n_bases - off) + 1))
            got = extract_range(box, rec, reference, off, length)
            assert got.codes().tolist() == codes[off : off + length].tolist()


def test_extract_decodes_a_bounded_window(reference, index64):
    """In every record of a container with an entry at each group, extract
    starts at the record's own last entry at or before the offset."""
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(0xB0D)
    profile = MutationProfile(snp=0.01, insertion=0.001, deletion=0.001)
    codes = reference.codes()
    targets = [
        mutate(PackedSequence.from_codes(codes[start : start + n]), profile, rng)
        for start, n in ((0, 5_000), (8_000, 12_000), (22_000, 7_000))
    ]
    results = compress(targets, index64, reference, params, break_every_groups=1)
    records = [(f"r{i}", result) for i, result in enumerate(results)]
    box = read_container(container_bytes(records, params, reference, granularity=1))
    length = 500
    for rec, target in zip(box.records, targets):
        for off in (rec.n_bases // 2, rec.n_bases - length):
            stats = {}
            got = extract_range(box, rec, reference, off, length, _stats=stats)
            assert got.codes().tolist() == target.codes()[off : off + length].tolist()
            entry_base = max(base for base, _, _ in read_entries(box, rec) if base <= off)
            assert entry_base > 0
            # Never more than the gap to the entry point, the request, and one
            # trailing group of full matches.
            assert length <= stats["decoded_bases"] < (off - entry_base) + length + 16 * params.k
            assert stats["groups_decoded"] < rec.n_groups


def test_extract_skips_the_groups_before_its_range(reference, index64):
    """At the default granularity an offset can be 15 groups past its entry.
    Extract skips the groups that end before the offset by header alone, so
    it decodes fewer than the request plus two groups of full matches,
    whatever its distance from the entry."""
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(0x5C1B)
    profile = MutationProfile(snp=0.01, insertion=0.001, deletion=0.001)
    codes = reference.codes()
    forward = mutate(PackedSequence.from_codes(codes[:9_000]), profile, rng)
    reverse = PackedSequence.from_codes((codes[9_000:20_000][::-1] ^ 3).astype(np.uint8))
    targets = [forward, reverse, random_sequence(6_000, rng)]
    results = compress(
        targets, index64, reference, params, break_every_groups=DEFAULT_GRANULARITY
    )
    records = [(f"r{i}", result) for i, result in enumerate(results)]
    box = read_container(container_bytes(records, params, reference))
    length = 64
    most_skipped = 0
    for rec, target, result in zip(box.records, targets, results):
        assert rec.granularity == DEFAULT_GRANULARITY
        kinds = np.zeros(group_count(result.kinds.size) * 16, dtype=np.uint8)
        kinds[: result.kinds.size] = result.kinds
        group_ends = params.kind_bases[kinds].reshape(-1, 16).sum(axis=1).cumsum()
        # Random offsets, and the first base of the last group of each chunk.
        chunk_last = group_ends[DEFAULT_GRANULARITY - 2 :: DEFAULT_GRANULARITY]
        offsets = [*rng.integers(0, rec.n_bases - length, 30).tolist(), *chunk_last.tolist()]
        for off in (off for off in offsets if off <= rec.n_bases - length):
            stats = {}
            got = extract_range(box, rec, reference, off, length, _stats=stats)
            assert got.codes().tolist() == target.codes()[off : off + length].tolist()
            _, entry_group, _ = max(e for e in read_entries(box, rec) if e[0] <= off)
            first = int(np.searchsorted(group_ends, off, side="right"))
            last = int(np.searchsorted(group_ends, off + length, side="left"))
            assert stats["groups_skipped"] == first - entry_group
            assert stats["groups_skipped"] + stats["groups_decoded"] == last + 1 - entry_group
            assert length <= stats["decoded_bases"] < length + 2 * 16 * params.k
            most_skipped = max(most_skipped, stats["groups_skipped"])
    assert most_skipped == DEFAULT_GRANULARITY - 1


def test_extract_past_every_group_of_a_short_stream(reference):
    """A record table that declares 4,096 more bases than the record's groups
    hold, under a valid meta CRC, reads cleanly. An extract near the declared
    end passes over every group by header alone and reports how far short
    the stream ended; a full decode reports the footer count."""
    params = CompressParams(k=32, s=16)
    target = mutate(
        PackedSequence.from_codes(reference.codes()[:20_000]),
        MutationProfile(snp=0.01),
        np.random.default_rng(0x5407),
    )
    result = compress(target, build_index(reference, 32), reference, params)
    kinds = np.zeros(group_count(result.kinds.size) * 16, dtype=np.uint8)
    kinds[: result.kinds.size] = result.kinds
    n = int(params.kind_bases[kinds].sum())  # the bases the groups hold
    data = bytearray(container_bytes([("r", result)], params, reference))
    base_count_at = HEADER_LEN + 2 + len("r")
    table_end = base_count_at + 24
    struct.pack_into("<Q", data, base_count_at, n + 4_096)
    _CRC.pack_into(data, _FIXED.size, zlib.crc32(data[: _FIXED.size] + data[HEADER_LEN:table_end]))
    box = read_container(bytes(data))
    rec = box.records[0]
    assert rec.n_bases == n + 4_096
    with pytest.raises(CorruptStream) as err:
        extract_range(box, rec, reference, n + 1_000, 64)
    assert str(err.value) == "record 'r': stream ended 1064 bases short of extract range"
    with pytest.raises(CorruptStream, match="footer declares"):
        decompress_records(box, [rec], reference)


@pytest.mark.parametrize("residue", range(4))
def test_records_decode_at_every_alignment(reference, index64, residue):
    """The one record of a container starts at byte 84 + its id length, so
    ids of 1-4 characters put its group words at every residue mod 4 of the
    file. Its full decode, an extract from a chunk-index entry and one that
    passes over groups all equal the target."""
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(0xA119 + residue)
    target = mutate(
        PackedSequence.from_codes(reference.codes()[3_000:23_000]), MutationProfile(snp=0.01), rng
    )
    result = compress(target, index64, reference, params, break_every_groups=DEFAULT_GRANULARITY)
    rec_id = "r" * (1 + (residue - 1) % 4)
    box = read_container(container_bytes([(rec_id, result)], params, reference))
    rec = box.records[0]
    assert rec.byte_offset == 84 + len(rec_id) and rec.byte_offset % 4 == residue
    assert decompress_records(box, [rec], reference)[0] == target
    codes = target.codes()
    entry = next(base for base, _, _ in read_entries(box, rec) if base >= 64)
    for off, skips in ((entry, False), (entry - 64, True)):
        stats = {}
        got = extract_range(box, rec, reference, off, 64, _stats=stats)
        assert got.codes().tolist() == codes[off : off + 64].tolist()
        assert (stats["groups_skipped"] > 0) == skips


def test_extract_works_with_sparse_index(reference, index64):
    # Without break mode, chains can run through every boundary, leaving only
    # the origin entry; extraction must still be correct, just less lazy.
    params = CompressParams(k=64, s=16)
    result = compress(reference, index64, reference, params)
    data = container_bytes([("self", result)], params, reference)
    box = read_container(data)
    rec = box.records[0]
    assert read_entries(box, rec) == [(0, 0, 0)]
    got = extract_range(box, rec, reference, 12_345, 100)
    assert got.codes().tolist() == reference.codes()[12_345:12_445].tolist()


@pytest.mark.parametrize("granularity", [1, DEFAULT_GRANULARITY])
def test_extract_length_sweep(reference, index64, granularity, monkeypatch):
    """Extracts from the start, the middle and the end of a forward- and a
    reverse-chained record, of lengths on both sides of the gather's switch
    from Python ints to numpy, equal the full decode sliced."""
    params = CompressParams(k=64, s=16)
    k = params.k
    codes = reference.codes()
    forward = mutate(
        PackedSequence.from_codes(codes[:9_000]),
        MutationProfile(snp=0.002),
        np.random.default_rng(0x5EE9),
    )
    reverse = PackedSequence.from_codes((codes[9_000:20_000][::-1] ^ 3).astype(np.uint8))
    results = compress(
        [forward, reverse], index64, reference, params, break_every_groups=granularity
    )
    records = [("forward", results[0]), ("reverse", results[1])]
    box = read_container(container_bytes(records, params, reference, granularity=granularity))
    # Decoded before the forms are counted, so that only extracts count.
    fulls = decompress_records(box, box.records, reference)
    forms = {"int": 0, "numpy": 0}
    for form, name in (("int", "_gather_int"), ("numpy", "_gather_packed")):
        real = getattr(decompress_mod, name)

        def counted(*args, _real=real, _form=form):
            forms[_form] += 1
            return _real(*args)

        monkeypatch.setattr(decompress_mod, name, counted)
    # A switch at 4 groups, so that both forms decode these short records: a
    # range of (few - 2) * 256 bases spans fewer than few groups, and one of
    # few * 16 * k bases at least few.
    few = 4
    monkeypatch.setattr(decompress_mod, "_FEW_GROUPS", few)
    lengths = (0, 1, 63, 64, 65, (few - 2) * GROUP_SLOTS * params.s, few * GROUP_SLOTS * k, 8_192)
    for rec, full in zip(box.records, fulls):
        n = rec.n_bases
        for length in lengths:
            for off in (0, (n - length) // 2, n - length):
                got = extract_range(box, rec, reference, off, length)
                assert got == pack_bases(full.to_ascii()[off : off + length]), (rec.id, off)
    assert forms["int"] and forms["numpy"]


def test_extract_range_validation(packed, reference):
    data, _, _ = packed
    box = read_container(data)
    rec = box.records[0]
    for off, length in ((-1, 5), (0, -1), (rec.n_bases, 1), (rec.n_bases - 3, 4)):
        with pytest.raises(ValueError, match="extract range"):
            extract_range(box, rec, reference, off, length)
    assert extract_range(box, rec, reference, rec.n_bases, 0).length == 0


def test_extract_never_returns_corrupted_group_bytes(reference, index64):
    # A flipped group byte must surface as an error or, where it cannot change
    # the decoded bases, leave them pristine; extract checks the record CRC.
    params = CompressParams(k=64, s=16)
    target = mutate(
        PackedSequence.from_codes(reference.codes()[500:2000]),
        MutationProfile(snp=0.01),
        np.random.default_rng(0xACC9),
    )
    result = compress(target, index64, reference, params, break_every_groups=4)
    data = container_bytes([("near", result)], params, reference, granularity=4)
    rec = read_container(data).records[0]
    for pos in range(rec.byte_offset, rec.byte_offset + rec.region_size - 4):
        bad = bytearray(data)
        bad[pos] ^= 0x01
        try:
            box = read_container(bytes(bad))
            got = extract_range(box, box.records[0], reference, 0, rec.n_bases)
        except RefpackError:
            continue
        assert got == target, f"silent wrong output after flipping byte {pos}"


def test_extract_from_an_unaligned_entry_is_a_structured_error(reference, index64):
    """A chunk-index byte offset off a word boundary, in a section with a
    valid CRC, would make extract decode misaligned words: the reader rejects
    it as out of range before any extract can start there."""
    params = CompressParams(k=64, s=16)
    target = mutate(reference, MutationProfile(snp=0.02), np.random.default_rng(0xA11))
    result = compress(target, index64, reference, params, break_every_groups=1)
    data = container_bytes([("a", result)], params, reference, granularity=1)
    box = read_container(data)
    entries = read_entries(box, box.records[0])
    base, group, byte = entries[1]
    section = struct.pack("<IQ", 1, 2) + struct.pack("<QQQ", *entries[0])
    section += struct.pack("<QQQ", base, group, byte + 1)
    with pytest.raises(CorruptContainer, match="'a': chunk index entry out of range"):
        read_container(_with_section(data, 0, section))


def test_group_bytes_crc_runs_once_per_record(packed, reference, monkeypatch):
    """Two extracts of one record run ``zlib.crc32`` over its group bytes
    once; a corrupt region still fails the first extract, and a full decode."""
    data, targets, _ = packed
    calls = []
    crc32 = zlib.crc32

    def counting_crc32(buf, *args):
        calls.append(len(buf))
        return crc32(buf, *args)

    box = read_container(data)
    rec = box.find_record("whole")
    body = rec.region_size - 4
    monkeypatch.setattr(container_mod.zlib, "crc32", counting_crc32)
    first = extract_range(box, rec, reference, 7_000, 64)
    assert extract_range(box, rec, reference, 7_000, 64) == first
    assert decompress_records(box, [rec], reference)[0] == targets["whole"]
    assert calls.count(body) == 1

    bad = bytearray(data)
    bad[rec.byte_offset + body // 2] ^= 0x10
    for attempt in (
        lambda box: extract_range(box, box.find_record("whole"), reference, 7_000, 64),
        lambda box: decompress_records(box, box.records, reference),
    ):
        with pytest.raises(CorruptContainer, match="group data CRC mismatch"):
            attempt(read_container(bytes(bad)))


def test_extract_wrong_reference(packed, reference):
    data, _, _ = packed
    box = read_container(data)
    other = PackedSequence.from_codes(reference.codes()[:-1])
    with pytest.raises(ChecksumMismatch):
        extract_range(box, box.records[0], other, 0, 10)


def test_extract_leaves_reference_packed(packed, reference, forbid_unpack):
    data, targets, _ = packed
    box = read_container(data)
    rec = box.find_record("whole")
    with forbid_unpack():
        piece = extract_range(box, rec, reference, 7_000, 64)
        assert decompress_records(box, [rec], reference)[0] == targets["whole"]
    assert piece.codes().tolist() == targets["whole"].codes()[7_000:7_064].tolist()


def test_header_field_errors(packed):
    data, _, _ = packed
    bad = bytearray(data)
    bad[0] ^= 0xFF
    with pytest.raises(CorruptContainer, match="magic"):
        read_container(bytes(bad))
    bad = bytearray(data)
    bad[4] = 9
    with pytest.raises(CorruptContainer, match="version"):
        read_container(bytes(bad))
    bad = bytearray(data)
    bad[8] = 15  # s field
    with pytest.raises(CorruptContainer, match="s=15"):
        read_container(bytes(bad))
    with pytest.raises(CorruptContainer, match="too short"):
        read_container(data[:57])


def test_trailing_junk_detected(packed):
    data, _, _ = packed
    with pytest.raises(CorruptContainer, match="trailing"):
        read_container(data + b"\x00")


def test_truncations_detected(packed):
    data, _, _ = packed
    for n in range(0, len(data), 17):
        with pytest.raises(CorruptContainer):
            read_container(data[:n])


def read_container_by_field(data):
    """The field-by-field container reader that ``read_container`` replaced,
    kept as the reference for its checks, messages and their order."""

    class Cursor:
        def __init__(self, pos):
            self.pos = pos

        def take(self, n, what):
            if n < 0 or self.pos + n > len(data):
                raise CorruptContainer(f"truncated container while reading {what}")
            out = data[self.pos : self.pos + n]
            self.pos += n
            return out

        def uint(self, n, what):
            return int.from_bytes(self.take(n, what), "little")

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
    cur = Cursor(HEADER_LEN)
    raw_records = []
    for _ in range(n_records):
        id_len = cur.uint(2, "record id length")
        rid = cur.take(id_len, "record id").decode("utf-8", errors="replace")
        n_bases = cur.uint(8, "record base count")
        n_groups = cur.uint(8, "record group count")
        byte_offset = cur.uint(8, "record byte offset")
        raw_records.append((rid, n_bases, n_groups, byte_offset))
    table_end = cur.pos
    if zlib.crc32(data[: _FIXED.size] + data[HEADER_LEN:table_end]) != meta_crc:
        raise CorruptContainer("header/record-table CRC mismatch")
    if not table_end <= blob_offset <= len(data):
        raise CorruptContainer(f"index blob offset {blob_offset} out of bounds")
    records = []
    prev_end = table_end
    for i, (rid, n_bases, n_groups, byte_offset) in enumerate(raw_records):
        if byte_offset != prev_end:
            raise CorruptContainer(
                f"record {rid!r}: group data at {byte_offset}, expected {prev_end}"
            )
        next_start = raw_records[i + 1][3] if i + 1 < len(raw_records) else blob_offset
        region_size = next_start - byte_offset
        if region_size < 4:
            raise CorruptContainer(f"record {rid!r}: region too small")
        records.append(ContainerRecord(rid, n_bases, n_groups, byte_offset, region_size, 0, 0, 0))
        prev_end = next_start
    bcur = Cursor(blob_offset)
    all_bases, all_groups, all_bytes = [], [], []
    for rec in records:
        section_start = bcur.pos
        granularity = bcur.uint(4, "chunk index granularity")
        n_entries = bcur.uint(8, "chunk index entry count")
        if n_entries > (len(data) - bcur.pos) // 24 + 1:
            raise CorruptContainer("chunk index entry count exceeds file size")
        bases, groups, bytes_ = [], [], []
        for _ in range(n_entries):
            bases.append(bcur.uint(8, "chunk index base offset"))
            groups.append(bcur.uint(8, "chunk index group ordinal"))
            bytes_.append(bcur.uint(8, "chunk index byte offset"))
        section = data[section_start : bcur.pos]
        crc = bcur.uint(4, "chunk index CRC")
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
            if groups[j] >= rec.n_groups or bytes_[j] >= rec.region_size - 4 or bytes_[j] % 4:
                raise CorruptContainer(f"record {rec.id!r}: chunk index entry out of range")
        rec.granularity, rec.first_entry, rec.n_entries = granularity, len(all_bases), n_entries
        all_bases += bases
        all_groups += groups
        all_bytes += bytes_
    if bcur.pos != len(data):
        raise CorruptContainer(f"{len(data) - bcur.pos} trailing bytes after index blob")
    return Container(
        CompressParams(k=k, s=s), checksum, records, data, (all_bases, all_groups, all_bytes)
    )


def _read_outcome(reader, data):
    try:
        return reader(data)
    except CorruptContainer as err:
        return str(err)


def _with_section(data, record_index, section):
    """``data`` with one record's chunk-index section replaced and re-CRC'd."""
    box = read_container(data)
    blob_offset = int.from_bytes(data[46:54], "little")
    pos = blob_offset
    for i, rec in enumerate(box.records):
        length = 12 + 24 * rec.n_entries + 4
        if i == record_index:
            return data[:pos] + section + _CRC.pack(zlib.crc32(section)) + data[pos + length :]
        pos += length
    raise IndexError(record_index)


def test_read_container_matches_field_by_field_reader(reference, index64):
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(11)
    targets = [
        ("a", mutate(reference, MutationProfile(snp=0.02), rng)),
        ("", pack_bases("")),
        ("long-id-" + "x" * 40, random_sequence(700, rng)),
    ]
    records = [
        (rec_id, compress(t, index64, reference, params, break_every_groups=2))
        for rec_id, t in targets
    ]
    data = container_bytes(records, params, reference, granularity=2)
    good = read_container(data)
    assert good == read_container_by_field(data)
    assert good.records[0].n_entries > 2
    crafted = [data[:n] for n in range(len(data))] + [data + b"\x00", data + bytes(30)]
    for pos in range(len(data)):
        bad = bytearray(data)
        bad[pos] ^= 0x41
        crafted.append(bytes(bad))
    entries = read_entries(good, good.records[0])
    sections = {
        "too many entries": struct.pack("<IQ", 2, 10**6),
        "zero granularity": struct.pack("<IQ", 0, 1) + struct.pack("<QQQ", 0, 0, 0),
        "no entries": struct.pack("<IQ", 2, 0),
        "off origin": struct.pack("<IQ", 2, 1) + struct.pack("<QQQ", 1, 0, 0),
        "decreasing": struct.pack("<IQ", 2, 3)
        + b"".join(struct.pack("<QQQ", *e) for e in (entries[0], entries[2], entries[1])),
        "repeated": struct.pack("<IQ", 2, 3)
        + b"".join(struct.pack("<QQQ", *e) for e in (entries[0], entries[1], entries[1])),
        "group out of range": struct.pack("<IQ", 2, 2)
        + struct.pack("<QQQ", 0, 0, 0) + struct.pack("<QQQ", 5, 10**6, 4),
        "byte out of range": struct.pack("<IQ", 2, 2)
        + struct.pack("<QQQ", 0, 0, 0) + struct.pack("<QQQ", 5, 1, 10**6),
    }
    for name, section in sections.items():
        crafted.append(_with_section(data, 0, section))
        assert isinstance(_read_outcome(read_container, crafted[-1]), str), name
    outcomes = set()
    for bad in crafted:
        expected = _read_outcome(read_container_by_field, bad)
        assert _read_outcome(read_container, bad) == expected
        if isinstance(expected, str):
            outcomes.add(expected.split(":")[-1].split(" while reading ")[-1])
    # every check of the reader was reached
    for what in ("record id length", "record id", "record byte offset",
                 "chunk index entry count", "chunk index base offset", "chunk index CRC",
                 " chunk index keys not strictly increasing", " zero chunk index granularity",
                 " chunk index entry out of range", " chunk index must start at origin",
                 "chunk index entry count exceeds file size"):
        assert what in outcomes, what


def test_single_byte_corruption_sampled(packed, reference):
    data, targets, _ = packed
    positions = set(range(0, len(data), 53))
    box = read_container(data)
    rec = box.records[0]
    # Make sure the sample hits every region of the layout.
    positions.update((1, 5, 9, 20, 43, 47, 55))  # fixed fields + meta crc
    positions.add(HEADER_LEN + 3)  # record table
    positions.add(rec.byte_offset + 6)  # group bytes
    positions.add(rec.byte_offset + rec.region_size - 2)  # region crc
    positions.add(len(data) - 2)  # final index-section crc
    for pos in sorted(positions):
        for pattern in (0x01, 0x80):
            bad = bytearray(data)
            bad[pos] ^= pattern
            with pytest.raises((CorruptContainer, CorruptStream, ChecksumMismatch)):
                box = read_container(bytes(bad))
                for r in box.records:
                    decompress_records(box, [r], reference)


def test_default_granularity_round_trips(reference, index64):
    params = CompressParams(k=64, s=16)
    result = compress(
        reference, index64, reference, params, break_every_groups=DEFAULT_GRANULARITY
    )
    data = container_bytes([("g", result)], params, reference)
    rec = read_container(data).records[0]
    assert rec.granularity == DEFAULT_GRANULARITY
