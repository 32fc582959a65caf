import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refpack import (
    CompressParams,
    CompressResult,
    MutationProfile,
    TokenKind,
    compress,
    decompress,
    mutate,
    read_container,
    write_container,
)
from refpack.container import (
    DEFAULT_GRANULARITY,
    HEADER_LEN,
    ChunkIndex,
    build_chunk_index,
    decompress_record,
    extract_range,
    record_stream,
)
from refpack.errors import ChecksumMismatch, CorruptContainer, CorruptStream, RefpackError
from refpack.sequence import PackedSequence, sequence_checksum

V = TokenKind.VERBATIM
FM = TokenKind.FORWARD_MATCH
C = TokenKind.CONTINUATION


def kinds_of(*kinds):
    return np.array(kinds, dtype=np.uint8)


def result_of(kinds, words, n_bases):
    return CompressResult(kinds_of(*kinds), np.array(words, dtype="<u4"), n_bases)


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
    assert rec.chunk_index.entries == [(0, 0, 0)]


def test_round_trip_all_records(packed, reference):
    data, targets, _ = packed
    box = read_container(data)
    assert [r.id for r in box.records] == list(targets)
    for rec in box.records:
        assert decompress_record(box, rec, reference) == targets[rec.id]


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


def test_find_record(packed):
    data, _, _ = packed
    box = read_container(data)
    assert box.find_record("slice") is box.records[1]
    with pytest.raises(KeyError, match="nope"):
        box.find_record("nope")


def test_record_stream_fields(packed, reference):
    data, targets, params = packed
    box = read_container(data)
    stream = record_stream(box, box.records[0])
    assert stream.n_bases == targets["whole"].length
    assert (stream.k, stream.s) == (params.k, params.s)
    assert stream.ref_checksum == checksum_of(reference)
    assert decompress(stream, reference) == targets["whole"]


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
    assert decompress_record(box, rec, reference).length == 0
    assert decompress_record(box, box.find_record("b"), reference).length == 310


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
    ci = build_chunk_index(kinds_of(), 4, params)
    assert ci.entries == [(0, 0, 0)]


def test_chunk_index_all_verbatim_arithmetic():
    params = CompressParams(k=64, s=16)
    ci = build_chunk_index(kinds_of(*[V] * 64), 2, params)
    # Boundary every 32 tokens; 32 verbatims = 512 bases, 2 headers + 32
    # payload words = 136 bytes.
    assert ci.entries == [(0, 0, 0), (512, 2, 136)]


def test_chunk_index_dense_under_break_mode(reference, index64):
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(7)
    target = mutate(reference, MutationProfile(snp=0.02), rng)
    result = compress(target, index64, reference, params, break_every_groups=3)
    ci = build_chunk_index(result.kinds, 3, params)
    boundaries = -(-result.kinds.size // (16 * 3))
    assert len(ci.entries) == boundaries
    assert ci.base_offsets == tuple(sorted(ci.base_offsets))


def test_chunk_index_skips_chained_boundaries():
    params = CompressParams(k=64, s=16)
    ci = build_chunk_index(kinds_of(FM, *[C] * 31), 1, params)
    assert ci.entries == [(0, 0, 0)]
    # A full match at the boundary makes it usable again.
    ci = build_chunk_index(kinds_of(*[FM] * 17, *[C] * 15), 1, params)
    assert ci.entries == [(0, 0, 0), (1024, 1, 68)]


def test_chunk_index_verbatim_does_not_clear_chain():
    params = CompressParams(k=64, s=16)
    # Group 1 opens with a verbatim but still owes state to group 0's match.
    ci = build_chunk_index(kinds_of(FM, *[C] * 15, V, *[C] * 15), 1, params)
    assert ci.entries == [(0, 0, 0)]


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
    ci = build_chunk_index(kinds, granularity, params)
    assert ci.entries == chunk_index_reference(kinds, granularity, params)


def test_chunk_index_validation():
    params = CompressParams(k=64, s=16)
    with pytest.raises(ValueError, match="granularity"):
        build_chunk_index(kinds_of(), 0, params)
    with pytest.raises(ValueError, match="granularity"):
        ChunkIndex(0, (0,), (0,), (0,))


def test_predecessor():
    ci = ChunkIndex(1, (0, 100, 200), (0, 4, 9), (0, 40, 90))
    assert ci.predecessor(0) == (0, 0, 0)
    assert ci.predecessor(99) == (0, 0, 0)
    assert ci.predecessor(100) == (100, 4, 40)
    assert ci.predecessor(10_000) == (200, 9, 90)
    with pytest.raises(ValueError, match="no entry"):
        ChunkIndex(1, (5,), (0,), (0,)).predecessor(3)
    with pytest.raises(ValueError, match="no entries"):
        ChunkIndex(1, (), (), ()).predecessor(0)


def test_extract_matches_full_decode(packed, reference):
    data, targets, _ = packed
    box = read_container(data)
    rng = np.random.default_rng(41)
    for rec in box.records:
        full = decompress_record(box, rec, reference)
        codes = full.codes()
        for _ in range(40):
            off = int(rng.integers(0, rec.n_bases))
            length = int(rng.integers(0, min(2048, rec.n_bases - off) + 1))
            got = extract_range(box, rec, reference, off, length)
            assert got.codes().tolist() == codes[off : off + length].tolist()


def test_extract_decodes_a_bounded_window(packed, reference):
    data, _, params = packed
    box = read_container(data)
    rec = box.records[0]
    stats = {}
    off, length = rec.n_bases // 2, 500
    got = extract_range(box, rec, reference, off, length, _stats=stats)
    assert got.length == length
    entry_base, _, _ = rec.chunk_index.predecessor(off)
    # Never more than the gap to the entry point, the request, and one
    # trailing group of full matches.
    assert length <= stats["decoded_bases"] < (off - entry_base) + length + 16 * params.k
    assert stats["groups_decoded"] < rec.n_groups


def test_extract_works_with_sparse_index(reference, index64):
    # Without break mode, chains can run through every boundary, leaving only
    # the origin entry; extraction must still be correct, just less lazy.
    params = CompressParams(k=64, s=16)
    result = compress(reference, index64, reference, params)
    data = container_bytes([("self", result)], params, reference)
    box = read_container(data)
    rec = box.records[0]
    assert rec.chunk_index.entries == [(0, 0, 0)]
    got = extract_range(box, rec, reference, 12_345, 100)
    assert got.codes().tolist() == reference.codes()[12_345:12_445].tolist()


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


def test_extract_wrong_reference(packed, reference):
    data, _, _ = packed
    box = read_container(data)
    other = PackedSequence.from_codes(reference.codes()[:-1])
    with pytest.raises(ChecksumMismatch):
        extract_range(box, box.records[0], other, 0, 10)


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
                    decompress_record(box, r, reference)


def test_default_granularity_round_trips(reference, index64):
    params = CompressParams(k=64, s=16)
    result = compress(
        reference, index64, reference, params, break_every_groups=DEFAULT_GRANULARITY
    )
    data = container_bytes([("g", result)], params, reference)
    rec = read_container(data).records[0]
    assert rec.chunk_index.granularity == DEFAULT_GRANULARITY
