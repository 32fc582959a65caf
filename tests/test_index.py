import io
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refpack.index as index_mod
from refpack import build_index, random_sequence
from refpack.cli import main
from refpack.errors import RefpackError
from refpack.index import (
    EMPTY_SLOT,
    Candidate,
    Orientation,
    QueryStats,
    ReferenceIndex,
    _next_power_of_two,
    window_probe_tables,
)
from refpack.sequence import (
    PackedSequence,
    concat_sequences,
    kmer_at,
    pack_bases,
    reverse_complement_sequence,
    sequence_checksum,
    write_fasta,
)
from refpack.synth import MutationProfile, mutate


def test_next_power_of_two():
    assert [_next_power_of_two(n) for n in (1, 2, 3, 4, 5, 1023, 1024, 1025)] == [
        2, 2, 4, 4, 8, 1024, 1024, 2048,
    ]


def test_capacity_and_load_bound():
    ref = random_sequence(5000, np.random.default_rng(1))
    idx = build_index(ref, 32)
    assert idx.capacity & (idx.capacity - 1) == 0
    assert idx.load_factor <= 0.5
    assert idx.skipped_keys == 0


def test_query_every_forward_kmer():
    rng = np.random.default_rng(2)
    ref = random_sequence(3000, rng)
    idx = build_index(ref, 24)
    for off in range(0, ref.length - 24 + 1, 97):
        hit = idx.query(ref, kmer_at(ref, off, 24))
        assert hit is not None
        assert hit.orientation is Orientation.FORWARD
        # any offset holding identical bases is a correct answer
        assert ref.codes_bytes()[hit.offset : hit.offset + 24] == kmer_at(ref, off, 24).to_codes()


def test_query_reverse_complement():
    ref = random_sequence(2000, np.random.default_rng(3))
    idx = build_index(ref, 31)  # odd k: no palindromic self-matches
    km = kmer_at(ref, 137, 31)
    hit = idx.query(ref, km.reverse_complement())
    assert hit == Candidate(Orientation.REVERSE, 137)


def test_forward_wins_tie_on_palindrome():
    # plant a reverse-complement palindrome: rc("ACGCGT") == "ACGCGT"
    ref = pack_bases("TTTTTTTTACGCGTTTTTTTTT")
    idx = build_index(ref, 6)
    hit = idx.query(ref, pack_kmer("ACGCGT"))
    assert hit is not None and hit.orientation is Orientation.FORWARD


def pack_kmer(text):
    return kmer_at(pack_bases(text), 0, len(text))


def test_query_absent():
    ref = pack_bases("A" * 64)
    idx = build_index(ref, 16)
    assert idx.query(ref, pack_kmer("ACGT" * 4)) is None


def test_duplicate_keeps_first_offset():
    rng = np.random.default_rng(4)
    half = random_sequence(400, rng)
    ref = concat_sequences([half, half])
    idx = build_index(ref, 20)
    hit = idx.query(ref, kmer_at(ref, 400 + 37, 20))
    assert hit is not None and hit.offset == 37


def test_stride_skips_unaligned_offsets():
    rng = np.random.default_rng(5)
    ref = random_sequence(4000, rng)
    idx = build_index(ref, 32, sampling_stride=8)
    aligned = idx.query(ref, kmer_at(ref, 16, 32))
    assert aligned is not None
    # an off-grid k-mer is only found if some aligned copy shares its bases
    unaligned = idx.query(ref, kmer_at(ref, 17, 32))
    if unaligned is not None:
        assert unaligned.offset % 8 == 0


def test_query_k_mismatch():
    ref = random_sequence(100, np.random.default_rng(6))
    idx = build_index(ref, 16)
    with pytest.raises(ValueError, match="does not match index k"):
        idx.query(ref, kmer_at(ref, 0, 17))


def test_build_validation():
    ref = random_sequence(100, np.random.default_rng(7))
    with pytest.raises(ValueError):
        build_index(ref, 0)
    with pytest.raises(ValueError):
        build_index(ref, 16, sampling_stride=0)
    with pytest.raises(ValueError, match="shorter than k"):
        build_index(ref, 101)
    # 2^31 + 1 keys need 2^33 slots; rejected before any base is read
    huge = SimpleNamespace(length=(1 << 31) + 16)
    with pytest.raises(ValueError, match="32-bit slot indices"):
        build_index(huge, 16)


def test_prefilter_never_changes_results():
    rng = np.random.default_rng(8)
    ref = random_sequence(2500, rng)
    idx = build_index(ref, 16)
    queries = [kmer_at(ref, int(rng.integers(0, ref.length - 16)), 16) for _ in range(50)]
    queries += [kmer_at(random_sequence(16, rng), 0, 16) for _ in range(150)]
    for km in queries:
        assert idx.query(ref, km, use_prefilter=True) == idx.query(
            ref, km, use_prefilter=False
        )


def test_query_stats_counters():
    rng = np.random.default_rng(9)
    ref = random_sequence(2000, rng)
    idx = build_index(ref, 16)

    stats = QueryStats()
    hit = idx.query(ref, kmer_at(ref, 0, 16), stats=stats)
    assert hit is not None and stats.hits == 1
    assert stats.probes >= 1

    misses = QueryStats()
    n = 300
    for _ in range(n):
        idx.query(ref, kmer_at(random_sequence(16, rng), 0, 16), stats=misses)
    assert misses.hits <= 2  # random 16-mers almost never occur in 2 kb
    assert misses.probes >= n
    # the nibble filter should absorb most failing probes
    assert misses.prefilter_rejects > misses.verify_failures


def test_window_probe_tables_match_scalar():
    rng = np.random.default_rng(10)
    ref = random_sequence(500, rng)
    k = 21
    offsets = np.array([0, 3, 17, 100, 479], dtype=np.int64)
    h1, h2, low4, h1r, h2r, low4r = window_probe_tables(
        ref.codes(), k, offsets, (7, 9), include_rc=True
    )
    for i, off in enumerate(offsets):
        km = kmer_at(ref, int(off), k)
        rc = km.reverse_complement()
        assert h1[i] == index_mod.murmur3_low64(km.bytes_le(), 7)
        assert h2[i] == index_mod.murmur3_low64(km.bytes_le(), 9)
        assert low4[i] == km.low4
        assert h1r[i] == index_mod.murmur3_low64(rc.bytes_le(), 7)
        assert low4r[i] == rc.low4


@pytest.mark.parametrize("include_rc", [False, True])
def test_window_probe_tables_one_hash_call_per_chunk(monkeypatch, include_rc):
    """Both seeds (and both strands) share one hash call of at most ``chunk``
    rows; chunking does not change the tables."""
    ref = random_sequence(300, np.random.default_rng(18))
    offsets = np.arange(0, 280, 3, dtype=np.int64)
    whole = window_probe_tables(ref.codes(), 13, offsets, (7, 9), include_rc=include_rc)
    rows = []
    real_batch = index_mod.murmur3_low64_batch

    def counting_batch(messages, seed):
        rows.append(len(messages))
        return real_batch(messages, seed)

    monkeypatch.setattr(index_mod, "murmur3_low64_batch", counting_batch)
    chunked = window_probe_tables(ref.codes(), 13, offsets, (7, 9), include_rc=include_rc, chunk=16)
    per_call = 4 if include_rc else 8
    assert len(rows) == -(-offsets.size // per_call)
    assert max(rows) <= 16 and sum(rows) == offsets.size * (4 if include_rc else 2)
    for a, b in zip(whole, chunked):
        assert a.tolist() == b.tolist()


def probe_target(ref, k, rng):
    """Forward and reverse-complement copies of reference pieces, a mutated
    copy, unrelated bases and (for even k) a palindrome the reference holds."""
    pieces = [
        random_sequence(int(rng.integers(0, 40)), rng),
        PackedSequence.from_codes(ref.codes()[50 : 50 + 3 * k]),
        reverse_complement_sequence(PackedSequence.from_codes(ref.codes()[300 : 300 + 2 * k])),
        mutate(PackedSequence.from_codes(ref.codes()[:400]), MutationProfile(snp=0.02), rng),
        random_sequence(2 * k, rng),
    ]
    if k % 2 == 0:
        pieces.append(PackedSequence.from_codes(ref.codes()[-k:]))
    return concat_sequences(pieces)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 6, 16, 32, 64]),
    st.sampled_from([1, 3]),
    st.booleans(),
    st.sampled_from([7, index_mod._PROBE_CHUNK]),
    st.integers(0, 2**32 - 1),
)
def test_probe_agrees_with_query(k, stride, use_prefilter, chunk, seed):
    """The array probe gives query's answer and query's counters at every
    position, in chunks of any size."""
    rng = np.random.default_rng(seed)
    ref = random_sequence(702, rng)
    if k % 2 == 0:  # end the reference with a palindrome: forward must win
        half = random_sequence(k // 2, rng)
        ref = concat_sequences([ref, half, reverse_complement_sequence(half)])
    idx = build_index(ref, k, sampling_stride=stride)
    target = probe_target(ref, k, rng)
    codes = target.codes()
    positions = np.arange(0, target.length - k + 1, dtype=np.int64)
    tables = window_probe_tables(codes, k, positions, idx.seeds, include_rc=True)
    with mock.patch.object(index_mod, "_PROBE_CHUNK", chunk):
        found = idx.probe(ref, codes, positions, tables, use_prefilter=use_prefilter)

    expected = QueryStats()
    answers = [
        idx.query(ref, kmer_at(target, int(p), k), use_prefilter=use_prefilter, stats=expected)
        for p in positions
    ]
    assert found.orientation.tolist() == [0 if a is None else a.orientation.value for a in answers]
    assert found.offset.tolist() == [0 if a is None else a.offset for a in answers]
    counted = QueryStats()
    found.count(np.arange(positions.size), counted)
    assert counted == expected
    assert expected.hits > 0
    if k % 2 == 0:
        assert answers[-1].orientation is Orientation.FORWARD


def test_probe_of_no_positions():
    ref = random_sequence(200, np.random.default_rng(17))
    idx = build_index(ref, 16)
    none = np.empty(0, dtype=np.int64)
    found = idx.probe(ref, pack_bases("ACGT").codes(), none, window_probe_tables(
        pack_bases("ACGT").codes(), 16, none, idx.seeds, include_rc=True
    ))
    assert all(column.size == 0 for column in found)


# ------------------------------------------------------------- serialization


def test_save_load_round_trip(tmp_path):
    ref = random_sequence(3000, np.random.default_rng(11))
    idx = build_index(ref, 32, sampling_stride=2)
    path = tmp_path / "x.bidx"
    idx.save(path)
    loaded = ReferenceIndex.load(path)

    assert loaded.k == idx.k
    assert loaded.sampling_stride == idx.sampling_stride
    assert loaded.capacity == idx.capacity
    assert loaded.seeds == idx.seeds
    assert loaded.ref_checksum == sequence_checksum(ref)
    assert (loaded.slots == idx.slots).all()
    assert (loaded.nibbles == idx.nibbles).all()

    # a second save must be bit-identical
    buf = io.BytesIO()
    loaded.save(buf)
    assert buf.getvalue() == path.read_bytes()


def test_load_rejects_garbage(tmp_path):
    ref = random_sequence(200, np.random.default_rng(12))
    idx = build_index(ref, 16)
    buf = io.BytesIO()
    idx.save(buf)
    good = buf.getvalue()

    with pytest.raises(RefpackError, match="too short"):
        ReferenceIndex.load(good[:10])
    with pytest.raises(RefpackError, match="magic"):
        ReferenceIndex.load(b"XXXX" + good[4:])
    with pytest.raises(RefpackError, match="version"):
        ReferenceIndex.load(good[:4] + b"\x02\x00" + good[6:])
    with pytest.raises(RefpackError, match="size"):
        ReferenceIndex.load(good + b"\x00")
    with pytest.raises(RefpackError, match="size"):
        ReferenceIndex.load(good[:-1])


def test_eviction_limit_skip_is_clean(monkeypatch):
    """With an absurdly small eviction budget some keys get skipped, but
    every retained key must stay retrievable and the counts must add up."""
    monkeypatch.setattr(index_mod, "EVICTION_LIMIT", 1)
    rng = np.random.default_rng(13)
    ref = random_sequence(3000, rng)
    k = 24
    idx = build_index(ref, k)
    assert idx.skipped_keys > 0  # collisions are certain at this density

    ref_cb = ref.codes_bytes()
    seen: dict[bytes, int] = {}
    misses = 0
    duplicates = 0
    for off in range(0, ref.length - k + 1):
        key = ref_cb[off : off + k]
        if key in seen:
            duplicates += 1
            continue
        seen[key] = off
        hit = idx.query(ref, kmer_at(ref, off, k))
        if hit is None:
            misses += 1
        else:
            assert ref_cb[hit.offset : hit.offset + k] == key
    assert misses == idx.skipped_keys
    assert idx.occupied + idx.skipped_keys + duplicates == ref.length - k + 1


def repeat_rich_reference(seed):
    rng = np.random.default_rng(seed)
    half = random_sequence(700, rng)
    tandem = concat_sequences([random_sequence(5, rng)] * 30)
    return concat_sequences([half, tandem, half, reverse_complement_sequence(half)])


@pytest.mark.parametrize("k,stride", [(4, 1), (12, 1), (16, 3), (32, 4)])
def test_stores_first_offset_of_every_distinct_kmer(k, stride):
    """Loop oracle: with no skipped key the table holds exactly the first
    offset of each distinct k-mer, with its filter nibble."""
    ref = repeat_rich_reference(14)
    idx = build_index(ref, k, sampling_stride=stride)
    assert idx.skipped_keys == 0
    ref_cb = ref.codes_bytes()
    first: dict[bytes, int] = {}
    for off in range(0, ref.length - k + 1, stride):
        first.setdefault(ref_cb[off : off + k], off)
    held = idx.slots != EMPTY_SLOT
    assert sorted(idx.slots[held].tolist()) == sorted(first.values())
    for slot in np.flatnonzero(held):
        assert idx.nibbles[slot] == kmer_at(ref, int(idx.slots[slot]), k).low4


def test_equal_hashes_never_merge_distinct_kmers(monkeypatch):
    """Every key gets the same (h1, h2): only k-mer bytes tell keys apart."""
    real_tables = index_mod.window_probe_tables

    def colliding_tables(codes, k, offsets, seeds, **kwargs):
        _, _, low4 = real_tables(codes, k, offsets, seeds)
        return (
            np.full(offsets.size, 5, dtype=np.uint64),
            np.full(offsets.size, 11, dtype=np.uint64),
            low4,
        )

    monkeypatch.setattr(index_mod, "window_probe_tables", colliding_tables)
    rng = np.random.default_rng(15)
    half = random_sequence(60, rng)
    ref = concat_sequences([half, half, random_sequence(20, rng)])
    k = 8
    idx = build_index(ref, k)

    ref_cb = ref.codes_bytes()
    attempts = ref.length - k + 1
    distinct = {ref_cb[off : off + k] for off in range(attempts)}
    stored = [ref_cb[off : off + k] for off in idx.slots[idx.slots != EMPTY_SLOT].tolist()]
    assert idx.occupied == 2  # the two slots every key hashes to
    assert len(set(stored)) == len(stored)  # no k-mer stored twice
    duplicates = attempts - len(distinct)
    assert duplicates > 0
    # a distinct k-mer dropped as a duplicate would leave this sum short
    assert idx.occupied + idx.skipped_keys + duplicates == attempts


def test_build_is_deterministic(tmp_path):
    ref = repeat_rich_reference(16)
    first, second = io.BytesIO(), io.BytesIO()
    build_index(ref, 16).save(first)
    build_index(ref, 16).save(second)
    assert first.getvalue() == second.getvalue()

    write_fasta([("chr1", ref)], tmp_path / "ref.fa")
    outs = [tmp_path / "a.bidx", tmp_path / "b.bidx"]
    for out in outs:
        assert main([
            "build-index", "--reference", str(tmp_path / "ref.fa"),
            "--k", "16", "--stride", "2", "--out", str(out),
        ]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
