import io
import tracemalloc
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
    ref_cb = ref.codes().tobytes()
    for off in range(0, ref.length - 24 + 1, 97):
        hit = idx.query(ref, kmer_at(ref, off, 24))
        assert hit is not None
        assert hit.orientation is Orientation.FORWARD
        # any offset holding identical bases is a correct answer
        assert ref_cb[hit.offset : hit.offset + 24] == ref_cb[off : off + 24]


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
    """Every key's slots and nibble are the scalar hash of its k-mer, at
    strides 1-5, at every k % 4 and on both strands of the reference."""
    rng = np.random.default_rng(10)
    forward = random_sequence(203, rng)
    mask = (1 << 32) - 1
    cases = [(ref, k, stride) for ref in (forward, reverse_complement_sequence(forward))
             for k in (20, 21, 22, 23) for stride in (1, 2, 3, 4, 5)]
    for ref, k, stride in cases:
        count = (ref.length - k) // stride + 1
        slot_a, slot_b, low4 = window_probe_tables(ref.data, k, stride, count, (7, 9), mask)
        assert slot_a.dtype == slot_b.dtype == np.uint32 and slot_a.size == count
        for i in range(count):
            km = kmer_at(ref, i * stride, k)
            assert slot_a[i] == index_mod.murmur3_low64(km.bytes_le(), 7) & mask
            assert slot_b[i] == index_mod.murmur3_low64(km.bytes_le(), 9) & mask
            assert low4[i] == km.low4


@pytest.mark.parametrize("reverse", [False, True])
def test_window_probe_tables_one_hash_call_per_chunk(monkeypatch, reverse):
    """Both seeds share one hash call of at most ``chunk`` rows; chunking
    does not change the tables, on either strand of the reference."""
    ref = random_sequence(300, np.random.default_rng(18))
    if reverse:
        ref = reverse_complement_sequence(ref)
    count = 94  # offsets 0, 3, ..., 279
    whole = window_probe_tables(ref.data, 13, 3, count, (7, 9), 1023)
    rows = []
    real_batch = index_mod.murmur3_low64_batch

    def counting_batch(messages, seed):
        rows.append(len(messages))
        return real_batch(messages, seed)

    monkeypatch.setattr(index_mod, "murmur3_low64_batch", counting_batch)
    chunked = window_probe_tables(ref.data, 13, 3, count, (7, 9), 1023, chunk=16)
    assert len(rows) == -(-count // 8)
    assert max(rows) <= 16 and sum(rows) == count * 2
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
    positions = np.arange(0, target.length - k + 1, dtype=np.int64)
    with mock.patch.object(index_mod, "_PROBE_CHUNK", chunk):
        found = idx.probe(ref, target.data, positions, use_prefilter=use_prefilter)

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
    found = idx.probe(ref, pack_bases("ACGT").data, none)
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

    ref_cb = ref.codes().tobytes()
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


@pytest.mark.parametrize("limit", [1, 2, 5, 500])
def test_few_claim_rounds_place_as_numpy_rounds(monkeypatch, limit):
    """Rounds on Python ints for the last pending keys leave the table, nibbles
    and skip count exactly as numpy rounds to the end would, whichever round
    the switch falls in and whether or not the eviction limit is reached."""
    rng = np.random.default_rng(17)
    cases = [(random_sequence(n, rng), 10) for n in (300, 3000, 20000)]
    # 1,024 keys in 2,048 slots, one of which is still pending after 500 rounds
    cases.append((random_sequence(1039, np.random.default_rng(10)), 16))
    layouts = {}
    for few in (0, index_mod._FEW_CLAIMS, 1 << 32):
        monkeypatch.setattr(index_mod, "_FEW_CLAIMS", few)
        monkeypatch.setattr(index_mod, "EVICTION_LIMIT", limit)
        layouts[few] = []
        for ref, k in cases:
            buf = io.BytesIO()
            idx = build_index(ref, k)
            idx.save(buf)
            layouts[few].append((idx.skipped_keys, buf.getvalue()))
    assert layouts[0] == layouts[index_mod._FEW_CLAIMS] == layouts[1 << 32]
    assert any(skipped for skipped, _ in layouts[0])


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
    ref_cb = ref.codes().tobytes()
    first: dict[bytes, int] = {}
    for off in range(0, ref.length - k + 1, stride):
        first.setdefault(ref_cb[off : off + k], off)
    held = idx.slots != EMPTY_SLOT
    assert sorted(idx.slots[held].tolist()) == sorted(first.values())
    for slot in np.flatnonzero(held):
        assert idx.nibbles[slot] == kmer_at(ref, int(idx.slots[slot]), k).low4


def test_equal_hashes_never_merge_distinct_kmers(monkeypatch):
    """Every key gets the same two slots: only k-mer bytes tell keys apart."""
    real_tables = index_mod.window_probe_tables

    def colliding_tables(data, k, stride, count, seeds, mask, **kwargs):
        _, _, low4 = real_tables(data, k, stride, count, seeds, mask)
        return (
            np.full(count, 5, dtype=np.uint32),
            np.full(count, 11, dtype=np.uint32),
            low4,
        )

    monkeypatch.setattr(index_mod, "window_probe_tables", colliding_tables)
    rng = np.random.default_rng(15)
    half = random_sequence(60, rng)
    ref = concat_sequences([half, half, random_sequence(20, rng)])
    k = 8
    idx = build_index(ref, k)

    ref_cb = ref.codes().tobytes()
    attempts = ref.length - k + 1
    distinct = {ref_cb[off : off + k] for off in range(attempts)}
    stored = [ref_cb[off : off + k] for off in idx.slots[idx.slots != EMPTY_SLOT].tolist()]
    assert idx.occupied == 2  # the two slots every key hashes to
    assert len(set(stored)) == len(stored)  # no k-mer stored twice
    duplicates = attempts - len(distinct)
    assert duplicates > 0
    # a distinct k-mer dropped as a duplicate would leave this sum short
    assert idx.occupied + idx.skipped_keys + duplicates == attempts


def test_build_peak_memory_per_key():
    """A 1 Mbp build at k=32 peaks at no more than 36.5 bytes a key, what
    the build that sorted every claim round needed. The finished table
    holds about 10.5."""
    ref = random_sequence(1_000_000, np.random.default_rng(1))
    k = 32
    tracemalloc.start()
    try:
        index = build_index(ref, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.skipped_keys == 0
    assert peak / (ref.length - k + 1) <= 36.5


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
