import io

import numpy as np
import pytest

import refpack.index as index_mod
from refpack import build_index, random_sequence
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
    concat_sequences,
    kmer_at,
    pack_bases,
    reverse_complement_sequence,
    sequence_checksum,
)


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
