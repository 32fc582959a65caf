import io
from importlib import import_module

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
    compress_records,
    compression_ratio,
    encode_groups,
    make_stream,
    mutate,
    random_sequence,
)
import refpack.index as index_mod
from refpack.compress import (
    GROUP_SLOTS,
    RecordResults,
    encode_records,
    encoded_sizes,
    group_count,
)
from refpack.container import build_chunk_index
from refpack.decompress import decompress
from refpack.errors import ChecksumMismatch
from refpack.index import EMPTY_SLOT, Orientation, QueryStats, ReferenceIndex, window_probe_tables
from refpack.sequence import (
    PackedSequence,
    concat_sequences,
    kmer_at,
    pack_bases,
    reverse_complement_sequence,
    sequence_checksum,
)


def test_build_compress_query_leave_sequences_packed(reference, params, forbid_unpack):
    """Every k-mer is read from the packed bytes: no step unpacks the
    reference or the target."""
    target = mutate(reference, MutationProfile(snp=0.01), np.random.default_rng(4))
    with forbid_unpack():
        index = build_index(reference, params.k)
        result = compress(target, index, reference, params)
        stream = make_stream(result, params, sequence_checksum(reference))
        assert decompress(stream, reference) == target
        kmer = kmer_at(reference, 1_000, params.k)
        hit = index.query(reference, kmer)
        assert hit is not None and kmer_at(reference, hit.offset, params.k) == kmer
        index.query(reference, kmer_at(target, 0, params.k).reverse_complement())  # hit or miss


def test_params_validation():
    with pytest.raises(ValueError):
        CompressParams(k=64, s=0)
    with pytest.raises(ValueError):
        CompressParams(k=8, s=16)
    with pytest.raises(ValueError, match="divide"):
        CompressParams(k=64, s=24)
    assert CompressParams(k=64, s=16).words_per_verbatim == 1
    assert CompressParams(k=64, s=32).words_per_verbatim == 2
    assert CompressParams(k=64, s=4).words_per_verbatim == 1
    assert CompressParams().container_compatible
    assert not CompressParams(k=64, s=32).container_compatible


def test_token_base_length(params):
    # Indexed by kind code: verbatim, forward, reverse, continuation.
    assert params.kind_bases.tolist() == [16, 64, 64, 64]
    assert params.kind_words.tolist() == [1, 1, 1, 0]
    assert CompressParams(k=64, s=64).kind_words.tolist() == [4, 1, 1, 0]


def _kinds(*kinds):
    return np.array(kinds, dtype=np.uint8)


def _words(*words):
    return np.array(words, dtype="<u4")


def test_group_count():
    assert [group_count(n) for n in (0, 1, 16, 17, 32)] == [0, 1, 1, 2, 2]


# ---------------------------------------------------------- frozen group math


def test_all_verbatim_group_is_68_bytes(params):
    data = encode_groups(_kinds(*[TokenKind.VERBATIM] * GROUP_SLOTS), _words(*[0] * 16), params)
    assert len(data) == 68  # 4-byte header + 16 one-word payloads
    assert data[:4] == b"\x00\x00\x00\x00"


def test_match_plus_continuations_group_is_8_bytes(params):
    kinds = _kinds(TokenKind.FORWARD_MATCH, *[TokenKind.CONTINUATION] * 15)
    data = encode_groups(kinds, _words(0), params)
    assert len(data) == 8
    assert int.from_bytes(data[:4], "little") == 0xFFFFFFFD
    # 16 tokens x 64 bases from 8 bytes = 128x
    assert (16 * 64) / len(data) == 128.0


def test_partial_group_padded_with_verbatim(params):
    data = encode_groups(_kinds(TokenKind.FORWARD_MATCH), _words(5), params)
    # header + match word + 15 padding verbatim words
    assert len(data) == 4 + 4 + 15 * 4
    header = int.from_bytes(data[:4], "little")
    assert header & 0b11 == TokenKind.FORWARD_MATCH
    assert header >> 2 == 0  # padding is verbatim (code 00)
    assert data[8:] == b"\x00" * 60


def test_wide_verbatim_words():
    params = CompressParams(k=64, s=32)
    kinds = _kinds(*[TokenKind.VERBATIM] * GROUP_SLOTS)
    data = encode_groups(kinds, _words(*[3, 1 << 31] * GROUP_SLOTS), params)
    assert len(data) == 4 + 16 * 8
    assert data[4:12] == ((1 << 63) | 3).to_bytes(8, "little")


def test_encode_rejects_mismatched_payload(params):
    with pytest.raises(ValueError, match="payload words"):
        encode_groups(_kinds(TokenKind.FORWARD_MATCH), _words(), params)
    with pytest.raises(ValueError, match="payload words"):
        encode_groups(_kinds(TokenKind.CONTINUATION), _words(7), params)


def encode_groups_reference(kinds, words, params):
    """Token-by-token encoder: the reference for the array version."""
    wv = params.words_per_verbatim
    kinds = kinds.tolist() + [TokenKind.VERBATIM] * ((-kinds.size) % GROUP_SLOTS)
    words = words.tolist() + [0] * wv * GROUP_SLOTS
    out = bytearray()
    wi = 0
    for g in range(0, len(kinds), GROUP_SLOTS):
        header = 0
        payload = bytearray()
        for i, kind in enumerate(kinds[g : g + GROUP_SLOTS]):
            header |= kind << (2 * i)
            n = wv if kind == TokenKind.VERBATIM else int(kind != TokenKind.CONTINUATION)
            for word in words[wi : wi + n]:
                payload += word.to_bytes(4, "little")
            wi += n
        out += header.to_bytes(4, "little") + payload
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 70), st.sampled_from([4, 8, 16, 32, 64]), st.integers(0, 2**32 - 1))
def test_encode_groups_matches_reference(n, s, seed):
    params = CompressParams(k=64, s=s)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(4, n, p=rng.dirichlet(np.ones(4))).astype(np.uint8)
    words = rng.integers(0, 2**32, int(params.kind_words[kinds].sum())).astype("<u4")
    data = encode_groups(kinds, words, params)
    assert data == encode_groups_reference(kinds, words, params)
    assert encoded_sizes([kinds], params).tolist() == [len(data)]


def test_compression_ratio():
    assert compression_ratio(256, 68) == pytest.approx(3.7647, abs=1e-4)
    with pytest.raises(ValueError):
        compression_ratio(10, 0)
    with pytest.raises(ValueError):
        compression_ratio(-1, 10)


# ----------------------------------------------------------------- tokenizing


def test_self_compression_is_single_chain(reference, index64, params):
    res = compress(reference, index64, reference, params)
    counts = res.kind_counts()
    assert counts[TokenKind.FORWARD_MATCH] == 1
    assert res.kinds[0] == TokenKind.FORWARD_MATCH and res.words[0] == 0
    assert counts[TokenKind.REVERSE_MATCH] == 0
    # tail shorter than k (30000 % 64 == 48) falls back to verbatim strides
    assert counts[TokenKind.VERBATIM] == 3
    assert counts[TokenKind.CONTINUATION] == 30_000 // 64 - 1
    assert res.n_bases == reference.length


def test_reverse_segment_chains_with_decreasing_offsets(reference, index64, params):
    k = 64
    segment_codes = reference.codes()[1024 : 1024 + 4 * k]
    target = reverse_complement_sequence(
        concat_sequences([pack_bases(""), _from_codes(segment_codes)])
    )
    res = compress(target, index64, reference, params)
    assert res.kinds.tolist() == [TokenKind.REVERSE_MATCH] + [TokenKind.CONTINUATION] * 3
    # the reverse match stores the forward-oriented offset of its last k-mer
    assert res.words.tolist() == [1024 + 3 * k]


def _from_codes(codes):
    from refpack.sequence import PackedSequence

    return PackedSequence.from_codes(codes)


def test_verbatim_payload_bits(reference, index64):
    params = CompressParams(k=64, s=16)
    target = pack_bases("ACGT" * 4)  # 16 bases, shorter than k
    res = compress(target, index64, reference, params)
    assert res.kinds.tolist() == [TokenKind.VERBATIM]
    assert res.words.tolist() == [int.from_bytes(b"\xe4" * 4, "little")]


def test_mutation_break_resumes_with_fresh_match(reference, index64, params):
    codes = reference.codes()[:4096].copy()
    codes[2048] ^= 1  # single SNP mid-sequence
    res = compress(_from_codes(codes), index64, reference, params)
    kinds = res.kinds.tolist()
    assert TokenKind.VERBATIM in kinds
    after = kinds[kinds.index(TokenKind.VERBATIM) + 1 :]
    # once past the damaged stride the chain re-seeds with a forward match
    assert TokenKind.FORWARD_MATCH in after


def test_continuation_survives_verbatim_gap(reference, index64, params):
    # insert k bases of junk between two reference-adjacent runs: the second
    # run still lands on the remembered expected offset, so the chain resumes
    # as a continuation even though verbatim tokens intervened
    k = 64
    ref_codes = reference.codes()
    rng = np.random.default_rng(0)
    target = np.concatenate(
        [
            ref_codes[:k],
            rng.integers(0, 4, k, dtype=np.uint8),
            ref_codes[k : 2 * k],
        ]
    )
    res = compress(_from_codes(target), index64, reference, params)
    assert res.kinds.tolist() == (
        [TokenKind.FORWARD_MATCH]
        + [TokenKind.VERBATIM] * 4
        + [TokenKind.CONTINUATION]
    )
    # an in-place replacement instead breaks the chain: the resumed match's
    # offset has moved past the remembered one, so it re-seeds
    replaced = np.concatenate(
        [
            ref_codes[:k],
            rng.integers(0, 4, k, dtype=np.uint8),
            ref_codes[2 * k : 3 * k],
        ]
    )
    res2 = compress(_from_codes(replaced), index64, reference, params)
    assert res2.kinds.tolist() == (
        [TokenKind.FORWARD_MATCH]
        + [TokenKind.VERBATIM] * 4
        + [TokenKind.FORWARD_MATCH]
    )
    assert res2.words[-1] == 2 * k


def test_break_every_groups_clears_state(reference, index64, params):
    res = compress(
        reference, index64, reference, params, break_every_groups=1
    )
    # at every 16-token boundary the chain restarts: a match, not continuation
    assert (res.kinds[::GROUP_SLOTS] != TokenKind.CONTINUATION).all()
    # so every group boundary is a chunk-index entry point
    ci = build_chunk_index([res.kinds], 1, params)[0]
    assert len(ci.entries) == group_count(res.kinds.size)
    assert ci.base_offsets[0] == 0
    assert ci.base_offsets == tuple(sorted(ci.base_offsets))


def test_compress_wrong_reference_checksum(reference, index64, params):
    other = random_sequence(1000, np.random.default_rng(99))
    with pytest.raises(ChecksumMismatch):
        compress(other, index64, other, params)


def test_compress_k_mismatch(reference, index64):
    with pytest.raises(ValueError, match="does not match index"):
        compress(reference, index64, reference, CompressParams(k=32, s=16))


def test_compress_collects_stats(reference, index64, params):
    stats = QueryStats()
    compress(reference, index64, reference, params, stats=stats)
    assert stats.hits == 30_000 // 64
    assert stats.probes >= stats.hits


def test_empty_target(reference, index64, params):
    res = compress(pack_bases(""), index64, reference, params)
    assert res.kinds.size == res.words.size == res.n_bases == 0
    assert encode_groups(res.kinds, res.words, params) == b""


def test_make_stream_metadata(reference, index64, params):
    res = compress(reference, index64, reference, params)
    stream = make_stream(res, params, index64.ref_checksum)
    assert stream.n_bases == reference.length
    assert stream.n_groups == group_count(res.kinds.size)
    assert stream.params == params
    assert len(stream.data) % 4 == 0


# ------------------------------------------------- per-position loop oracle


def compress_by_position(target, index, reference, params, *, use_prefilter=True,
                         break_every_groups=None, stats=None):
    """The per-position tokenizer: one scalar ``query`` at each position the
    greedy scan visits. The reference for ``compress``'s array probe."""
    k, s = params.k, params.s
    codes = target.codes().tolist()
    kinds, words = [], []
    orientation = expected = None
    break_tokens = GROUP_SLOTS * break_every_groups if break_every_groups else 0
    p = 0
    while p < target.length:
        if break_tokens and len(kinds) % break_tokens == 0:
            orientation = expected = None
        cand = None
        if p <= target.length - k:
            cand = index.query(reference, kmer_at(target, p, k), use_prefilter=use_prefilter,
                               stats=stats)
        if cand is None:
            value = sum(code << (2 * j) for j, code in enumerate(codes[p : p + s]))
            kinds.append(TokenKind.VERBATIM)
            words += [(value >> (32 * w)) & 0xFFFFFFFF for w in range(params.words_per_verbatim)]
            p += s
            continue
        o = cand.offset
        if orientation == cand.orientation and expected == o:
            kinds.append(TokenKind.CONTINUATION)
        else:
            kinds.append(TokenKind.FORWARD_MATCH if cand.orientation == Orientation.FORWARD
                         else TokenKind.REVERSE_MATCH)
            words.append(o)
        if cand.orientation == Orientation.FORWARD:
            orientation, expected = Orientation.FORWARD, o + k
        elif o >= k:
            orientation, expected = Orientation.REVERSE, o - k
        else:
            orientation = expected = None
        p += k
    return kinds, words


def oracle_target(reference, rng):
    """Forward and reverse copies (one reaching offset 0), a mutated copy and
    unrelated bases, ending off the stride grid."""
    ref = reference.codes()
    return concat_sequences([
        PackedSequence.from_codes(ref[1000:1700]),
        reverse_complement_sequence(PackedSequence.from_codes(ref[:300])),
        random_sequence(150, rng),
        mutate(PackedSequence.from_codes(ref[5000:7000]),
               MutationProfile(snp=0.01, insertion=0.002, deletion=0.002), rng),
        reverse_complement_sequence(PackedSequence.from_codes(ref[9000:9500])),
        PackedSequence.from_codes(ref[-203:]),
    ])


@pytest.fixture(scope="module")
def index32(reference):
    return build_index(reference, 32)


def edge_targets(reference, k):
    """A copy whose last window starts exactly at length - k, and a reverse
    chain that ends at offset 0 followed by a fresh reverse match at offset k,
    which must not read as a continuation."""
    ref = reference.codes()
    return [
        PackedSequence.from_codes(ref[2000 : 2000 + 8 * k]),
        concat_sequences([
            reverse_complement_sequence(PackedSequence.from_codes(ref[: 2 * k])),
            reverse_complement_sequence(PackedSequence.from_codes(ref[k : 2 * k])),
        ]),
    ]


@pytest.mark.parametrize("s", [4, 16, 32])
@pytest.mark.parametrize("break_every_groups", [None, 1])
@pytest.mark.parametrize("use_prefilter", [True, False])
def test_compress_matches_per_position_loop(reference, index32, s, break_every_groups,
                                            use_prefilter):
    params = CompressParams(k=32, s=s)
    targets = [oracle_target(reference, np.random.default_rng(s))] + edge_targets(reference, 32)
    for target in targets:
        stats, expected_stats = QueryStats(), QueryStats()
        res = compress(target, index32, reference, params, use_prefilter=use_prefilter,
                       break_every_groups=break_every_groups, stats=stats)
        kinds, words = compress_by_position(target, index32, reference, params,
                                            use_prefilter=use_prefilter,
                                            break_every_groups=break_every_groups,
                                            stats=expected_stats)
        assert res.kinds.tolist() == kinds
        assert res.words.tolist() == words
        assert stats == expected_stats
    assert {TokenKind.CONTINUATION, TokenKind.REVERSE_MATCH, TokenKind.VERBATIM} <= set(
        compress(targets[0], index32, reference, params).kinds.tolist()
    )


def test_crafted_offsets_near_reference_end(reference, index32):
    """A .bidx whose slots hold offsets at and past length - k, with matching
    nibbles, must neither index past the reference nor decode wrongly."""
    k = 32
    params = CompressParams(k=k, s=16)
    target = oracle_target(reference, np.random.default_rng(3))
    positions = np.arange(0, target.length - k + 1, params.s, dtype=np.int64)
    h1f, _, low4f = window_probe_tables(target.data, k, positions, index32.seeds)
    # The reverse complement of the k-mer at ``p`` starts at n - k - p of the
    # reverse-complemented target.
    _, h2r, low4r = window_probe_tables(
        reverse_complement_sequence(target).data, k, target.length - k - positions, index32.seeds
    )
    last = reference.length - k
    bad = np.array([last, last + 1, reference.length - 1, reference.length, EMPTY_SLOT - 1])
    slots, nibbles = index32.slots.copy(), index32.nibbles.copy()
    for i, (hf, hr) in enumerate(zip(h1f.tolist(), h2r.tolist())):
        slots[hf & index32._mask] = bad[i % bad.size]
        nibbles[hf & index32._mask] = low4f[i]
        slots[hr & index32._mask] = bad[(i + 2) % bad.size]
        nibbles[hr & index32._mask] = low4r[i]
    crafted = ReferenceIndex(
        k=k, sampling_stride=1, capacity=index32.capacity, seeds=index32.seeds,
        ref_checksum=index32.ref_checksum, slots=slots, nibbles=nibbles,
    )
    blob = io.BytesIO()
    crafted.save(blob)
    loaded = ReferenceIndex.load(blob.getvalue())
    assert (loaded.slots > last).any()

    stats, expected_stats = QueryStats(), QueryStats()
    res = compress(target, loaded, reference, params, stats=stats)
    assert (res.kinds.tolist(), res.words.tolist()) == compress_by_position(
        target, loaded, reference, params, stats=expected_stats
    )
    assert stats == expected_stats
    assert decompress(make_stream(res, params, loaded.ref_checksum), reference) == target


def test_index_longer_than_reference_k():
    """A crafted index whose k exceeds its reference's length: every probe
    fails, counted as query counts it, and the target round-trips."""
    short = pack_bases("ACGTTGCAAC")
    k = 16
    target = random_sequence(70, np.random.default_rng(4))
    nibbles = np.arange(64, dtype=np.uint8) % 16  # every nibble value occurs
    crafted = ReferenceIndex(
        k=k, sampling_stride=1, capacity=64, seeds=(3, 5),
        ref_checksum=sequence_checksum(short),
        slots=np.zeros(64, dtype=np.uint32), nibbles=nibbles,
    )
    params = CompressParams(k=k, s=16)
    stats, expected_stats = QueryStats(), QueryStats()
    res = compress(target, crafted, short, params, stats=stats)
    assert (res.kinds.tolist(), res.words.tolist()) == compress_by_position(
        target, crafted, short, params, stats=expected_stats
    )
    assert stats == expected_stats and stats.hits == 0 and stats.verify_failures > 0
    assert decompress(make_stream(res, params, crafted.ref_checksum), short) == target


def mixed_records(reference, k, rng):
    """Empty records, records shorter than k and of exactly k and k + 1 bases,
    lengths on and off multiples of 4 (the last verbatim window of a record
    whose length is a multiple of 4 ends at its last byte), long records, and
    records that go on where the one before them left off in the reference,
    on either strand, so a record whose match state leaked into the next
    would read a continuation."""
    ref = reference.codes()
    records = [
        pack_bases(""),
        PackedSequence.from_codes(ref[4000 : 4000 + 2 * k]),
        PackedSequence.from_codes(ref[4000 + 2 * k : 4000 + 4 * k]),
        reverse_complement_sequence(PackedSequence.from_codes(ref[4200 : 4200 + 2 * k])),
        reverse_complement_sequence(PackedSequence.from_codes(ref[4200 - 2 * k : 4200])),
    ]
    for n in (1, 3, k - 1, k, k + 1, k + 2, k + 3, k + 4, 2 * k + 5, 200, 203):
        start = int(rng.integers(0, reference.length - n))
        piece = PackedSequence.from_codes(ref[start : start + n])
        records.append(piece if n % 2 else reverse_complement_sequence(piece))
    records += [
        pack_bases(""),
        oracle_target(reference, rng),
        random_sequence(97, rng),
        mutate(PackedSequence.from_codes(ref[3000:9000]), MutationProfile(snp=0.02), rng),
        pack_bases(""),
    ]
    return records + edge_targets(reference, k)


@pytest.mark.parametrize("s", [4, 16, 32])
@pytest.mark.parametrize("break_every_groups", [None, 1])
@pytest.mark.parametrize("use_prefilter", [True, False])
@pytest.mark.parametrize("chunk", [7, index_mod._PROBE_CHUNK])
def test_compress_records_matches_per_record(reference, index32, s, break_every_groups,
                                             use_prefilter, chunk, monkeypatch):
    """One probe over a batch of records gives each record's own tokens and
    charges the same probes, also when a probe chunk ends inside a record
    and when the records go through in many batches."""
    monkeypatch.setattr(index_mod, "_PROBE_CHUNK", chunk)
    params = CompressParams(k=32, s=s)
    records = mixed_records(reference, 32, np.random.default_rng(s))
    options = dict(use_prefilter=use_prefilter, break_every_groups=break_every_groups)
    stats = QueryStats()
    batched = compress_records(records, index32, reference, params, stats=stats, **options)
    assert len(batched) == len(records)
    expected_stats, oracle_stats = QueryStats(), QueryStats()
    for target, res in zip(records, batched):
        one = compress(target, index32, reference, params, stats=expected_stats, **options)
        assert res.kinds.tolist() == one.kinds.tolist()
        assert res.words.tolist() == one.words.tolist()
        assert res.n_bases == one.n_bases == target.length
        assert (res.kinds.tolist(), res.words.tolist()) == compress_by_position(
            target, index32, reference, params, stats=oracle_stats, **options
        )
    assert stats == expected_stats == oracle_stats
    assert compress_records([], index32, reference, params) == []


# The package's ``compress`` function hides the module of that name.
compress_mod = import_module("refpack.compress")


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_compress_records_batches_by_probe_chunk(reference, index32, chunk, monkeypatch):
    """The records of a batch start within one probe chunk of windows, so a
    batch's per-window arrays cover at most a chunk plus its last record."""
    monkeypatch.setattr(index_mod, "_PROBE_CHUNK", chunk)
    batches = []
    real = compress_mod._compress_batch

    def spy(targets, *args):
        batches.append([target.length for target in targets])
        return real(targets, *args)

    monkeypatch.setattr(compress_mod, "_compress_batch", spy)
    params = CompressParams(k=32, s=16)
    records = mixed_records(reference, 32, np.random.default_rng(11))
    results = compress_records(records, index32, reference, params)
    assert [n for batch in batches for n in batch] == [t.length for t in records]
    assert len(results) == len(records) and len(batches) > 1
    for lengths in batches:
        windows = [(n + params.s - 1) // params.s for n in lengths]
        assert sum(windows[:-1]) < chunk


def test_compress_takes_a_sequence_of_targets(reference, index32):
    """``compress`` of several targets is ``compress_records`` of them, and the
    ``RecordResults`` count the kinds of every record."""
    params = CompressParams(k=32, s=16)
    records = mixed_records(reference, 32, np.random.default_rng(9))
    stats, expected_stats = QueryStats(), QueryStats()
    many = compress(records, index32, reference, params, break_every_groups=1, stats=stats)
    one_by_one = [
        compress(t, index32, reference, params, break_every_groups=1, stats=expected_stats)
        for t in records
    ]
    assert isinstance(many, RecordResults) and stats == expected_stats
    assert [r.kinds.tolist() for r in many] == [r.kinds.tolist() for r in one_by_one]
    assert [r.words.tolist() for r in many] == [r.words.tolist() for r in one_by_one]
    totals = {kind: 0 for kind in TokenKind}
    for result in one_by_one:
        for kind, n in result.kind_counts().items():
            totals[kind] += n
    assert many.kind_counts() == {kind: n for kind, n in totals.items() if n}
    assert compress([], index32, reference, params).kind_counts() == {}


def test_encode_records_matches_encode_groups(reference, index32):
    params = CompressParams(k=32, s=16)
    results = compress_records(
        mixed_records(reference, 32, np.random.default_rng(5)), index32, reference, params
    )
    encoded = encode_records(results, params)
    assert encoded == [encode_groups(r.kinds, r.words, params) for r in results]
    sizes = encoded_sizes([r.kinds for r in results], params).tolist()
    assert sizes == [len(data) for data in encoded]
    assert encode_records([], params) == []
    bad = [results[1], CompressResult(results[2].kinds, results[2].words[:-1], 0)]
    with pytest.raises(ValueError, match="record 1: token kinds require"):
        encode_records(bad, params)
