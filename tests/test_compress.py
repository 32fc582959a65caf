import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refpack import (
    CompressParams,
    MutationProfile,
    TokenKind,
    build_index,
    compress,
    compression_ratio,
    encode_groups,
    make_stream,
    mutate,
    random_sequence,
)
from refpack.compress import GROUP_SLOTS, encoded_size, group_count
from refpack.container import build_chunk_index
from refpack.errors import ChecksumMismatch
from refpack.index import Orientation, QueryStats
from refpack.sequence import concat_sequences, pack_bases, reverse_complement_sequence


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
    assert encoded_size(kinds, params) == len(data)


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
    ci = build_chunk_index(res.kinds, 1, params)
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
