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
    decompress,
    encode_groups,
    make_stream,
    mutate,
    random_sequence,
)
from refpack.compress import GROUP_SLOTS, CompressedStream, group_count
from refpack.decompress import decode_group, iter_group_frames, split_header
from refpack.errors import ChecksumMismatch, CorruptStream
from refpack.sequence import (
    PackedSequence,
    concat_sequences,
    pack_bases,
    reverse_complement_sequence,
    sequence_checksum,
)


def naive_reconstruct(result, reference, params):
    """Token-walk oracle: rebuild the target directly from token semantics."""
    out = []
    ref = reference.codes()
    words = result.words.tolist()
    wv = params.words_per_verbatim
    wi = 0
    last = None  # (orientation_is_forward, offset)
    for kind in result.kinds.tolist():
        if kind == TokenKind.VERBATIM:
            value = sum(word << (32 * j) for j, word in enumerate(words[wi : wi + wv]))
            wi += wv
            out.extend((value >> (2 * j)) & 3 for j in range(params.s))
        else:
            if kind == TokenKind.FORWARD_MATCH:
                fwd, off = True, words[wi]
                wi += 1
            elif kind == TokenKind.REVERSE_MATCH:
                fwd, off = False, words[wi]
                wi += 1
            else:
                fwd, off = last
                off = off + params.k if fwd else off - params.k
            window = ref[off : off + params.k]
            out.extend(window if fwd else (window[::-1] ^ 3))
            last = (fwd, off)
    assert wi == len(words)
    return np.array(out, dtype=np.uint8)


def round_trip(target, index, reference, params, **kw):
    res = compress(target, index, reference, params, **kw)
    stream = make_stream(res, params, index.ref_checksum)
    got = decompress(stream, reference)

    # cross-check the streaming decoder against the token-walk oracle
    oracle = naive_reconstruct(res, reference, params)[: res.n_bases]
    assert np.array_equal(got.codes(), oracle)
    return got


def test_identity_round_trip(reference, index64, params):
    assert round_trip(reference, index64, reference, params) == reference


def test_empty_round_trip(reference, index64, params):
    assert round_trip(pack_bases(""), index64, reference, params) == pack_bases("")


@pytest.mark.parametrize("snp", [0.001, 0.01, 0.05, 0.10])
def test_mutated_round_trips(reference, index64, params, snp):
    rng = np.random.default_rng(int(snp * 10_000))
    target = mutate(reference, MutationProfile(snp=snp, insertion=snp / 4, deletion=snp / 4), rng)
    assert round_trip(target, index64, reference, params) == target


def test_reverse_complement_round_trip(reference, index64, params):
    target = reverse_complement_sequence(reference)
    assert round_trip(target, index64, reference, params) == target


def test_unrelated_round_trip(reference, index64, params):
    target = random_sequence(5000, np.random.default_rng(42))
    assert round_trip(target, index64, reference, params) == target


def test_spliced_round_trip(reference, index64, params):
    rng = np.random.default_rng(17)
    pieces = []
    for _ in range(12):
        start = int(rng.integers(0, reference.length - 500))
        piece = PackedSequence.from_codes(reference.codes()[start : start + 500])
        if rng.random() < 0.5:
            piece = reverse_complement_sequence(piece)
        pieces.append(piece)
    target = concat_sequences(pieces)
    assert round_trip(target, index64, reference, params) == target


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_round_trip_property(reference, index64, data):
    params = CompressParams(k=64, s=16)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 700))
    source = data.draw(st.sampled_from(["slice", "mutated", "random"]))
    if source == "slice" and n:
        start = int(rng.integers(0, reference.length - n)) if n < reference.length else 0
        target = PackedSequence.from_codes(reference.codes()[start : start + n])
    elif source == "mutated" and n:
        base = PackedSequence.from_codes(reference.codes()[:n])
        target = mutate(base, MutationProfile(snp=0.05, insertion=0.01, deletion=0.01), rng)
    else:
        target = random_sequence(n, rng)
    assert round_trip(target, index64, reference, params) == target


def test_break_every_groups_round_trip(reference, index64, params):
    rng = np.random.default_rng(23)
    target = mutate(reference, MutationProfile(snp=0.02), rng)
    assert round_trip(target, index64, reference, params, break_every_groups=4) == target


def test_wide_stride_round_trip(reference):
    # width-generalized encoding (s=32 -> two words per verbatim)
    params = CompressParams(k=64, s=32)
    idx = build_index(reference, 64)
    rng = np.random.default_rng(5)
    target = mutate(reference, MutationProfile(snp=0.03), rng)
    res = compress(target, idx, reference, params)
    stream = make_stream(res, params, idx.ref_checksum)
    assert decompress(stream, reference) == target
    assert np.array_equal(naive_reconstruct(res, reference, params)[: res.n_bases], target.codes())


# ------------------------------------------------------------------ low level


def test_split_header_golden():
    kinds = split_header(0xFFFFFFFD)
    assert kinds[0] == TokenKind.FORWARD_MATCH
    assert (kinds[1:] == TokenKind.CONTINUATION).all()


def test_decode_group_payload_count_mismatch(reference, params):
    header = (TokenKind.FORWARD_MATCH << 0) | (TokenKind.FORWARD_MATCH << 2)
    with pytest.raises(CorruptStream, match="payload holds"):
        decode_group(header, np.array([0], dtype="<u4"), reference, None, params)


def test_decode_group_continuation_without_state(reference, params):
    header = int(TokenKind.CONTINUATION)
    err = None
    with pytest.raises(CorruptStream, match="no preceding match") as err:
        decode_group(header, np.zeros(15, dtype="<u4"), reference, None, params, group_index=3)
    assert "group 3, slot 0" in str(err.value)


def test_decode_group_offset_out_of_range(reference, params):
    header = int(TokenKind.FORWARD_MATCH)
    payload = np.array([reference.length - 10], dtype="<u4")
    payload = np.concatenate([payload, np.zeros(15, dtype="<u4")])
    with pytest.raises(CorruptStream, match="out of range"):
        decode_group(int(header), payload, reference, None, params)


def _all_verbatim_group(params):
    return encode_groups(np.zeros(16, dtype=np.uint8), np.zeros(16, dtype="<u4"), params)


def test_iter_group_frames_truncation(params):
    data = _all_verbatim_group(params)
    with pytest.raises(CorruptStream, match="missing group header"):
        list(iter_group_frames(data[:2], 1, params))
    with pytest.raises(CorruptStream, match="payload exhausted"):
        list(iter_group_frames(data[:-4], 1, params))
    with pytest.raises(CorruptStream, match="trailing bytes"):
        list(iter_group_frames(data + b"\x00\x00\x00\x00", 1, params))
    # a mid-stream entry numbers its groups from the entry's ordinal
    frames = list(iter_group_frames(data, 1, params, first_group=5))
    assert [g for g, _, _ in frames] == [5]


def test_decompress_wrong_checksum(reference, index64, params):
    res = compress(reference, index64, reference, params)
    stream = make_stream(res, params, b"\x00" * 32)
    with pytest.raises(ChecksumMismatch):
        decompress(stream, reference)


def _stream(data, n_groups, n_bases, reference, params):
    return CompressedStream(
        data=data,
        n_groups=n_groups,
        n_bases=n_bases,
        k=params.k,
        s=params.s,
        ref_checksum=sequence_checksum(reference),
    )


def test_decompress_underrun(reference, index64, params):
    res = compress(reference, index64, reference, params)
    good = make_stream(res, params, index64.ref_checksum)
    # a footer count beyond what the tokens can ever yield must error out
    # (counts within the final group's padding window are indistinguishable
    #  from padding by design and are caught by container CRCs instead)
    bad = _stream(good.data, good.n_groups, 10**9, reference, params)
    with pytest.raises(CorruptStream, match="footer declares"):
        decompress(bad, reference)


def test_decompress_overshoot_window(reference, params):
    # one all-verbatim group decodes 256 raw bases; a footer count of 0 means
    # even full padding cannot explain them
    data = _all_verbatim_group(params)
    bad = _stream(data, 1, 0, reference, params)
    with pytest.raises(CorruptStream, match="more than padding allows"):
        decompress(bad, reference)
    # but 241 bases (15 tokens of padding + one partial) is legitimate
    ok = _stream(data, 1, 241, reference, params)
    assert decompress(ok, reference).length == 241


def test_decompress_empty_stream(reference, params):
    out = decompress(_stream(b"", 0, 0, reference, params), reference)
    assert out == pack_bases("")
