import importlib
from unittest import mock

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
from refpack.compress import SLOT_SHIFTS, WORD_BYTES, CompressedStream, group_count
from refpack.decompress import _GATHER_BYTES as GATHER_BYTES
from refpack.decompress import decode_group
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


decompress_module = importlib.import_module("refpack.decompress")


# ------------------------------------------------------------------ oracle
# The per-slot decoder that ``decode_group`` replaced: frames are read one
# group at a time and each group is decoded slot by slot from
# ``reference.codes()``. Differential tests require equal bases and equal
# faults from the two.


def split_header(header):
    """The sixteen 2-bit kind codes of a group header, slot 0 first."""
    return ((np.uint32(header) >> SLOT_SHIFTS) & 3).astype(np.uint8)


def iter_group_frames(data, n_groups, params, *, first_group=0):
    """Yield (group_ordinal, header, payload_words); the bytes must end after the last group."""
    pos = 0
    size = len(data)
    for g in range(first_group, first_group + n_groups):
        if pos + WORD_BYTES > size:
            raise CorruptStream("truncated stream: missing group header", group=g)
        header = int.from_bytes(data[pos : pos + WORD_BYTES], "little")
        pos += WORD_BYTES
        n_words = int(params.kind_words[split_header(header)].sum())
        end = pos + n_words * WORD_BYTES
        if end > size:
            raise CorruptStream("truncated stream: payload exhausted", group=g)
        words = np.frombuffer(data, dtype="<u4", count=n_words, offset=pos)
        pos = end
        yield g, header, words
    if pos != size:
        raise CorruptStream(
            f"{size - pos} trailing bytes after final group", group=first_group + n_groups
        )


def decode_one_group(header, payload, reference, last, params, *, group_index=0):
    """One group's base codes and the (kind, offset) of its last match."""
    k, s = params.k, params.s
    wv = params.words_per_verbatim
    kinds = split_header(header)
    ref_codes = reference.codes()
    counts = params.kind_words[kinds]
    n_words = int(counts.sum())
    if payload.size != n_words:
        raise CorruptStream(
            f"payload holds {payload.size} words, header requires {n_words}",
            group=group_index,
        )
    first_word = (np.cumsum(counts) - counts).tolist()
    verbatim_codes = ((payload[:, None] >> SLOT_SHIFTS) & 3).astype(np.uint8)
    chunks = []
    for slot, kind in enumerate(kinds.tolist()):
        wi = first_word[slot]
        if kind == TokenKind.VERBATIM:
            chunks.append(verbatim_codes[wi : wi + wv].reshape(-1)[:s])
            continue
        if kind == TokenKind.CONTINUATION:
            if last is None:
                raise CorruptStream(
                    "continuation with no preceding match", group=group_index, slot=slot
                )
            kind, offset = last
            offset += k if kind == TokenKind.FORWARD_MATCH else -k
        else:
            offset = int(payload[wi])
        if offset < 0 or offset + k > reference.length:
            raise CorruptStream(
                f"reference offset {offset} out of range for k={k}, "
                f"reference length {reference.length}",
                group=group_index,
                slot=slot,
            )
        window = ref_codes[offset : offset + k]
        if kind == TokenKind.REVERSE_MATCH:
            window = (window[::-1]) ^ 3
        chunks.append(window)
        last = (kind, offset)
    return np.concatenate(chunks).astype(np.uint8, copy=False), last


def decode_by_slot(data, n_groups, reference, params, *, first_group=0, needed=None):
    """Base codes and groups decoded, stopping once ``needed`` bases are out."""
    last = None
    parts = []
    got = 0
    for g, header, words in iter_group_frames(data, n_groups, params, first_group=first_group):
        codes, last = decode_one_group(header, words, reference, last, params, group_index=g)
        parts.append(codes)
        got += codes.size
        if needed is not None and got >= needed:
            break
    codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
    return codes, len(parts)


def decode_one(data, n_groups, reference, params, *, first_group=0, needed=None):
    """``decode_group`` on a single stream."""
    (codes,), (groups,) = decode_group(
        [(data, n_groups, first_group)], reference, params, needed=needed
    )
    return codes, groups


def fault_of(decode, *args, **kwargs):
    """The CorruptStream a decode raises, as comparable fields."""
    with pytest.raises(CorruptStream) as err:
        decode(*args, **kwargs)
    return str(err.value), err.value.group, err.value.slot


# ------------------------------------------------------------------ low level


def test_split_header_golden():
    kinds = split_header(0xFFFFFFFD)
    assert kinds[0] == TokenKind.FORWARD_MATCH
    assert (kinds[1:] == TokenKind.CONTINUATION).all()


def test_decode_group_payload_count_mismatch(reference, params):
    header = (TokenKind.FORWARD_MATCH << 0) | (TokenKind.FORWARD_MATCH << 2)
    with pytest.raises(CorruptStream, match="payload holds"):
        decode_one_group(header, np.array([0], dtype="<u4"), reference, None, params)
    # In a stream the header sizes the group, so a short payload is a
    # truncation to both decoders.
    data = header.to_bytes(4, "little") + bytes(4)
    assert fault_of(decode_one, data, 1, reference, params) == fault_of(
        decode_by_slot, data, 1, reference, params
    )


def test_decode_group_continuation_without_state(reference, params):
    header = int(TokenKind.CONTINUATION)
    with pytest.raises(CorruptStream, match="no preceding match") as err:
        decode_one_group(header, np.zeros(15, dtype="<u4"), reference, None, params, group_index=3)
    assert "group 3, slot 0" in str(err.value)
    data = header.to_bytes(4, "little") + bytes(15 * WORD_BYTES)
    message, group, slot = fault_of(decode_one, data, 1, reference, params, first_group=3)
    assert "no preceding match" in message and (group, slot) == (3, 0)


def test_decode_group_offset_out_of_range(reference, params):
    header = int(TokenKind.FORWARD_MATCH)
    payload = np.array([reference.length - 10], dtype="<u4")
    payload = np.concatenate([payload, np.zeros(15, dtype="<u4")])
    with pytest.raises(CorruptStream, match="out of range"):
        decode_one_group(int(header), payload, reference, None, params)
    data = header.to_bytes(4, "little") + payload.tobytes()
    message, group, slot = fault_of(decode_one, data, 1, reference, params)
    assert "out of range" in message and (group, slot) == (0, 0)


def _all_verbatim_group(params):
    return encode_groups(np.zeros(16, dtype=np.uint8), np.zeros(16, dtype="<u4"), params)


def test_iter_group_frames_truncation(reference, params):
    data = _all_verbatim_group(params)
    for decode in (decode_by_slot, decode_one):
        with pytest.raises(CorruptStream, match="missing group header"):
            decode(data[:2], 1, reference, params)
        with pytest.raises(CorruptStream, match="payload exhausted"):
            decode(data[:-4], 1, reference, params)
        with pytest.raises(CorruptStream, match="trailing bytes"):
            decode(data + b"\x00\x00\x00\x00", 1, reference, params)
    # a mid-stream entry numbers its groups from the entry's ordinal
    frames = list(iter_group_frames(data, 1, params, first_group=5))
    assert [g for g, _, _ in frames] == [5]
    assert fault_of(decode_one, data[:-4], 1, reference, params, first_group=5)[1] == 5


# ------------------------------------------------------------------ differential

# (k, s) pairs: one-word (s <= 16) and two-word (s = 32) verbatim payloads.
KS_PAIRS = [(k, s) for k in (16, 32, 64) for s in (4, 16, 32) if s <= k]


def random_tokens(rng, params, ref_len, n_tokens):
    """Kinds and payload words of a decodable stream.

    Continuations run chains across groups and verbatim runs; reverse
    matches often start at a multiple of k, so that their chains reach
    offset 0, and forward ones near the end of the reference.
    """
    k, wv = params.k, params.words_per_verbatim
    last_offset = ref_len - k
    kinds, words = [], []
    last = None  # (kind, offset)
    for _ in range(n_tokens):
        r = rng.random()
        if last is not None and r < 0.45:
            kind, offset = last
            offset += k if kind == TokenKind.FORWARD_MATCH else -k
            if 0 <= offset <= last_offset:
                kinds.append(TokenKind.CONTINUATION)
                last = (kind, offset)
                continue
        if r < 0.7:
            kinds.append(TokenKind.VERBATIM)
            # stray high bits of a short payload must be ignored
            words.extend(rng.integers(0, 2**32, wv).tolist())
            continue
        kind = TokenKind.FORWARD_MATCH if rng.random() < 0.5 else TokenKind.REVERSE_MATCH
        if rng.random() < 0.5:
            offset = int(rng.integers(0, last_offset + 1))
        elif kind == TokenKind.REVERSE_MATCH:
            offset = k * int(rng.integers(0, min(4, last_offset // k + 1)))
        else:
            offset = last_offset - k * int(rng.integers(0, min(4, last_offset // k + 1)))
        kinds.append(kind)
        words.append(offset)
        last = (kind, offset)
    return np.array(kinds, dtype=np.uint8), np.array(words, dtype="<u4")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KS_PAIRS),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 120), min_size=1, max_size=4),
    st.integers(0, 3000),
    st.booleans(),
    st.sampled_from([None, 1, 300]),
)
def test_decode_group_matches_per_slot_loop(pair, seed, sizes, needed, at_group_end, gather):
    """``gather`` shrinks the gather's chunks to one or a few windows."""
    with mock.patch.object(decompress_module, "_GATHER_BYTES", gather or GATHER_BYTES):
        _check_against_per_slot_loop(pair, seed, sizes, needed, at_group_end)


def _check_against_per_slot_loop(pair, seed, sizes, needed, at_group_end):
    params = CompressParams(k=pair[0], s=pair[1])
    rng = np.random.default_rng(seed)
    reference = random_sequence(int(rng.integers(params.k, 600)), rng)
    streams = []
    for n_tokens in sizes:
        kinds, words = random_tokens(rng, params, reference.length, n_tokens)
        streams.append((encode_groups(kinds, words, params), group_count(kinds.size), 0))
    parts, walked = decode_group(streams, reference, params)
    for (data, n_groups, _), codes, groups in zip(streams, parts, walked):
        expected, _ = decode_by_slot(data, n_groups, reference, params)
        assert np.array_equal(codes, expected)
        assert groups == n_groups
    # An extract decodes one stream from a chain-free entry and stops early.
    data, n_groups, _ = streams[0]
    if at_group_end:  # exactly the bases of the groups up to some group
        parts = _group_parts(data, n_groups, reference, params)
        group_ends = np.cumsum([part.size for part in parts])
        needed = int(group_ends[needed % group_ends.size]) if group_ends.size else needed
    got = decode_one(data, n_groups, reference, params, first_group=7, needed=needed)
    expected = decode_by_slot(data, n_groups, reference, params, first_group=7, needed=needed)
    assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


def _group_parts(data, n_groups, reference, params):
    """Each group's base codes, by the per-slot loop."""
    parts, last = [], None
    for g, header, words in iter_group_frames(data, n_groups, params):
        codes, last = decode_one_group(header, words, reference, last, params, group_index=g)
        parts.append(codes)
    return parts


def _stream_of(tokens, params):
    """Encoded groups of (kind, payload words) tokens, and the group count."""
    kinds = np.array([kind for kind, _ in tokens], dtype=np.uint8)
    words = np.array([w for _, ws in tokens for w in ws], dtype="<u4")
    return encode_groups(kinds, words, params), group_count(kinds.size)


def _group_offset(data, group, params):
    """Byte offset of a group's header."""
    pos = 0
    for _ in range(group):
        header = int.from_bytes(data[pos : pos + WORD_BYTES], "little")
        pos += WORD_BYTES * (1 + int(params.kind_words[split_header(header)].sum()))
    return pos


def _crafted_faults(reference, params):
    k = params.k
    last_offset = reference.length - k
    vb = (TokenKind.VERBATIM, [0] * params.words_per_verbatim)
    fm = lambda offset: (TokenKind.FORWARD_MATCH, [offset])  # noqa: E731
    rm = lambda offset: (TokenKind.REVERSE_MATCH, [offset])  # noqa: E731
    cont = (TokenKind.CONTINUATION, [])
    good, n_good = _stream_of([vb] * 20 + [fm(100), cont, cont] + [vb] * 30 + [fm(5)], params)
    at5 = _group_offset(good + good, 5, params)
    bad_offset, _ = _stream_of([vb] * 35 + [fm(last_offset + 1)] + [vb] * 60, params)
    cases = {
        "orphan continuation": _stream_of([cont], params),
        "orphan after verbatim": _stream_of([vb] * 21 + [cont], params),
        "offset past the end": _stream_of([vb] * 19 + [fm(last_offset + 1)], params),
        "chain past the end": _stream_of([vb] * 3 + [fm(last_offset - k), cont, cont], params),
        "reverse chain below 0": _stream_of(
            [rm(2 * k)] + [vb] * 20 + [cont, cont, vb, cont], params
        ),
        "truncated header": (good[: _group_offset(good, n_good - 1, params) + 2], n_good),
        "truncated payload": (good[:-4], n_good),
        "trailing word": (good + bytes(4), n_good),
        "trailing bytes": (good + bytes(3), n_good),
        "bad offset before truncation": (bad_offset[: _group_offset(bad_offset, 5, params) + 6], 6),
        "truncated group 5": ((good + good)[: at5 + 2], 6),
    }
    return cases


@pytest.mark.parametrize("k, s", [(64, 16), (32, 32)])
def test_crafted_faults_match_per_slot_loop(reference, k, s):
    params = CompressParams(k=k, s=s)
    for name, (data, n_groups) in _crafted_faults(reference, params).items():
        for first_group in (0, 3):
            expected = fault_of(
                decode_by_slot, data, n_groups, reference, params, first_group=first_group
            )
            got = fault_of(decode_one, data, n_groups, reference, params, first_group=first_group)
            assert got == expected, name
    # The first fault in stream order wins over a later framing fault.
    data, n_groups = _crafted_faults(reference, params)["bad offset before truncation"]
    assert fault_of(decode_one, data, n_groups, reference, params)[1] == 2


def test_batched_streams_start_without_a_match(reference, params):
    ends_on_match, n_first = _stream_of(
        [(TokenKind.VERBATIM, [0])] * 15 + [(TokenKind.FORWARD_MATCH, [64])], params
    )
    opens_with_continuation, n_second = _stream_of(
        [(TokenKind.VERBATIM, [0])] * 2 + [(TokenKind.CONTINUATION, [])], params
    )
    streams = [(ends_on_match, n_first, 0), (opens_with_continuation, n_second, 0)]
    with pytest.raises(CorruptStream, match="no preceding match") as err:
        decode_group(streams, reference, params)
    assert (err.value.group, err.value.slot) == (0, 2)


def test_decode_leaves_reference_packed(reference, index64, params):
    target = mutate(reference, MutationProfile(snp=0.02), np.random.default_rng(3))
    res = compress(reverse_complement_sequence(target), index64, reference, params)
    fresh = PackedSequence(reference.data, reference.length)
    got = decompress(make_stream(res, params, index64.ref_checksum), fresh)
    assert got == reverse_complement_sequence(target)
    assert fresh._codes is None


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
