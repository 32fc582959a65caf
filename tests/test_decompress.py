import importlib
import io
from unittest import mock

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
    decompress,
    decompress_records,
    encode_groups,
    make_stream,
    mutate,
    random_sequence,
    read_container,
    write_container,
)
from refpack.compress import (
    GROUP_SLOTS,
    SLOT_SHIFTS,
    WORD_BYTES,
    CompressedStream,
    group_count,
)
from refpack.decompress import _FEW_GROUPS as FEW_GROUPS
from refpack.decompress import _GATHER_BYTES as GATHER_BYTES
from refpack.decompress import decode_group, decode_packed
from refpack.errors import ChecksumMismatch, CorruptStream
from refpack.sequence import (
    PackedSequence,
    concat_sequences,
    pack_bases,
    packed_slice,
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
# The per-slot reference decoder: frames are read one
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


def decode_by_slot(data, n_groups, reference, params, *, first_group=0, needed=None, start=0):
    """Base codes and groups decoded from the first group that reaches base
    ``start``, stopping once ``needed`` bases are out; and the (groups,
    bases) before that first group. Every group is decoded in full."""
    last = None
    parts = []
    got = skipped = 0
    for g, header, words in iter_group_frames(data, n_groups, params, first_group=first_group):
        codes, last = decode_one_group(header, words, reference, last, params, group_index=g)
        got += codes.size
        if got <= start:
            skipped += 1
            continue
        parts.append(codes)
        if needed is not None and got >= needed:
            break
    codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
    return codes, len(parts), (skipped, got - codes.size)


# ``_FEW_GROUPS`` values that force the numpy and the int form.
FORMS = (0, 10**9)


def decode_one(
    data, n_groups, reference, params, *, first_group=0, needed=None, start=0, few=0
):
    """``decode_packed`` on a single stream, every decoded group gathered:
    its codes, groups decoded and (groups, bases) skipped. ``few`` is the
    switch between the forms: 0 forces numpy, and a large one the int form,
    which gathers only the range, so only its faults compare."""
    needed = 2**62 if needed is None else needed
    with mock.patch.object(decompress_module, "_FEW_GROUPS", few):
        (value, first, end), groups, skipped = decode_packed(
            (data, n_groups, first_group), reference, params, needed=needed, start=start
        )
    assert first == 0
    return packed_slice(value, 0, end).codes(), groups, skipped


def codes_of(part):
    """The base codes of a stream's packed bytes from ``decode_group``."""
    return PackedSequence(part.tobytes(), 4 * part.size).codes()


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

# (k, s) pairs: one-word (s <= 16) and two-word (s = 32) verbatim payloads,
# and s = 12, whose 3-byte rows are narrower than a payload word and not a
# power of two. Streams decode only when s is a multiple of 4.
KS_PAIRS = [(k, s) for k in (16, 32, 64) for s in (4, 16, 32) if s <= k] + [(48, 12)]


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
    st.integers(0, 6000),
)
def test_decode_group_matches_per_slot_loop(pair, seed, sizes, needed, at_group_end, gather, start):
    """``gather`` shrinks the gather's chunks to one or a few windows."""
    with mock.patch.object(decompress_module, "_GATHER_BYTES", gather or GATHER_BYTES):
        _check_against_per_slot_loop(pair, seed, sizes, needed, at_group_end, start)


def _check_against_per_slot_loop(pair, seed, sizes, needed, at_group_end, start):
    params = CompressParams(k=pair[0], s=pair[1])
    rng = np.random.default_rng(seed)
    reference = random_sequence(int(rng.integers(params.k, 600)), rng)
    streams = []
    for n_tokens in sizes:
        kinds, words = random_tokens(rng, params, reference.length, n_tokens)
        streams.append((encode_groups(kinds, words, params), group_count(kinds.size), 0))
    parts = decode_group(streams, reference, params)
    for (data, n_groups, _), part in zip(streams, parts):
        expected = decode_by_slot(data, n_groups, reference, params)[0]
        assert np.array_equal(codes_of(part), expected)
    # With ``start``, a stream opens at its first group that reaches it.
    for data, n_groups, _ in streams:
        got = decode_one(data, n_groups, reference, params, start=start)
        expected = decode_by_slot(data, n_groups, reference, params, start=start)
        assert np.array_equal(got[0], expected[0]) and got[1:] == expected[1:]
    # An extract decodes one stream from a chain-free entry, skips the groups
    # before its range and stops early.
    data, n_groups, _ = streams[0]
    ranges = [(0, needed), (start, start + needed)]
    if at_group_end:  # exactly the bases of the groups up to some group
        parts = _group_parts(data, n_groups, reference, params)
        group_ends = np.cumsum([part.size for part in parts]).tolist()
        if group_ends:
            i, j = start % len(group_ends), needed % len(group_ends)
            ranges = [(0, group_ends[j]), (group_ends[i], group_ends[max(i, j)])]
    for start, needed in ranges:
        got = decode_one(data, n_groups, reference, params, first_group=7, needed=needed,
                         start=start)
        expected = decode_by_slot(data, n_groups, reference, params, first_group=7,
                                  needed=needed, start=start)
        assert np.array_equal(got[0], expected[0]) and got[1:] == expected[1:]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KS_PAIRS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 160),
    st.integers(0, 4000),
    st.integers(1, 3000),
    st.sampled_from(["numpy", "int", "threshold"]),
)
def test_decode_packed_matches_per_slot_loop(pair, seed, n_tokens, start, length, form):
    """Both gather forms, and the size switch between them, give the bases
    of the per-slot loop; the int form gathers only the tokens that overlap
    the range."""
    params = CompressParams(k=pair[0], s=pair[1])
    few = {"numpy": 0, "int": 10**9, "threshold": FEW_GROUPS}[form]
    rng = np.random.default_rng(seed)
    reference = random_sequence(int(rng.integers(params.k, 600)), rng)
    kinds, words = random_tokens(rng, params, reference.length, n_tokens)
    data, n_groups = encode_groups(kinds, words, params), group_count(kinds.size)
    needed = start + length
    with mock.patch.object(decompress_module, "_FEW_GROUPS", few):
        (value, first, end), *got = decode_packed(
            (data, n_groups, 7), reference, params, needed=needed, start=start
        )
    expected, *counts = decode_by_slot(
        data, n_groups, reference, params, first_group=7, needed=needed, start=start
    )
    assert got == counts
    assert packed_slice(value, 0, end - first).codes().tolist() == expected[first:end].tolist()
    lo, hi = start - counts[1][1], min(needed - counts[1][1], expected.size)
    if lo >= expected.size:  # the range lies past the stream: nothing to gather
        return
    assert first <= lo and end >= hi
    if counts[0] < few:
        assert lo - first < params.k and end - hi < params.k
    else:
        assert (first, end) == (0, expected.size)


@pytest.mark.parametrize("k, s", KS_PAIRS)
def test_gather_forms_read_every_window_offset(k, s):
    """Forward and reverse windows at every offset mod 4 and at the last
    offset of references of every length mod 4, where the window's bytes
    end at the reference's last byte."""
    params = CompressParams(k=k, s=s)
    wv = params.words_per_verbatim
    rng = np.random.default_rng(k * 100 + s)
    vb = (TokenKind.VERBATIM, [0x9E3779B9] * wv)
    for extra in range(4):
        reference = random_sequence(4 * k + 8 + extra, rng)
        last = reference.length - k
        for offset in (0, 1, 2, 3, 5, last - 3, last - 2, last - 1, last):
            for kind in (TokenKind.FORWARD_MATCH, TokenKind.REVERSE_MATCH):
                data, n_groups = _stream_of([vb, (kind, [offset]), vb], params)
                expected = decode_by_slot(data, n_groups, reference, params)[0]
                for few in FORMS:
                    with mock.patch.object(decompress_module, "_FEW_GROUPS", few):
                        (value, first, end), _, _ = decode_packed(
                            (data, n_groups, 0), reference, params, needed=s + 1, start=s
                        )
                    assert (first, end) == ((0, expected.size) if few == 0 else (s, s + k))
                    got = packed_slice(value, 0, end - first).codes()
                    assert got.tolist() == expected[first:end].tolist(), (offset, kind, few)


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
        "orphan before a match": _stream_of([vb] * 18 + [cont, fm(100), cont], params),
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
            for few in FORMS:
                got = fault_of(
                    decode_one, data, n_groups, reference, params, first_group=first_group, few=few
                )
                assert got == expected, (name, few)
    # The first fault in stream order wins over a later framing fault.
    data, n_groups = _crafted_faults(reference, params)["bad offset before truncation"]
    for few in FORMS:
        assert fault_of(decode_one, data, n_groups, reference, params, few=few)[1] == 2


@pytest.mark.parametrize("k, s", [(64, 16), (32, 32)])
def test_crafted_faults_match_per_slot_loop_in_full_decodes(reference, k, s):
    """``decode_group`` raises each crafted fault as the per-slot loop does,
    on its own and after a good stream, whose groups come first; and with
    every group a chunk of its own, so that the groups before a fault hand
    their match chain, or the lack of one, across chunks."""
    params = CompressParams(k=k, s=s)
    cases = _crafted_faults(reference, params)
    good, n_good = _stream_of(
        [(TokenKind.FORWARD_MATCH, [7]), (TokenKind.CONTINUATION, [])], params
    )
    for name, (data, n_groups) in cases.items():
        for first_group in (0, 3):
            expected = fault_of(
                decode_by_slot, data, n_groups, reference, params, first_group=first_group
            )
            bad = (data, n_groups, first_group)
            for streams in ([bad], [(good, n_good, 0), bad]):
                for gather in (GATHER_BYTES, 1):
                    with mock.patch.object(decompress_module, "_GATHER_BYTES", gather):
                        got = fault_of(decode_group, streams, reference, params)
                    assert got == expected, (name, gather)
    data, n_groups = cases["bad offset before truncation"]
    assert fault_of(decode_group, [(data, n_groups, 0)], reference, params)[1] == 2


def _per_slot_streams(streams, reference, params):
    """Each stream's codes by the per-slot loop, or the first stream's fault."""
    parts = []
    for data, n_groups, first_group in streams:
        try:
            codes = decode_by_slot(data, n_groups, reference, params, first_group=first_group)[0]
        except CorruptStream as err:
            return str(err), err.group, err.slot
        parts.append(codes)
    return parts


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KS_PAIRS),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 80), min_size=1, max_size=3),
    st.sampled_from(["flip", "truncate", "append"]),
    st.sampled_from([None, 1]),
)
def test_decode_group_faults_match_per_slot_loop(pair, seed, sizes, mutation, gather):
    """Bit flips, truncations and trailing bytes in one stream of a batch give
    ``decode_group`` the per-slot loop's codes or its fault; ``gather`` makes
    every group a chunk of its own, so that the match chain crosses chunks."""
    params = CompressParams(k=pair[0], s=pair[1])
    rng = np.random.default_rng(seed)
    reference = random_sequence(int(rng.integers(params.k, 600)), rng)
    streams = []
    for n_tokens in sizes:
        kinds, words = random_tokens(rng, params, reference.length, n_tokens)
        streams.append([bytearray(encode_groups(kinds, words, params)), group_count(kinds.size), 0])
    data = streams[int(rng.integers(0, len(streams)))][0]
    for _ in range(int(rng.integers(1, 4))):
        if mutation == "flip" and data:
            bit = int(rng.integers(0, 8 * len(data)))
            data[bit >> 3] ^= 1 << (bit & 7)
        elif mutation == "truncate":
            del data[int(rng.integers(0, len(data) + 1)) :]
        elif mutation == "append":
            data += rng.bytes(int(rng.integers(1, 9)))
    streams = [(bytes(data), n_groups, first) for data, n_groups, first in streams]
    expected = _per_slot_streams(streams, reference, params)
    with mock.patch.object(decompress_module, "_GATHER_BYTES", gather or GATHER_BYTES):
        if isinstance(expected, tuple):
            assert fault_of(decode_group, streams, reference, params) == expected
        else:
            got = [codes_of(part).tolist() for part in decode_group(streams, reference, params)]
            assert got == [part.tolist() for part in expected]


# Faults that the groups skipped before ``start`` raise as the token walk does.
SKIPPED_FAULTS = (
    "orphan continuation",
    "orphan after verbatim",
    "orphan before a match",
    "truncated header",
    "truncated payload",
    "trailing word",
    "trailing bytes",
    "truncated group 5",
)


@pytest.mark.parametrize("k, s", [(64, 16), (32, 32)])
def test_skipped_groups_raise_framing_and_orphan_faults(reference, k, s):
    params = CompressParams(k=k, s=s)
    cases = _crafted_faults(reference, params)
    past_every_group = 10**6
    for name in SKIPPED_FAULTS:
        data, n_groups = cases[name]
        expected = fault_of(decode_one, data, n_groups, reference, params, first_group=3)
        for few in FORMS:
            got = fault_of(
                decode_one, data, n_groups, reference, params, first_group=3,
                start=past_every_group, few=few,
            )
            assert got == expected, (name, few)
    # A bad offset in a skipped group is not reported; the later truncation is.
    data, n_groups = cases["bad offset before truncation"]
    assert "out of range" in fault_of(decode_one, data, n_groups, reference, params)[0]
    message, group, _ = fault_of(
        decode_one, data, n_groups, reference, params, start=past_every_group
    )
    assert "truncated stream" in message and group == 5


def _bad_offset_then(later, kind, params, reference):
    """A stream whose group 0 ends on a match with an out-of-range offset,
    followed by the ``later`` tokens, and the bases of group 0."""
    k, s, wv = params.k, params.s, params.words_per_verbatim
    bad = reference.length - k + 1 + (k if kind == TokenKind.REVERSE_MATCH else 0)
    first = [(TokenKind.VERBATIM, [0x1234] * wv)] * 15 + [(kind, [bad])]
    data, n_groups = _stream_of(first + later, params)
    return data, n_groups, 15 * s + k


@pytest.mark.parametrize("kind", [TokenKind.FORWARD_MATCH, TokenKind.REVERSE_MATCH])
@pytest.mark.parametrize("k, s", [(64, 16), (32, 32)])
def test_skipped_bad_offset_is_passed_over(reference, k, s, kind):
    params = CompressParams(k=k, s=s)
    wv = params.words_per_verbatim
    later = [(TokenKind.FORWARD_MATCH, [100]), (TokenKind.CONTINUATION, [])]
    later += [(TokenKind.VERBATIM, [i] * wv) for i in range(10)]
    later += [(TokenKind.REVERSE_MATCH, [3 * k]), (TokenKind.CONTINUATION, [])]
    data, n_groups, skipped = _bad_offset_then(later, kind, params, reference)
    # The full decode reports the offset ...
    message, group, slot = fault_of(decode_one, data, n_groups, reference, params)
    assert "out of range" in message and (group, slot) == (0, 15)
    # ... an extract past its group gives the later group's bases.
    alone, n_alone = _stream_of(later, params)
    expected = decode_by_slot(alone, n_alone, reference, params)[0]
    for start in (skipped, skipped + 1, skipped + len(expected) - 1):
        got = decode_one(data, n_groups, reference, params, start=start)
        assert np.array_equal(got[0], expected) and got[1:] == (1, (1, skipped))


@pytest.mark.parametrize("kind", [TokenKind.FORWARD_MATCH, TokenKind.REVERSE_MATCH])
@pytest.mark.parametrize("k, s", [(64, 16), (32, 32)])
def test_continuation_of_skipped_bad_offset_raises(reference, k, s, kind):
    params = CompressParams(k=k, s=s)
    later = [(TokenKind.CONTINUATION, []), (TokenKind.VERBATIM, [0] * params.words_per_verbatim)]
    data, n_groups, skipped = _bad_offset_then(later, kind, params, reference)
    # One step on from the bad offset: +k forward, -k reverse.
    inherited = reference.length + 1 - (k if kind == TokenKind.REVERSE_MATCH else 0)
    for few in FORMS:
        assert fault_of(decode_one, data, n_groups, reference, params, few=few)[1:] == (0, 15)
        message, group, slot = fault_of(
            decode_one, data, n_groups, reference, params, start=skipped, few=few
        )
        assert f"reference offset {inherited} out of range" in message and (group, slot) == (1, 0)


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


def test_decode_leaves_reference_packed(reference, index64, params, forbid_unpack):
    target = mutate(reference, MutationProfile(snp=0.02), np.random.default_rng(3))
    with forbid_unpack():
        res = compress(reverse_complement_sequence(target), index64, reference, params)
        got = decompress(make_stream(res, params, index64.ref_checksum), reference)
        assert got == reverse_complement_sequence(target)


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


@pytest.mark.parametrize("n_bases", [241, 242, 243])
def test_pad_bits_past_the_footer_count_are_zeroed(reference, params, n_bases):
    """Payload bits past the footer count, in the record's last byte, do not
    reach the output, whose constructor rejects nonzero pad bits."""
    kinds = np.zeros(GROUP_SLOTS, dtype=np.uint8)
    words = np.full(GROUP_SLOTS, 0xFFFFFFFF, dtype="<u4")
    data = encode_groups(kinds, words, params)
    buf = io.BytesIO()
    result = CompressResult(kinds, words, n_bases)
    write_container([("r", result)], params, sequence_checksum(reference), buf)
    box = read_container(buf.getvalue())
    expected = PackedSequence.from_codes(np.full(n_bases, 3, dtype=np.uint8))
    for seq in (
        decompress(_stream(data, 1, n_bases, reference, params), reference),
        decompress_records(box, box.records, reference)[0],
    ):
        assert seq == expected
        assert PackedSequence(seq.data, seq.length) == expected


def test_decoding_needs_a_stride_that_is_a_multiple_of_4(reference):
    """Decoded rows are whole packed bytes, so a stream at another s is
    refused; ``compress`` still tokenizes at it, as the sweep does."""
    ref = PackedSequence.from_codes(reference.codes()[:3_000])
    index = build_index(ref, 30)
    target = mutate(ref, MutationProfile(snp=0.01), np.random.default_rng(4))
    for s in (5, 15):
        params = CompressParams(k=30, s=s)
        result = compress(target, index, ref, params)
        assert result.n_bases == target.length
        stream = make_stream(result, params, index.ref_checksum)
        with pytest.raises(ValueError, match="multiple of 4"):
            decompress(stream, ref)
        with pytest.raises(ValueError, match="multiple of 4"):
            decode_packed((stream.data, stream.n_groups, 0), ref, params, needed=1, start=0)


def test_decompress_empty_stream(reference, params):
    out = decompress(_stream(b"", 0, 0, reference, params), reference)
    assert out == pack_bases("")
