"""Decoder for grouped token streams.

Each group is a header word of sixteen 2-bit kind codes, slot 0 in the low
bits, followed by its payload words. A verbatim slot holds its S bases packed
2-bit; a match slot copies (or reverse-complements) the K reference bases at
its payload offset; a continuation slot has no payload and advances the last
match's offset by +K (forward) or -K (reverse).

``_walk`` is the one frame and token walk, and two entry points gather its
output. ``decode_group`` gathers with numpy; ``decode_records`` calls it once
for the whole records of ``decompress`` and the container's
``decompress_records``. ``decode_packed`` picks its gather by size; the
container's ``extract_range`` calls it from a chunk-index entry. Decoding
works in three steps:

* frame walk: each group is sized from popcounts of its header's kind bits
  and must fit in the bytes left; decoding stops once a caller that asked for
  a number of bases has them. An extract's groups that end at or before its
  first base are passed over in the same loop by header alone: a group's
  bases are ``n_verbatim * S + (16 - n_verbatim) * K``, and its last match
  and the continuations after it carry the match chain, all from bit
  operations on the header. Orphan continuations raise there as in the token
  walk, but the reference offsets of passed-over matches are not
  range-checked: none of their bases are output, and a decoded continuation
  that inherits a bad offset is still reported;
* token walk: one integer step per token, as in ``compress``, carrying the
  last match across verbatim tokens and groups, resetting it at each stream
  start. Group by group it runs before the next frame is read, so the first
  fault in stream order is the one raised;
* gather, in one of two forms that read the same walk output. The numpy
  form (``decode_group``, and ``decode_packed`` at ``_FEW_TOKENS`` tokens or
  more) gathers the K-base windows of all match tokens from the reference's
  packed bytes (the reference is never unpacked), complements the reverse
  ones, unpacks the verbatim payloads and places all of it into one output
  array. Windows go a chunk at a time, so that no temporary exceeds
  ``_GATHER_BYTES``. The int form (``decode_packed`` when fewer than
  ``_FEW_TOKENS`` tokens overlap the requested range) gathers only those
  tokens: each window from the few reference bytes under it, each payload
  from its words, OR-ed into one Python int, where a numpy call would cost
  more than the bases it moves.

Structural violations raise CorruptStream carrying the group ordinal and slot
index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .compress import GROUP_SLOTS, WORD_BYTES, CompressParams, CompressedStream, TokenKind
from .errors import ChecksumMismatch, CorruptStream
from .sequence import PackedSequence, pack_code_runs, packed_kmers, sequence_checksum, unpack_rows
from .sequence import _pack_code_array, _reverse_complement_int

# (group bytes, group count, ordinal of the first group); the first group is
# a chain-free entry point: a stream start or a chunk-index entry.
Stream = tuple[bytes | memoryview, int, int]
# (group bytes, group count, footer base count) of a whole record.
Record = tuple[bytes | memoryview, int, int]

# Header byte -> the kind codes of its four slots, slot 0 first.
_BYTE_KINDS = [tuple((b >> shift) & 3 for shift in (0, 2, 4, 6)) for b in range(256)]
_VERBATIM, _FORWARD, _CONTINUATION = (
    int(kind) for kind in (TokenKind.VERBATIM, TokenKind.FORWARD_MATCH, TokenKind.CONTINUATION)
)
_EVEN_BITS = 0x55555555
# Windows are gathered in chunks that keep each temporary under this size.
_GATHER_BYTES = 1 << 20
# Bases packed in one payload word.
_WORD_BASES = 4 * WORD_BYTES
# Tokens below which an extract gathers on Python ints (``_gather_int``):
# there the numpy gather costs its per-call overhead, whatever its size. The
# two cross at 55-65 tokens of the benchmark's containers (k=32, s=16).
_FEW_TOKENS = 48


def decode_group(
    streams: Sequence[Stream], reference: PackedSequence, params: CompressParams
) -> list[np.ndarray]:
    """The base codes of each whole stream, every token gathered by numpy."""
    buf, tokens, row_ends, _, _ = _walk(streams, reference, params)
    s = params.s
    out = _gather_codes(reference, buf, tokens, row_ends[-1] if row_ends else 0, params)
    bounds = [0, *row_ends]
    return [out[a * s : b * s] for a, b in zip(bounds, row_ends)]


def decode_packed(
    stream: Stream, reference: PackedSequence, params: CompressParams, *, needed: int, start: int
) -> tuple[tuple[int, int, int], int, tuple[int, int]]:
    """A span of one stream's bases as one packed int, the groups decoded and
    the (groups, bases) skipped before them.

    The groups that end at or before base ``start`` are passed over by header
    alone, and decoding stops at the first group at which the stream holds
    ``needed`` bases, both counted from the stream start. The span is (value,
    first, end): bases ``first`` to ``end`` of the decoded groups, base
    ``first`` in the low bits of ``value``. Under ``_FEW_TOKENS`` tokens in
    ``[start, needed)`` only those are gathered, on Python ints
    (``_gather_int``); at or over it, every decoded token is, by the numpy
    gather.
    """
    buf, tokens, (rows,), walked, skipped = _walk([stream], reference, params, needed, start)
    few = _few_tokens(tokens, start - skipped[1], needed - skipped[1], params)
    if few is not None:
        return _gather_int(reference, buf, tokens, few, params), walked, skipped
    codes = _gather_codes(reference, buf, tokens, rows, params)
    return (int.from_bytes(_pack_code_array(codes), "little"), 0, codes.size), walked, skipped


def _walk(streams, reference, params, needed=None, start=0):
    """The frame walk, with its header skip, and the token walk.

    ``needed`` and ``start`` are an extract's, on a single stream. Returns
    the joined stream bytes, the tokens (window offsets, window rows, reverse
    rows, verbatim payload words, verbatim rows) and each stream's end row;
    and, for that single stream, the groups decoded and the (groups, bases)
    skipped before them.
    """
    k, s = params.k, params.s
    wv = params.words_per_verbatim
    match_rows = k // s  # the output is laid out in rows of s bases
    last_offset = reference.length - k
    # Locals: a global lookup on every token costs about 2% of a full decode.
    verbatim_kind, forward, continuation = _VERBATIM, _FORWARD, _CONTINUATION
    if len(streams) == 1:
        buf = streams[0][0]
    else:  # each stream starts on a word of the joined buffer
        pieces = []
        for data, _, _ in streams:
            pieces += (data, bytes(-len(data) % WORD_BYTES))
        buf = b"".join(pieces)
    words = np.frombuffer(buf, "<u4", count=len(buf) // WORD_BYTES).astype(np.uint32, copy=False)
    if not words.flags.aligned:  # a view of a container at an odd offset
        words = words.copy()
    words = memoryview(words)

    # Offset and output row of each match window, the rows of the reverse
    # ones, and word index and row of each verbatim payload.
    windows: list[int] = []
    window_rows: list[int] = []
    reverse_rows: list[int] = []
    verbatim: list[int] = []
    verbatim_rows: list[int] = []
    row_ends: list[int] = []
    skipping = start >= GROUP_SLOTS * s  # else no group can end by ``start``
    skipped_groups = skipped_bases = 0
    row = first_word = 0
    for data, n_groups, first_group in streams:
        size = len(data)
        stop = first_word + size // WORD_BYTES
        end_group = first_group + n_groups
        pos, first_row = first_word, row
        step = None  # +k or -k from the last match to the next continuation
        for g in range(first_group, end_group):
            if pos >= stop:
                raise CorruptStream("truncated stream: missing group header", group=g)
            header = words[pos]
            # kind_words in bits: wv payload words per verbatim slot (00), one
            # per match slot (01, 10), none per continuation (11).
            low, high = header & _EVEN_BITS, (header >> 1) & _EVEN_BITS
            n_verbatim = GROUP_SLOTS - (low | high).bit_count()
            n_words = 1 + (low ^ high).bit_count() + wv * n_verbatim
            if pos + n_words > stop:
                raise CorruptStream("truncated stream: payload exhausted", group=g)
            if skipping:
                group_bases = n_verbatim * s + (GROUP_SLOTS - n_verbatim) * k
                if skipped_bases + group_bases <= start:
                    # The match chain from the header alone: each match and
                    # each continuation has one bit, at 2 * slot.
                    matches, continuations, used = low ^ high, low & high, low | high
                    if step is None and continuations:
                        first = continuations & -continuations
                        if not matches or first < matches & -matches:
                            raise CorruptStream(
                                "continuation with no preceding match",
                                group=g,
                                slot=first.bit_length() // 2,
                            )
                    if matches:  # the last match restarts the chain
                        last = 1 << (matches.bit_length() - 1)
                        below = last - 1
                        verbatim_below = last.bit_length() // 2 - (used & below).bit_count()
                        at = pos + 1 + (matches & below).bit_count() + wv * verbatim_below
                        offset = words[at]
                        step = k if low & last else -k
                        continuations &= ~below
                    if continuations:
                        offset += step * continuations.bit_count()
                    pos += n_words
                    skipped_groups += 1
                    skipped_bases += group_bases
                    continue
                skipping = False
                first_row -= skipped_bases // s  # ``needed`` counts them too
            pos += 1
            kinds = (
                _BYTE_KINDS[header & 0xFF] + _BYTE_KINDS[(header >> 8) & 0xFF]
                + _BYTE_KINDS[(header >> 16) & 0xFF] + _BYTE_KINDS[header >> 24]
            )
            for slot, kind in enumerate(kinds):
                if kind == verbatim_kind:
                    verbatim.append(pos)
                    verbatim_rows.append(row)
                    pos += wv
                    row += 1
                    continue
                if kind == continuation:
                    if step is None:
                        raise CorruptStream(
                            "continuation with no preceding match", group=g, slot=slot
                        )
                    offset += step
                else:
                    offset = words[pos]
                    pos += 1
                    step = k if kind == forward else -k
                if not 0 <= offset <= last_offset:
                    raise CorruptStream(
                        f"reference offset {offset} out of range for k={k}, "
                        f"reference length {reference.length}",
                        group=g,
                        slot=slot,
                    )
                windows.append(offset)
                window_rows.append(row)
                if step < 0:
                    reverse_rows.append(row)
                row += match_rows
            if needed is not None and (row - first_row) * s >= needed:
                end_group = g + 1  # the groups walked end here
                break
        else:
            if pos != stop or size % WORD_BYTES:
                raise CorruptStream(
                    f"{size - WORD_BYTES * (pos - first_word)} trailing bytes after final group",
                    group=end_group,
                )
        row_ends.append(row)
        first_word += -(-size // WORD_BYTES)
    tokens = (windows, window_rows, reverse_rows, verbatim, verbatim_rows)
    walked = end_group - first_group - skipped_groups if streams else 0
    return buf, tokens, row_ends, walked, (skipped_groups, skipped_bases)


def _few_tokens(tokens, lo, hi, params):
    """The (first, stop) index ranges of the window and verbatim tokens that
    overlap bases [lo, hi), if there are fewer than _FEW_TOKENS; else None."""
    _, window_rows, _, _, verbatim_rows = tokens
    lo, hi = lo // params.s, -(-hi // params.s)  # in rows
    a = bisect_right(window_rows, lo - params.k // params.s)
    b = bisect_left(window_rows, hi, a)
    c = bisect_left(verbatim_rows, lo)
    d = bisect_left(verbatim_rows, hi, c)
    return (a, b, c, d) if 0 < b - a + d - c < _FEW_TOKENS else None


def _gather_int(reference, buf, tokens, ranges, params) -> tuple[int, int, int]:
    """The tokens in ``ranges`` placed on one Python int, and the first and
    end bases they cover.

    A window is read from the ceil((offset % 4 + k) / 4) reference bytes
    under it, which never run past the end, and shifted down by
    2 * (offset % 4); a reverse one is reverse-complemented by byte table
    first. A verbatim payload is read from its words. Each is masked to its
    bases and OR-ed in at 2 * s per row from the first.
    """
    k, s, wv = params.k, params.s, params.words_per_verbatim
    windows, window_rows, reverse_rows, verbatim, verbatim_rows = tokens
    a, b, c, d = ranges
    rows, vrows = window_rows[a:b], verbatim_rows[c:d]
    first = min(rows[:1] + vrows[:1])
    end = max([row + k // s for row in rows[-1:]] + [row + 1 for row in vrows[-1:]])
    data, reverse = reference.data, set(reverse_rows)
    value, mask = 0, (1 << 2 * k) - 1
    for offset, row in zip(windows[a:b], rows):
        piece = data[offset >> 2 : (offset + k + 3) >> 2]
        if row in reverse:
            window = _reverse_complement_int(piece, (offset & 3) + k)
        else:
            window = int.from_bytes(piece, "little") >> 2 * (offset & 3)
        value |= (window & mask) << 2 * s * (row - first)
    mask = (1 << 2 * s) - 1
    for word, row in zip(verbatim[c:d], vrows):
        payload = int.from_bytes(buf[WORD_BYTES * word : WORD_BYTES * (word + wv)], "little")
        value |= (payload & mask) << 2 * s * (row - first)
    return value, first * s, end * s


def _gather_codes(reference, buf, tokens, rows, params) -> np.ndarray:
    """The codes of ``rows`` rows of s bases, every token gathered by numpy."""
    windows, window_rows, reverse_rows, verbatim, verbatim_rows = tokens
    out = np.empty(rows * params.s, dtype=np.uint8)
    _gather_windows(out, reference, windows, window_rows, reverse_rows, params)
    _gather_verbatim(out, buf, verbatim, verbatim_rows, params)
    return out


def _gather_windows(out, reference, windows, rows, reverse_rows, params) -> None:
    """Place the k reference bases at each window offset at its row."""
    k, s = params.k, params.s
    if not windows:
        return
    placed = np.ndarray((out.size // s - k // s + 1, k), np.uint8, out, strides=(s, 1))
    chunk = max(1, _GATHER_BYTES // (k + 8))
    for i in range(0, len(windows), chunk):
        starts = np.array(windows[i : i + chunk], dtype=np.int64)
        placed[rows[i : i + chunk]] = unpack_rows(packed_kmers(reference.data, starts, k))[:, :k]
    for i in range(0, len(reverse_rows), chunk):
        at = reverse_rows[i : i + chunk]
        placed[at] = placed[at, ::-1] ^ 3


def _gather_verbatim(out, buf, verbatim, rows, params) -> None:
    """Place the s bases of each verbatim payload at its row."""
    s, wv = params.s, params.words_per_verbatim
    if not verbatim:
        return
    placed = out.reshape(-1, s)
    # One row of bytes per payload word, base 0 in the low bits of byte 0.
    payload = np.frombuffer(buf, np.uint8, count=len(buf) // WORD_BYTES * WORD_BYTES)
    payload = payload.reshape(-1, WORD_BYTES)
    chunk = max(1, _GATHER_BYTES // (_WORD_BASES * wv + 8))
    for i in range(0, len(verbatim), chunk):
        first = np.array(verbatim[i : i + chunk], dtype=np.int64)
        if wv > 1:
            first = first[:, None] + np.arange(wv)
        placed[rows[i : i + chunk]] = unpack_rows(payload[first].reshape(len(first), -1))[:, :s]


def decode_records(
    records: Sequence[Record],
    reference: PackedSequence,
    params: CompressParams,
    ref_checksum: bytes,
) -> list[PackedSequence]:
    """Decode whole records in one decoder call.

    The records must have been compressed against ``reference``, whose
    checksum is compared once when there is a record to decode. Each record's
    base count must be what its footer declares, up to the padding of its
    final group.
    """
    if not records:
        return []
    if ref_checksum != sequence_checksum(reference):
        raise ChecksumMismatch("stream was compressed against a different reference")
    streams = [(data, n_groups, 0) for data, n_groups, _ in records]
    parts = decode_group(streams, reference, params)
    for (_, _, n_bases), codes in zip(records, parts):
        if codes.size < n_bases:
            raise CorruptStream(f"stream yields {codes.size} bases but footer declares {n_bases}")
        if codes.size - n_bases >= GROUP_SLOTS * params.s:
            raise CorruptStream(
                f"stream yields {codes.size} bases, more than padding allows for "
                f"footer count {n_bases}"
            )
    return pack_code_runs([codes[:n_bases] for (_, _, n_bases), codes in zip(records, parts)])


def decompress(stream: CompressedStream, reference: PackedSequence) -> PackedSequence:
    """Decode a full stream and truncate padding to the footer base count."""
    record = (stream.data, stream.n_groups, stream.n_bases)
    return decode_records([record], reference, stream.params, stream.ref_checksum)[0]
