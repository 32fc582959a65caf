"""Decoder for grouped token streams.

Each group is a header word of sixteen 2-bit kind codes, slot 0 in the low
bits, followed by its payload words. A verbatim slot holds its S bases packed
2-bit; a match slot copies (or reverse-complements) the K reference bases at
its payload offset; a continuation slot has no payload and advances the last
match's offset by +K (forward) or -K (reverse).

``_walk`` is the one frame walk, and two entry points expand and gather the
groups it frames. ``decode_group`` does it with numpy; ``decode_records``
calls it once for the whole records of ``decompress`` and the container's
``decompress_records``, and cuts each record from its stream's packed bytes.
``decode_packed`` picks its form by size; the container's ``extract_range``
calls it from a chunk-index entry. Decoding works in three steps:

* frame walk: one Python step per group, reading header words straight from
  the stream bytes. Each group is sized from popcounts of its header's kind
  bits, its bases are ``n_verbatim * S + (16 - n_verbatim) * K``, and it
  must fit in the bytes left; the walk records its header's word position
  and first output row, and stops once a caller that asked for a number of
  bases has them. An extract's groups that end at or before its first base
  are passed over by header alone: their last match and the continuations
  after it carry the match chain into the first decoded group, from bit
  operations on the header. Orphan continuations raise there; the reference
  offsets of passed-over matches are not range-checked, since none of their
  bases are output, but a decoded continuation that inherits a bad offset is
  still reported. A framing fault stops the walk and is held, not raised, so
  that a token fault in an earlier group wins over it;
* token expansion, in one of two forms. The numpy form (``decode_group``,
  and ``decode_packed`` at ``_FEW_GROUPS`` decoded groups or more) expands
  the framed groups a chunk at a time: kinds from shifts of the headers,
  payload words and rows from cumulative sums of the words and rows of each
  kind, match offsets from one gather, and each continuation's offset as its
  last match's plus ``step ×`` the continuations since; orphans and
  out-of-range offsets are masks, and the first in stream order is raised.
  The int form (``_gather_int``, under ``_FEW_GROUPS`` decoded groups)
  walks the few groups slot by slot, one integer step per token;
* gather, straight into 2-bit packed bytes: a row of S bases is S / 4
  bytes, so S must be a multiple of 4. The numpy form gathers the K / 4
  packed bytes of every match and continuation window from the reference's
  packed bytes (the reference is never unpacked), reverse-complements the
  reverse ones as packed rows, and places them and the first S / 4 bytes of
  each verbatim payload as they are into one packed output buffer, with no
  unpack and no repack; chunks keep each temporary under ``_GATHER_BYTES``.
  The int form gathers only the tokens that overlap the requested range:
  each window from the few reference bytes under it, each payload from its
  words, OR-ed into one Python int, where a numpy call would cost more than
  the bases it moves.

Structural violations raise CorruptStream carrying the group ordinal and slot
index.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .compress import GROUP_SLOTS, SLOT_SHIFTS, WORD_BYTES, CompressParams, CompressedStream
from .compress import TokenKind
from .errors import ChecksumMismatch, CorruptStream
from .sequence import PackedSequence, packed_kmers, reverse_complement_rows, sequence_checksum
from .sequence import _reverse_complement_int

# (group bytes, group count, ordinal of the first group); the first group is
# a chain-free entry point: a stream start or a chunk-index entry.
Stream = tuple[bytes | memoryview, int, int]
# (group bytes, group count, footer base count) of a whole record.
Record = tuple[bytes | memoryview, int, int]

# Header byte -> the kind codes of its four slots, slot 0 first.
_BYTE_KINDS = [tuple((b >> shift) & 3 for shift in (0, 2, 4, 6)) for b in range(256)]
_VERBATIM, _FORWARD, _REVERSE, _CONTINUATION = (int(kind) for kind in TokenKind)
_EVEN_BITS = 0x55555555
# Windows are gathered in chunks that keep each temporary under this size.
_GATHER_BYTES = 1 << 20
# Bytes of index temporaries per slot of an expanded group, besides its
# window or payload bytes.
_SLOT_BYTES = 48
# Bases in a sequence's last byte, when not 4 -> the mask of their bits.
_TAIL_MASKS = np.array([0xFF, 0x03, 0x0F, 0x3F], dtype=np.uint8)
# Decoded groups below which an extract expands and gathers on Python ints
# (``_gather_int``): there the numpy form costs its per-call overhead,
# whatever its size. The two cross at 11-12 groups of the benchmark's
# containers (k=32, s=16).
_FEW_GROUPS = 12


class _Frames(NamedTuple):
    """What the frame walk read of the groups it decoded."""

    buf: bytes | memoryview  # the stream bytes, each stream starting on a word
    words: Sequence[int]  # its whole words (``_words``)
    heads: list[int]  # word position of each group's header
    rows: list[int]  # output row of each group's first slot, then the end row
    starts: list[tuple[int, int]]  # (index into heads, ordinal) of each stream's first
    chain: tuple[int, int] | None  # (offset, step) that the header skip carries in
    skipped: tuple[int, int]  # (groups, bases) that the header skip passed over
    fault: CorruptStream | None  # the framing fault that stopped the walk

    def fault_at(self, i: int, slot: int, message: str) -> CorruptStream:
        """A token fault at slot ``slot`` of decoded group ``i``."""
        at, ordinal = self.starts[bisect_right(self.starts, (i, sys.maxsize)) - 1]
        return CorruptStream(message, group=ordinal + i - at, slot=slot)


def decode_group(
    streams: Sequence[Stream], reference: PackedSequence, params: CompressParams
) -> list[np.ndarray]:
    """The 2-bit packed bytes of each whole stream, every group expanded and
    gathered by numpy; s must be a multiple of 4 (else ``ValueError``)."""
    frames = _walk(streams, params)
    out = _gather_packed(reference, frames, params)
    row_bytes, rows = params.s // 4, frames.rows
    bounds = [rows[i] for i, _ in frames.starts] + [rows[-1]]
    return [out[a * row_bytes : b * row_bytes] for a, b in zip(bounds, bounds[1:])]


def decode_packed(
    stream: Stream, reference: PackedSequence, params: CompressParams, *, needed: int, start: int
) -> tuple[tuple[int, int, int], int, tuple[int, int]]:
    """A span of one stream's bases as one packed int, the groups decoded and
    the (groups, bases) skipped before them.

    The groups that end at or before base ``start`` are passed over by header
    alone, and decoding stops at the first group at which the stream holds
    ``needed`` bases, both counted from the stream start. The span is (value,
    first, end): bases ``first`` to ``end`` of the decoded groups, base
    ``first`` in the low bits of ``value``. Under ``_FEW_GROUPS`` decoded
    groups, they are walked slot by slot and only the tokens that overlap
    ``[start, needed)`` are gathered, on Python ints (``_gather_int``); at or
    over it, every decoded token is, by the numpy gather into packed bytes.
    s must be a multiple of 4 (else ``ValueError``).
    """
    frames = _walk([stream], params, needed, start)
    walked, skipped = len(frames.heads), frames.skipped
    if walked < _FEW_GROUPS:
        span = _gather_int(reference, frames, start - skipped[1], needed - skipped[1], params)
        return span, walked, skipped
    data = _gather_packed(reference, frames, params)
    return (int.from_bytes(data, "little"), 0, 4 * data.size), walked, skipped


def _words(buf) -> Sequence[int]:
    """The whole words of ``buf`` as ints, read in place on a little-endian
    host (a cast view reads a word wherever it sits in memory)."""
    view = memoryview(buf)
    if len(view) % WORD_BYTES:
        view = view[: len(view) - len(view) % WORD_BYTES]
    if sys.byteorder == "little":
        return view.cast("I")
    return np.frombuffer(view, "<u4").tolist()


def _walk(streams, params, needed=None, start=0) -> _Frames:
    """The frame walk, with its header skip.

    ``needed`` and ``start`` are an extract's, on a single stream. Records
    the header position and first output row of every group it decodes, and
    holds the first framing fault instead of raising it; the groups before
    it are all recorded, and no later one is. Raises ``ValueError`` unless s
    is a multiple of 4, so that decoded rows of s bases are whole bytes.
    """
    k, s = params.k, params.s
    if s % 4:
        raise ValueError(f"streams decode only when s is a multiple of 4, not s={s}")
    wv = params.words_per_verbatim
    match_rows = k // s  # the output is laid out in rows of s bases
    if len(streams) == 1:
        buf = streams[0][0]
    else:  # each stream starts on a word of the joined buffer
        pieces = []
        for data, _, _ in streams:
            pieces += (data, bytes(-len(data) % WORD_BYTES))
        buf = b"".join(pieces)
    words = _words(buf)

    heads: list[int] = []
    rows: list[int] = []
    starts: list[tuple[int, int]] = []
    fault = chain = None
    skipping = start >= GROUP_SLOTS * s  # else no group can end by ``start``
    skipped_groups = skipped_bases = 0
    row = first_word = 0
    for data, n_groups, first_group in streams:
        size = len(data)
        stop = first_word + size // WORD_BYTES
        end_group = first_group + n_groups
        pos = first_word
        starts.append((len(heads), first_group))
        step = None  # +k or -k from the last match to the next continuation
        for g in range(first_group, end_group):
            if pos >= stop:
                fault = CorruptStream("truncated stream: missing group header", group=g)
                break
            header = words[pos]
            # kind_words in bits: wv payload words per verbatim slot (00), one
            # per match slot (01, 10), none per continuation (11).
            low, high = header & _EVEN_BITS, (header >> 1) & _EVEN_BITS
            n_verbatim = GROUP_SLOTS - (low | high).bit_count()
            n_words = 1 + (low ^ high).bit_count() + wv * n_verbatim
            if pos + n_words > stop:
                fault = CorruptStream("truncated stream: payload exhausted", group=g)
                break
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
                starts[-1] = (0, g)
                if step is not None:
                    chain = (offset, step)
            heads.append(pos)
            rows.append(row)
            row += n_verbatim + (GROUP_SLOTS - n_verbatim) * match_rows
            pos += n_words
            if needed is not None and row * s + skipped_bases >= needed:
                break  # the groups walked end here
        else:
            if pos != stop or size % WORD_BYTES:
                fault = CorruptStream(
                    f"{size - WORD_BYTES * (pos - first_word)} trailing bytes after final group",
                    group=end_group,
                )
        if fault is not None:
            break
        first_word += -(-size // WORD_BYTES)
    rows.append(row)
    return _Frames(buf, words, heads, rows, starts, chain, (skipped_groups, skipped_bases), fault)


def _range_message(offset: int, k: int, length: int) -> str:
    return f"reference offset {offset} out of range for k={k}, reference length {length}"


def _gather_int(reference, frames, lo, hi, params) -> tuple[int, int, int]:
    """The tokens of the decoded groups that overlap bases [lo, hi), placed
    on one Python int, and the first and end bases they cover.

    The groups are walked slot by slot, one integer step per token as in
    ``compress``, carrying the last match across verbatim tokens and groups,
    and every token is checked. A window is read from the ceil((offset % 4 +
    k) / 4) reference bytes under it, which never run past the end, and
    shifted down by 2 * (offset % 4); a reverse one is reverse-complemented
    by byte table first. A verbatim payload is read from its words. Each is
    masked to its bases and OR-ed in at 2 * s per row from the first.
    """
    k, s, wv = params.k, params.s, params.words_per_verbatim
    match_rows = k // s
    last_offset = reference.length - k
    # Locals: a global lookup on every token costs about 2% of a walk.
    verbatim_kind, forward, continuation = _VERBATIM, _FORWARD, _CONTINUATION
    buf, words, data = frames.buf, frames.words, reference.data
    lo, hi = lo // s, -(-hi // s)  # in rows
    value, first, end = 0, None, 0
    window_mask, payload_mask = (1 << 2 * k) - 1, (1 << 2 * s) - 1
    offset, step = frames.chain or (0, None)
    for g, (pos, row) in enumerate(zip(frames.heads, frames.rows), frames.starts[0][1]):
        header = words[pos]
        pos += 1
        kinds = (
            _BYTE_KINDS[header & 0xFF] + _BYTE_KINDS[(header >> 8) & 0xFF]
            + _BYTE_KINDS[(header >> 16) & 0xFF] + _BYTE_KINDS[header >> 24]
        )
        for slot, kind in enumerate(kinds):
            if kind == verbatim_kind:
                if lo <= row < hi:
                    payload = buf[WORD_BYTES * pos : WORD_BYTES * (pos + wv)]
                    payload = int.from_bytes(payload, "little")
                    if first is None:
                        first = row
                    value |= (payload & payload_mask) << 2 * s * (row - first)
                    end = row + 1
                pos += wv
                row += 1
                continue
            if kind == continuation:
                if step is None:
                    raise CorruptStream("continuation with no preceding match", group=g, slot=slot)
                offset += step
            else:
                offset = words[pos]
                pos += 1
                step = k if kind == forward else -k
            if not 0 <= offset <= last_offset:
                raise CorruptStream(_range_message(offset, k, reference.length), group=g, slot=slot)
            if lo < row + match_rows and row < hi:
                piece = data[offset >> 2 : (offset + k + 3) >> 2]
                if step < 0:
                    window = _reverse_complement_int(piece, (offset & 3) + k)
                else:
                    window = int.from_bytes(piece, "little") >> 2 * (offset & 3)
                if first is None:
                    first = row
                value |= (window & window_mask) << 2 * s * (row - first)
                end = row + match_rows
            row += match_rows
    if frames.fault is not None:
        raise frames.fault
    return (value, first * s, end * s) if first is not None else (0, 0, 0)


def _gather_packed(reference, frames, params) -> np.ndarray:
    """The 2-bit packed bytes of every decoded group, s / 4 to a row,
    expanded and gathered by numpy a chunk of groups at a time; the first
    fault in stream order is raised."""
    k, s = params.k, params.s
    buf = frames.buf
    words = np.frombuffer(buf, "<u4", count=len(buf) // WORD_BYTES)
    heads = np.array(frames.heads, dtype=np.int64)
    rows = np.array(frames.rows[:-1], dtype=np.int64)
    resets = np.zeros(heads.size, dtype=bool)  # the groups that start a stream
    resets[[i for i, _ in frames.starts[1:] if i < heads.size]] = True
    out = np.empty(frames.rows[-1] * s // 4, dtype=np.uint8)
    chain = frames.chain
    # A slot's bytes are at most a window of k / 4 or a payload of whole words.
    slot_bytes = max(k // 4, WORD_BYTES * params.words_per_verbatim) + _SLOT_BYTES
    chunk = max(1, _GATHER_BYTES // (GROUP_SLOTS * slot_bytes))
    for c in range(0, heads.size, chunk):
        part = slice(c, c + chunk)
        tokens, chain, fault = _expand(
            words, heads[part], rows[part], resets[part], chain, params, reference.length - k
        )
        if fault is not None:
            at, message = fault
            raise frames.fault_at(c + at // GROUP_SLOTS, at % GROUP_SLOTS, message)
        offsets, window_rows, reverse, verbatim, verbatim_rows = tokens
        _gather_windows(out, reference, offsets, window_rows, reverse, params)
        _gather_verbatim(out, words, verbatim, verbatim_rows, params)
    if frames.fault is not None:
        raise frames.fault
    return out


def _expand(words, heads, rows, resets, chain, params, last_offset):
    """The tokens of groups framed at ``heads``, their first slots at output
    ``rows``, and the chain they carry out; or the first fault among them.

    ``resets`` marks the groups that start a stream; the first group, unless
    marked, continues ``chain``. Tokens are (window offsets, window rows,
    reverse windows, verbatim payload words, verbatim rows), the windows of
    matches first and then of continuations. A fault is (flat slot, message).
    """
    k, s, wv = params.k, params.s, params.words_per_verbatim
    kinds = ((words[heads][:, None] >> SLOT_SHIFTS) & 3).astype(np.uint8)
    # Words and rows through each slot of its group, the header not counted.
    word_ends = np.cumsum(params.kind_words.astype(np.int32)[kinds], axis=1, dtype=np.int32)
    row_ends = np.cumsum((params.kind_bases // s).astype(np.int32)[kinds], axis=1, dtype=np.int32)
    word_ends, row_ends = word_ends.ravel(), row_ends.ravel()
    kinds = kinds.ravel()
    is_match = (kinds == _FORWARD) | (kinds == _REVERSE)
    is_continuation = kinds == _CONTINUATION
    match, continuation = np.flatnonzero(is_match), np.flatnonzero(is_continuation)
    verbatim = np.flatnonzero(kinds == _VERBATIM)

    # Match j: its offset, step and the continuations before it, after a
    # virtual match 0 that holds the chain carried in.
    offsets = words[heads[match // GROUP_SLOTS] + word_ends[match]].astype(np.int64)
    steps = np.where(kinds[match] == _FORWARD, k, -k)
    n_matches = np.cumsum(is_match, dtype=np.int32)
    n_continuations = np.cumsum(is_continuation, dtype=np.int32)
    chain_offset, chain_step = chain or (0, 0)
    match_offsets = np.concatenate([[chain_offset], offsets])
    match_steps = np.concatenate([[chain_step], steps])
    before = np.concatenate([[0], n_continuations[match]])
    # A continuation follows the last match at or before it (0: the chain),
    # unless that precedes the start of its stream: the matches before the
    # group each stream starts at, carried forward to its later groups.
    group_matches = n_matches[::GROUP_SLOTS] - is_match[::GROUP_SLOTS]
    stream_floor = np.maximum.accumulate(np.where(resets, group_matches, -1 if chain else 0))
    last = n_matches[continuation]
    orphan = last <= stream_floor[continuation // GROUP_SLOTS]
    since = n_continuations[continuation] - before[last]
    continued = match_offsets[last] + match_steps[last] * since

    bad_match = offsets > last_offset
    bad_continuation = orphan | (continued < 0) | (continued > last_offset)
    bad = np.concatenate([match[bad_match], continuation[bad_continuation]])
    if bad.size:
        at = int(bad.min())
        if is_continuation[at]:
            i = int(np.searchsorted(continuation, at))
            offset = None if orphan[i] else int(continued[i])
        else:
            offset = int(offsets[np.searchsorted(match, at)])
        if offset is None:
            message = "continuation with no preceding match"
        else:
            message = _range_message(offset, k, last_offset + k)
        return None, None, (at, message)

    tail = int(n_matches[-1])
    if tail <= stream_floor[-1]:
        chain = None
    else:
        step = int(match_steps[tail])
        chain = (int(match_offsets[tail]) + step * int(n_continuations[-1] - before[tail]), step)
    window = np.concatenate([match, continuation])
    tokens = (
        np.concatenate([offsets, continued]),
        rows[window // GROUP_SLOTS] + row_ends[window] - k // s,
        np.concatenate([steps < 0, match_steps[last] < 0]),
        heads[verbatim // GROUP_SLOTS] + word_ends[verbatim] + 1 - wv,
        rows[verbatim // GROUP_SLOTS] + row_ends[verbatim] - 1,
    )
    return tokens, chain, None


def _gather_windows(out, reference, offsets, rows, reverse, params) -> None:
    """Place the k / 4 packed reference bytes of the window at each offset
    at its row, reverse-complemented where ``reverse`` is set."""
    k, row_bytes = params.k, params.s // 4
    if not offsets.size:
        return
    # One void item per window, so that each is placed as one copy.
    window = f"V{k // 4}"
    n_places = out.size // row_bytes - k // params.s + 1
    placed = np.ndarray((n_places,), window, out, strides=(row_bytes,))
    windows = packed_kmers(reference.data, offsets, k)
    windows[reverse] = reverse_complement_rows(windows[reverse], k)
    placed[rows] = windows.view(window)[:, 0]


def _gather_verbatim(out, words, first, rows, params) -> None:
    """Place the first s / 4 bytes of the payload that starts at each word at
    its row."""
    wv, row = params.words_per_verbatim, f"V{params.s // 4}"
    # One row of bytes per payload, base 0 in the low bits of byte 0.
    payload = words[first[:, None] + np.arange(wv)]
    out.view(row)[rows] = np.ndarray(first.shape, row, payload, strides=(WORD_BYTES * wv,))


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
    final group. Each record is its stream's packed bytes cut at its footer
    count, the bits past the count zeroed.
    """
    if not records:
        return []
    if ref_checksum != sequence_checksum(reference):
        raise ChecksumMismatch("stream was compressed against a different reference")
    streams = [(data, n_groups, 0) for data, n_groups, _ in records]
    parts = decode_group(streams, reference, params)
    for (_, _, n_bases), part in zip(records, parts):
        got = 4 * part.size
        if got < n_bases:
            raise CorruptStream(f"stream yields {got} bases but footer declares {n_bases}")
        if got - n_bases >= GROUP_SLOTS * params.s:
            raise CorruptStream(
                f"stream yields {got} bases, more than padding allows for "
                f"footer count {n_bases}"
            )
    lengths = [n for _, _, n in records]
    ends = np.cumsum([(n + 3) // 4 for n in lengths])
    data = np.concatenate([part[: (n + 3) // 4] for part, n in zip(parts, lengths)])
    tails = np.array(lengths) % 4
    data[ends[tails > 0] - 1] &= _TAIL_MASKS[tails[tails > 0]]
    data, ends = data.tobytes(), [0, *ends.tolist()]
    return [PackedSequence._unchecked(data[a:b], n) for a, b, n in zip(ends, ends[1:], lengths)]


def decompress(stream: CompressedStream, reference: PackedSequence) -> PackedSequence:
    """Decode a full stream and truncate padding to the footer base count."""
    record = (stream.data, stream.n_groups, stream.n_bases)
    return decode_records([record], reference, stream.params, stream.ref_checksum)[0]
