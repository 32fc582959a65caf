"""Decoder for grouped token streams.

Each group is a header word of sixteen 2-bit kind codes, slot 0 in the low
bits, followed by its payload words. A verbatim slot holds its S bases packed
2-bit; a match slot copies (or reverse-complements) the K reference bases at
its payload offset; a continuation slot has no payload and advances the last
match's offset by +K (forward) or -K (reverse).

``decode_group`` is the one decoder. ``decode_records`` calls it once for
the whole records of ``decompress`` and the container's ``decompress_records``;
the container's ``extract_range`` calls it from a chunk-index entry. It works
in three steps:

* frame walk: each group is sized from popcounts of its header's kind bits
  and must fit in the bytes left; decoding stops once a caller that asked for
  a number of bases has them;
* token walk: one integer step per token, as in ``compress``, carrying the
  last match across verbatim tokens and groups, resetting it at each stream
  start. Group by group it runs before the next frame is read, so the first
  fault in stream order is the one raised;
* gather: the K-base windows of all match tokens are gathered from the
  reference's packed bytes (the reference is never unpacked), reverse
  ones complemented, verbatim payloads unpacked, and all of it placed into
  one output array. Windows go a chunk at a time, so that no temporary
  exceeds ``_GATHER_BYTES``.

Structural violations raise CorruptStream carrying the group ordinal and slot
index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .compress import GROUP_SLOTS, WORD_BYTES, CompressParams, CompressedStream, TokenKind
from .errors import ChecksumMismatch, CorruptStream
from .sequence import PackedSequence, pack_code_runs, packed_kmers, sequence_checksum, unpack_rows

# (group bytes, group count, ordinal of the first group); the first group is
# a chain-free entry point: a stream start or a chunk-index entry.
Stream = tuple[bytes | memoryview, int, int]
# (group bytes, group count, footer base count) of a whole record.
Record = tuple[bytes | memoryview, int, int]

# Header byte -> the kind codes of its four slots, slot 0 first.
_BYTE_KINDS = [tuple((b >> shift) & 3 for shift in (0, 2, 4, 6)) for b in range(256)]
_EVEN_BITS = 0x55555555
# Windows are gathered in chunks that keep each temporary under this size.
_GATHER_BYTES = 1 << 20
# Bases packed in one payload word.
_WORD_BASES = 4 * WORD_BYTES


def decode_group(
    streams: Sequence[Stream],
    reference: PackedSequence,
    params: CompressParams,
    *,
    needed: int | None = None,
) -> tuple[list[np.ndarray], list[int]]:
    """The base codes of each stream and the number of groups decoded.

    With ``needed``, each stream is decoded only up to the first group at
    which it holds ``needed`` bases.
    """
    k, s = params.k, params.s
    wv = params.words_per_verbatim
    match_rows = k // s  # the output is laid out in rows of s bases
    last_offset = reference.length - k
    verbatim_kind = TokenKind.VERBATIM.value
    forward = TokenKind.FORWARD_MATCH.value
    continuation = TokenKind.CONTINUATION.value
    if len(streams) == 1:
        buf = streams[0][0]
    else:  # each stream starts on a word of the joined buffer
        pieces = []
        for data, _, _ in streams:
            pieces += (data, bytes(-len(data) % WORD_BYTES))
        buf = b"".join(pieces)
    words = memoryview(
        np.frombuffer(buf, "<u4", count=len(buf) // WORD_BYTES).astype(np.uint32, copy=False)
    )

    # Offset and output row of each match window, the rows of the reverse
    # ones, and word index and row of each verbatim payload.
    windows: list[int] = []
    window_rows: list[int] = []
    reverse_rows: list[int] = []
    verbatim: list[int] = []
    verbatim_rows: list[int] = []
    row_ends: list[int] = []
    walked: list[int] = []
    row = start = 0
    for data, n_groups, first_group in streams:
        size = len(data)
        stop = start + size // WORD_BYTES
        pos = start
        first_row = row
        step = None  # +k or -k from the last match to the next continuation
        for g in range(first_group, first_group + n_groups):
            if pos >= stop:
                raise CorruptStream("truncated stream: missing group header", group=g)
            header = words[pos]
            # kind_words in bits: wv payload words per verbatim slot (00), one
            # per match slot (01, 10), none per continuation (11).
            low, high = header & _EVEN_BITS, (header >> 1) & _EVEN_BITS
            n_verbatim = GROUP_SLOTS - (low | high).bit_count()
            if pos + 1 + (low ^ high).bit_count() + wv * n_verbatim > stop:
                raise CorruptStream("truncated stream: payload exhausted", group=g)
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
                walked.append(g + 1 - first_group)
                break
        else:
            if pos != stop or size % WORD_BYTES:
                raise CorruptStream(
                    f"{size - WORD_BYTES * (pos - start)} trailing bytes after final group",
                    group=first_group + n_groups,
                )
            walked.append(n_groups)
        row_ends.append(row)
        start += -(-size // WORD_BYTES)

    out = np.empty(row * s, dtype=np.uint8)
    _gather_windows(out, reference, windows, window_rows, reverse_rows, params)
    _gather_verbatim(out, buf, verbatim, verbatim_rows, params)
    bounds = [0, *row_ends]
    return [out[a * s : b * s] for a, b in zip(bounds, row_ends)], walked


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
    parts, _ = decode_group(streams, reference, params)
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
