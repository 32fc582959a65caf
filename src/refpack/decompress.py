"""Streaming decoder for grouped token streams.

Slots are decoded in index order 0..15. Verbatim slots unpack their payload
words; match slots copy (or reverse-complement) k reference bases; a
continuation slot advances the last match's offset by +k (forward) or -k
(reverse) with no payload. ``decode_groups`` is the one decode loop: it
carries that last match from group to group, and both ``decompress`` and
``container.extract_range`` consume it. Structural violations raise
CorruptStream carrying the group ordinal and slot index.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .compress import (
    GROUP_SLOTS,
    SLOT_SHIFTS,
    WORD_BYTES,
    CompressParams,
    CompressedStream,
    TokenKind,
)
from .errors import ChecksumMismatch, CorruptStream
from .sequence import PackedSequence, sequence_checksum

# The kind code and reference offset of the last match token, or None.
LastMatch = tuple[int, int] | None


def split_header(header: int) -> np.ndarray:
    """The sixteen 2-bit kind codes of a group header, slot 0 first."""
    return ((np.uint32(header) >> SLOT_SHIFTS) & 3).astype(np.uint8)


def _unpack_words(words: np.ndarray) -> np.ndarray:
    """(n,) u32 words -> (n, 16) 2-bit codes, low bits first."""
    return ((words[:, None] >> SLOT_SHIFTS) & 3).astype(np.uint8)


def iter_group_frames(
    data: bytes,
    n_groups: int,
    params: CompressParams,
    *,
    first_group: int = 0,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (group_ordinal, header, payload_words) frames from raw bytes.

    Once every group is read, the byte stream must end precisely there.
    """
    kind_words = params.kind_words
    pos = 0
    size = len(data)
    for g in range(first_group, first_group + n_groups):
        if pos + WORD_BYTES > size:
            raise CorruptStream("truncated stream: missing group header", group=g)
        header = int.from_bytes(data[pos : pos + WORD_BYTES], "little")
        pos += WORD_BYTES
        n_words = int(kind_words[split_header(header)].sum())
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


def decode_group(
    header: int,
    payload: np.ndarray,
    reference: PackedSequence,
    last: LastMatch,
    params: CompressParams,
    *,
    group_index: int = 0,
) -> tuple[np.ndarray, LastMatch]:
    """Decode one group; returns the emitted base codes and the last match."""
    k, s = params.k, params.s
    wv = params.words_per_verbatim
    kinds = split_header(header)
    ref_codes = reference.codes()
    ref_len = reference.length

    counts = params.kind_words[kinds]
    n_words = int(counts.sum())
    if payload.size != n_words:
        raise CorruptStream(
            f"payload holds {payload.size} words, header requires {n_words}",
            group=group_index,
        )
    # Index of each slot's first payload word.
    first_word = (np.cumsum(counts) - counts).tolist()

    # All verbatim codes of the group in one shot; sliced per slot below.
    verbatim_codes = _unpack_words(payload)

    chunks: list[np.ndarray] = []
    for slot, kind in enumerate(kinds.tolist()):
        wi = first_word[slot]
        if kind == TokenKind.VERBATIM:
            chunks.append(verbatim_codes[wi : wi + wv].reshape(-1)[:s])
            continue
        if kind == TokenKind.CONTINUATION:
            if last is None:
                raise CorruptStream(
                    "continuation with no preceding match",
                    group=group_index,
                    slot=slot,
                )
            kind, offset = last
            offset += k if kind == TokenKind.FORWARD_MATCH else -k
        else:
            offset = int(payload[wi])
        if offset < 0 or offset + k > ref_len:
            raise CorruptStream(
                f"reference offset {offset} out of range for k={k}, "
                f"reference length {ref_len}",
                group=group_index,
                slot=slot,
            )
        window = ref_codes[offset : offset + k]
        if kind == TokenKind.REVERSE_MATCH:
            window = (window[::-1]) ^ 3
        chunks.append(window)
        last = (kind, offset)

    return np.concatenate(chunks).astype(np.uint8, copy=False), last


def decode_groups(
    data: bytes,
    n_groups: int,
    first_group: int,
    reference: PackedSequence,
    params: CompressParams,
) -> Iterator[np.ndarray]:
    """The base codes of each group in turn, entering with no previous match.

    ``data`` starts at group ``first_group``, which must be a chain-free
    entry point (stream start or a chunk-index entry).
    """
    last: LastMatch = None
    for g, header, words in iter_group_frames(
        data, n_groups, params, first_group=first_group
    ):
        codes, last = decode_group(header, words, reference, last, params, group_index=g)
        yield codes


def decompress(stream: CompressedStream, reference: PackedSequence) -> PackedSequence:
    """Decode a full stream and truncate padding to the footer base count."""
    if stream.ref_checksum != sequence_checksum(reference):
        raise ChecksumMismatch("stream was compressed against a different reference")
    params = stream.params
    parts = list(decode_groups(stream.data, stream.n_groups, 0, reference, params))
    raw = sum(part.size for part in parts)
    if raw < stream.n_bases:
        raise CorruptStream(
            f"stream yields {raw} bases but footer declares {stream.n_bases}"
        )
    if raw - stream.n_bases >= GROUP_SLOTS * params.s:
        raise CorruptStream(
            f"stream yields {raw} bases, more than padding allows for "
            f"footer count {stream.n_bases}"
        )
    if not parts:
        return PackedSequence(b"", 0)
    codes = np.concatenate(parts)[: stream.n_bases]
    return PackedSequence.from_codes(codes)
