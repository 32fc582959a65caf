"""Fixed-k, fixed-stride matching compressor and grouped token encoding.

The target is scanned left to right. At each position the k-mer is looked up
in the reference index (both orientations); a verified match advances by k
bases and emits a match or continuation token, otherwise S bases are emitted
verbatim and the scan advances by S. Since S divides k, every position the
scan can visit is stride-aligned: all of them are hashed and probed at once
with ``ReferenceIndex.probe`` before the scan, and the scan itself is a
Python walk over the precomputed orientations and offsets, one integer step
per token. Sixteen tokens share one 32-bit header holding a 2-bit kind code
per token:

    00 verbatim      payload: S bases packed 2-bit (one u32 word when S=16)
    01 forward match payload: u32 reference offset
    10 reverse match payload: u32 reference offset (forward-oriented k-mer)
    11 continuation  no payload; offset implied by the previous match

Headers and payload words are little-endian u32. A partial final group is
padded with verbatim tokens encoding base 'A'; the footer base count makes
the padding unambiguous. Verbatim widths other than S=16 round the payload
up to whole words and exist only for benchmarking; they are not accepted by
the container format.

A token stream is held as two arrays: ``kinds`` (one kind code per token)
and ``words`` (the payload words in token order, exactly as they follow the
headers on disk). ``CompressParams.kind_words`` and ``.kind_bases`` are the
only statement of how many payload words and bases each kind stands for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ChecksumMismatch
from .index import (
    Orientation,
    QueryStats,
    ReferenceIndex,
    _pack_rows,
    window_probe_tables,
)
from .sequence import PackedSequence, sequence_checksum

GROUP_SLOTS = 16
WORD_BYTES = 4

# Bit position of each slot's 2-bit kind code in a group header, slot 0 first;
# also the position of each base in a verbatim payload word.
SLOT_SHIFTS = np.arange(0, 2 * GROUP_SLOTS, 2, dtype=np.uint32)


class TokenKind(IntEnum):
    VERBATIM = 0
    FORWARD_MATCH = 1
    REVERSE_MATCH = 2
    CONTINUATION = 3


@dataclass(frozen=True)
class CompressParams:
    """k-mer width and verbatim stride. S must divide K."""

    k: int = 64
    s: int = 16

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.k < self.s:
            raise ValueError("k must be at least s")
        if self.k % self.s:
            raise ValueError("s must divide k")

    @property
    def words_per_verbatim(self) -> int:
        return (2 * self.s + 31) // 32

    @property
    def container_compatible(self) -> bool:
        return self.s == 16

    @property
    def kind_words(self) -> np.ndarray:
        """Payload words of one token, indexed by its kind code."""
        return np.array([self.words_per_verbatim, 1, 1, 0], dtype=np.int64)

    @property
    def kind_bases(self) -> np.ndarray:
        """Bases one token decodes to, indexed by its kind code."""
        return np.array([self.s, self.k, self.k, self.k], dtype=np.int64)


@dataclass
class CompressResult:
    """Token kinds (``uint8[n]``) and payload words (``'<u4'[m]``) in token order."""

    kinds: np.ndarray
    words: np.ndarray
    n_bases: int

    def kind_counts(self) -> Counter:
        counts = np.bincount(self.kinds, minlength=len(TokenKind))
        return Counter({TokenKind(kind): int(n) for kind, n in enumerate(counts) if n})


def compress(
    target: PackedSequence,
    index: ReferenceIndex,
    reference: PackedSequence,
    params: CompressParams | None = None,
    *,
    use_prefilter: bool = True,
    break_every_groups: int | None = None,
    stats: QueryStats | None = None,
) -> CompressResult:
    """Tokenize ``target`` against ``reference`` via ``index``.

    ``break_every_groups`` = G suppresses continuation chains across every
    G-group boundary so a chunk index can later enter the stream there with
    fresh decoder state.
    """
    if params is None:
        params = CompressParams(k=index.k)
    if params.k != index.k:
        raise ValueError(f"params.k={params.k} does not match index k={index.k}")
    if sequence_checksum(reference) != index.ref_checksum:
        raise ChecksumMismatch("index was built for a different reference")
    if break_every_groups is not None and break_every_groups < 1:
        raise ValueError("break_every_groups must be positive")

    k, s = params.k, params.s
    n = target.length
    tcodes = target.codes()

    # Probe every stride-aligned window at once; the walk below only reads
    # the outcome. Window i starts at base i * s.
    n_windows = (n + s - 1) // s
    positions = np.arange(0, n - k + 1, s, dtype=np.int64)
    tables = window_probe_tables(tcodes, k, positions, index.seeds, include_rc=True)
    found = index.probe(reference, tcodes, positions, tables, use_prefilter=use_prefilter)
    # Windows too close to the end for a k-mer stay unmatched (orientation 0).
    # The walk indexes bytes and memoryviews, which hand out Python ints
    # without holding one object per window.
    orientation = np.zeros(n_windows, dtype=np.uint8)
    orientation[: positions.size] = found.orientation
    orientations = orientation.tobytes()
    offsets = memoryview(found.offset)

    # Verbatim payload words of every stride-aligned window, precomputed:
    # window i's words are vb_words[i * wv : (i + 1) * wv].
    wv = params.words_per_verbatim
    padded = np.zeros(n_windows * s, dtype=np.uint8)
    padded[:n] = tcodes
    vb_bytes = np.zeros((n_windows, WORD_BYTES * wv), dtype=np.uint8)
    if n:
        vb_bytes[:, : (s + 3) // 4] = _pack_rows(padded.reshape(n_windows, s))
    vb_words = memoryview(vb_bytes.view("<u4").astype(np.uint32, copy=False).ravel())

    verbatim = TokenKind.VERBATIM.value
    continuation = TokenKind.CONTINUATION.value
    forward = Orientation.FORWARD.value
    kinds = bytearray()
    words: list[int] = []
    # The last match's orientation and the offset a continuation would have;
    # kept across verbatim runs. A reverse chain that reaches offset 0 expects
    # a negative offset, which no match has: the next match starts fresh.
    last = expected = None
    break_tokens = GROUP_SLOTS * break_every_groups if break_every_groups else 0
    match_step = k // s

    i = 0
    while i < n_windows:
        if break_tokens and len(kinds) % break_tokens == 0:
            last = expected = None
        o = orientations[i]
        if not o:
            kinds.append(verbatim)
            words += vb_words[i * wv : i * wv + wv]
            i += 1
            continue
        off = offsets[i]
        if o == last and off == expected:
            kinds.append(continuation)
        else:
            kinds.append(o)  # Orientation values are the match kind codes
            words.append(off)
        last, expected = o, (off + k if o == forward else off - k)
        i += match_step

    kinds = np.frombuffer(kinds, dtype=np.uint8)
    if stats is not None:
        # Charge only the windows the walk probed: those a token starts at.
        bases = params.kind_bases[kinds]
        starts = np.cumsum(bases) - bases
        found.count(starts[starts <= n - k] // s, stats)

    return CompressResult(kinds=kinds, words=np.array(words, dtype="<u4"), n_bases=n)


def _padded(kinds: np.ndarray) -> np.ndarray:
    """``kinds`` with the final group filled up with verbatim tokens."""
    out = np.full(group_count(kinds.size) * GROUP_SLOTS, TokenKind.VERBATIM.value, dtype=np.uint8)
    out[: kinds.size] = kinds
    return out


def encode_groups(kinds: np.ndarray, words: np.ndarray, params: CompressParams) -> bytes:
    """Serialize a token stream into 16-slot groups of header + payload words."""
    group_kinds = _padded(kinds).reshape(-1, GROUP_SLOTS)
    counts = params.kind_words[group_kinds]
    n_words = int(counts.ravel()[: kinds.size].sum())
    if n_words != words.size:
        raise ValueError(f"token kinds require {n_words} payload words, got {words.size}")
    headers = (group_kinds.astype(np.uint32) << SLOT_SHIFTS).sum(axis=1, dtype=np.uint32)
    group_words = counts.sum(axis=1)
    payload = np.zeros(int(group_words.sum()), dtype="<u4")  # padding words stay 0
    payload[:n_words] = words
    return np.insert(payload, np.cumsum(group_words) - group_words, headers).tobytes()


def encoded_size(kinds: np.ndarray, params: CompressParams) -> int:
    """Byte length of ``encode_groups`` output for these token kinds."""
    n_words = group_count(kinds.size) + int(params.kind_words[_padded(kinds)].sum())
    return WORD_BYTES * n_words


def group_count(n_tokens: int) -> int:
    return (n_tokens + GROUP_SLOTS - 1) // GROUP_SLOTS


@dataclass(frozen=True)
class CompressedStream:
    """Encoded groups plus the footer metadata needed to decode them."""

    data: bytes
    n_groups: int
    n_bases: int
    k: int
    s: int
    ref_checksum: bytes

    @property
    def params(self) -> CompressParams:
        return CompressParams(k=self.k, s=self.s)


def make_stream(
    result: CompressResult, params: CompressParams, ref_checksum: bytes
) -> CompressedStream:
    return CompressedStream(
        data=encode_groups(result.kinds, result.words, params),
        n_groups=group_count(result.kinds.size),
        n_bases=result.n_bases,
        k=params.k,
        s=params.s,
        ref_checksum=ref_checksum,
    )


def compression_ratio(original_bases: int, compressed_bytes: int) -> float:
    """Bases per compressed byte, against the 1-byte-per-base text baseline."""
    if original_bases < 0:
        raise ValueError("original_bases must be non-negative")
    if compressed_bytes <= 0:
        raise ValueError("compressed size must be positive to form a ratio")
    return original_bases / compressed_bytes
