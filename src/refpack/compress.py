"""Fixed-k, fixed-stride matching compressor and grouped token encoding.

The target is scanned left to right. At each position the k-mer is looked up
in the reference index (both orientations); a verified match advances by k
bases and emits a match or continuation token, otherwise S bases are emitted
verbatim and the scan advances by S. Since S divides k, every position the
scan can visit is stride-aligned: all of them are hashed and probed at once
with ``ReferenceIndex.probe`` before the scan, and the scan itself is a few
array passes over the precomputed orientations and offsets: the path of
windows it visits is listed by pointer jumping, and the tokens' kinds and
payload words follow from that path with no per-token Python step.
``compress_records`` does this for many records with one probe per batch of
records, so that the cost follows bases rather than records; ``compress`` is
its one-record case. Sixteen tokens share one 32-bit header
holding a 2-bit kind code per token:

    00 verbatim      payload: S bases packed 2-bit (one u32 word when S=16)
    01 forward match payload: u32 reference offset
    10 reverse match payload: u32 reference offset (forward-oriented k-mer)
    11 continuation  no payload; offset implied by the previous match

Headers and payload words are little-endian u32. A partial final group is
padded with verbatim tokens encoding base 'A'; the footer base count makes
the padding unambiguous. Verbatim widths other than S=16 round the payload
up to whole words and exist only for benchmarking; they are not accepted by
the container format. Any S that divides K tokenizes, but a stream decodes
only when S is a multiple of 4, so that each decoded row of S bases is whole
packed bytes.

A token stream is held as two arrays: ``kinds`` (one kind code per token)
and ``words`` (the payload words in token order, exactly as they follow the
headers on disk). ``CompressParams.kind_words`` and ``.kind_bases`` are the
only statement of how many payload words and bases each kind stands for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from . import index as index_module
from .errors import ChecksumMismatch
from .index import Orientation, QueryStats, ReferenceIndex
from .sequence import PackedSequence, packed_kmers, ragged_arange, sequence_checksum

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
        return _kind_counts(self.kinds)


class RecordResults(list):
    """The ``CompressResult`` of each record of one ``compress_records`` call."""

    def kind_counts(self) -> Counter:
        """Token kinds counted over every record with one bincount, not one a
        record, whose fixed cost outweighs the counting of a short record's
        tokens."""
        return _kind_counts(np.concatenate([np.zeros(0, np.uint8), *(r.kinds for r in self)]))


def _kind_counts(kinds: np.ndarray) -> Counter:
    counts = np.bincount(kinds, minlength=len(TokenKind))
    return Counter({TokenKind(kind): int(n) for kind, n in enumerate(counts) if n})


def compress(
    target: PackedSequence | Sequence[PackedSequence],
    index: ReferenceIndex,
    reference: PackedSequence,
    params: CompressParams | None = None,
    *,
    use_prefilter: bool = True,
    break_every_groups: int | None = None,
    stats: QueryStats | None = None,
) -> CompressResult | RecordResults:
    """Tokenize ``target`` against ``reference`` via ``index``: the one-record
    case of ``compress_records``. A sequence of targets is passed on to
    ``compress_records`` whole, and its ``RecordResults`` returned."""
    options = dict(use_prefilter=use_prefilter, break_every_groups=break_every_groups, stats=stats)
    if isinstance(target, PackedSequence):
        return compress_records([target], index, reference, params, **options)[0]
    return compress_records(target, index, reference, params, **options)


def compress_records(
    targets: Sequence[PackedSequence],
    index: ReferenceIndex,
    reference: PackedSequence,
    params: CompressParams | None = None,
    *,
    use_prefilter: bool = True,
    break_every_groups: int | None = None,
    stats: QueryStats | None = None,
) -> RecordResults:
    """Tokenize each of ``targets`` against ``reference`` via ``index``.

    ``break_every_groups`` = G suppresses continuation chains across every
    G-group boundary so a chunk index can later enter the stream there with
    fresh decoder state.

    Records go through in batches of about one probe chunk of stride
    windows (``index._PROBE_CHUNK``); a record longer than that is a batch of
    its own. The records of a batch share one probe, and the batch's
    per-window arrays are freed before the next batch, so the memory a call
    holds besides its results follows its longest record, not its whole
    input. The tokens of a batch are made a span of about one probe chunk of
    windows at a time, so their temporaries are bounded by the span.
    """
    if params is None:
        params = CompressParams(k=index.k)
    if params.k != index.k:
        raise ValueError(f"params.k={params.k} does not match index k={index.k}")
    if sequence_checksum(reference) != index.ref_checksum:
        raise ChecksumMismatch("index was built for a different reference")
    if break_every_groups is not None and break_every_groups < 1:
        raise ValueError("break_every_groups must be positive")
    if not targets:
        return RecordResults()

    s = params.s
    lengths = np.array([target.length for target in targets], dtype=np.int64)
    n_windows = (lengths + s - 1) // s
    # A record joins the batch of the probe chunk its first window falls in.
    batch = (np.cumsum(n_windows) - n_windows) // index_module._PROBE_CHUNK
    cuts = [0, *(np.flatnonzero(np.diff(batch)) + 1).tolist(), len(targets)]
    results = RecordResults()
    for a, b in zip(cuts, cuts[1:]):
        results += _compress_batch(
            targets[a:b], lengths[a:b], index, reference, params,
            use_prefilter, break_every_groups, stats,
        )
    return results


def _compress_batch(
    targets: Sequence[PackedSequence],
    lengths: np.ndarray,
    index: ReferenceIndex,
    reference: PackedSequence,
    params: CompressParams,
    use_prefilter: bool,
    break_every_groups: int | None,
    stats: QueryStats | None,
) -> list[CompressResult]:
    """``compress_records`` of one batch, with one probe.

    The records' packed bytes are joined with a zero gap of ceil(s / 4) bytes
    after each, so a record starts on a byte and its window i starts i * s
    bases later. A probed k-mer ends inside its record, and a verbatim
    window, which may run past the record's end, reads only the record's
    zero padding bits and the gap.

    The scan goes from window i to i + 1 after a verbatim window and to
    i + k / s after a match, which never runs past its record, so the tokens
    lie on one path of windows from window 0 through each record's first.
    Pointer jumping lists it a span of ``index._PROBE_CHUNK`` windows at a
    time, each entered where the last left off; array passes over the span
    then give its tokens' kinds and words.
    """
    k, s = params.k, params.s
    gap = bytes((s + 3) // 4)
    joined = gap.join([target.data for target in targets]) + gap
    record_bytes = (lengths + 3) // 4 + len(gap)
    origins = 4 * (np.cumsum(record_bytes) - record_bytes)

    # Window i of a record starts at base i * s and is the batch's window
    # first_window + i. Windows too close to its end for a k-mer are not
    # probed and stay unmatched (orientation 0).
    n_windows = (lengths + s - 1) // s
    n_probed = np.where(lengths >= k, (lengths - k) // s + 1, 0)
    first_window = np.cumsum(n_windows) - n_windows
    first_probed = np.cumsum(n_probed) - n_probed
    record, window = ragged_arange(n_probed)
    positions = origins[record] + window * s
    window += first_window[record]
    del record
    found = index.probe(reference, joined, positions, use_prefilter=use_prefilter)
    del positions
    orientation = np.zeros(int(n_windows.sum()), dtype=np.uint8)
    orientation[window] = found.orientation
    del window

    n, wv = orientation.size, params.words_per_verbatim
    # A token's block: the tokens from the last multiple of break_tokens
    # counted from its record's first token. With no breaks a block is the
    # whole record, since no record has n tokens.
    break_tokens = GROUP_SLOTS * break_every_groups if break_every_groups else n
    # Each record's first token and first word; the last column ends the batch.
    firsts = np.full((2, lengths.size + 1), np.iinfo(np.int64).max)
    # The last match token's block start, orientation and continuation offset.
    # A reverse chain that reaches offset 0 expects a negative offset, which no
    # match has: the next match starts fresh.
    last = (-1, 0, 0)
    kind_parts, word_parts = [], []
    n_tokens = n_words = entry = 0
    while entry < n:
        steps = np.where(orientation[entry : entry + index_module._PROBE_CHUNK], k // s, 1)
        size = steps.size
        # After r rounds, ``path`` lists the span's first 2**r tokens and
        # ``jump`` leads 2**r tokens on; the sentinel ``size`` ends the span.
        jump = np.append(np.minimum(np.arange(size) + steps, size), size)
        path = np.zeros(1, dtype=np.int64)
        while path[-1] < size:
            path = np.concatenate([path, jump[path]])
            jump = jump[jump]
        path = path[: np.searchsorted(path, size)]
        at = entry + path  # the batch window of each token of the span
        entry = int(at[-1] + steps[path[-1]])

        record = np.searchsorted(first_window, at, side="right") - 1
        window = at - first_window[record]
        kinds = orientation[at]  # Orientation values are the match kind codes
        token = n_tokens + np.arange(at.size)
        starts = np.flatnonzero(window == 0)
        firsts[0, record[starts]] = token[starts]

        match = np.flatnonzero(kinds)
        match_record = record[match]
        offset = found.offset[first_probed[match_record] + window[match]].astype(np.int64)
        block = token[match] - (token[match] - firsts[0, match_record]) % break_tokens
        orient = kinds[match]
        expected = np.where(orient == Orientation.FORWARD.value, offset + k, offset - k)
        # A match continues the match token before it in the same block when
        # that one has its orientation and expects its offset.
        before = [np.append(state, now[:-1]) for state, now in zip(last, (block, orient, expected))]
        chained = (before[0] == block) & (before[1] == orient) & (before[2] == offset)
        if match.size:
            last = (block[-1], orient[-1], expected[-1])
        kinds[match[chained]] = TokenKind.CONTINUATION.value

        counts = params.kind_words[kinds]
        word_at = np.cumsum(counts) - counts
        words = np.empty(int(word_at[-1] + counts[-1]), dtype="<u4")
        words[word_at[match[~chained]]] = offset[~chained]
        # Verbatim payload words; bases past a record's end read as zero.
        verbatim = np.flatnonzero(kinds == TokenKind.VERBATIM.value)
        vb = packed_kmers(joined, origins[record[verbatim]] + window[verbatim] * s, s)
        vb = np.pad(vb, ((0, 0), (0, WORD_BYTES * wv - vb.shape[1])))
        words[word_at[verbatim, None] + np.arange(wv)] = vb.view("<u4")
        firsts[1, record[starts]] = n_words + word_at[starts]
        if stats is not None:
            # Charge only the windows the scan probed: those a token starts at.
            used = window < n_probed[record]
            found.count(first_probed[record[used]] + window[used], stats)
        kind_parts.append(kinds)
        word_parts.append(words)
        n_tokens += kinds.size
        n_words += words.size

    # An empty record has no token: its tokens and words start where the next
    # record's do.
    firsts[:, -1] = n_tokens, n_words
    token_bounds, word_bounds = np.minimum.accumulate(firsts[:, ::-1], axis=1)[:, ::-1].tolist()
    kinds = np.concatenate([np.zeros(0, np.uint8), *kind_parts])
    words = np.concatenate([np.zeros(0, "<u4"), *word_parts])
    bounds = zip(token_bounds, token_bounds[1:], word_bounds, word_bounds[1:], lengths.tolist())
    return [
        CompressResult(kinds=kinds[a:b], words=words[c:d], n_bases=n_bases)
        for a, b, c, d, n_bases in bounds
    ]


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


def encode_records(
    results: Sequence[CompressResult], params: CompressParams
) -> tuple[bytes, np.ndarray]:
    """The ``encode_groups`` bytes of all results, joined, from one
    ``encode_groups`` call, and each result's byte size.

    Each record's kinds are padded to whole groups and its words followed by
    its padding's zero words, so the joined stream's groups are the records'
    groups in order, and it splits at the records' ``encoded_sizes``.
    """
    kinds = [result.kinds for result in results]
    tokens, groups, payload, record_words = _stream_shapes(kinds, params)
    got = np.array([result.words.size for result in results], dtype=np.int64)
    bad = np.flatnonzero(payload != got)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"record {i}: token kinds require {payload[i]} payload words, got {got[i]}"
        )
    padded = np.full(GROUP_SLOTS * int(groups.sum()), TokenKind.VERBATIM.value, dtype=np.uint8)
    record, token = ragged_arange(tokens)
    padded[(GROUP_SLOTS * (np.cumsum(groups) - groups))[record] + token] = np.concatenate(
        [np.zeros(0, np.uint8), *kinds]
    )
    words = np.zeros(int(record_words.sum()), dtype="<u4")  # padding words stay 0
    record, word = ragged_arange(payload)
    words[(np.cumsum(record_words) - record_words)[record] + word] = np.concatenate(
        [np.zeros(0, np.uint32), *(result.words for result in results)]
    )
    return encode_groups(padded, words, params), WORD_BYTES * (groups + record_words)


def encoded_sizes(kinds: Sequence[np.ndarray], params: CompressParams) -> np.ndarray:
    """Byte length of ``encode_groups`` output for each record's token kinds."""
    _, groups, _, record_words = _stream_shapes(kinds, params)
    return WORD_BYTES * (groups + record_words)


def _stream_shapes(kinds: Sequence[np.ndarray], params: CompressParams):
    """Each record's token count, group count, payload words of its tokens,
    and payload words with those of its final group's padding."""
    tokens = np.array([k.size for k in kinds], dtype=np.int64)
    groups = (tokens + GROUP_SLOTS - 1) // GROUP_SLOTS
    payload = record_sums(params.kind_words, kinds)
    padding = params.words_per_verbatim * (GROUP_SLOTS * groups - tokens)
    return tokens, groups, payload, payload + padding


def record_sums(per_kind: np.ndarray, kinds: Sequence[np.ndarray]) -> np.ndarray:
    """Each record's sum of ``per_kind[kind]`` over its token ``kinds``."""
    ends = np.cumsum([k.size for k in kinds], dtype=np.int64)
    sums = np.append(0, np.cumsum(per_kind[np.concatenate([np.zeros(0, np.uint8), *kinds])]))
    return np.diff(sums[ends], prepend=0)


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
