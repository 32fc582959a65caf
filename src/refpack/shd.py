"""Shifted-Hamming pre-alignment filter for edit distances up to e.

2e+1 Hamming masks compare the read against the reference segment shifted by
-e..+e positions; out-of-range positions count as matches. The masks are
AND'd and the surviving ones are counted with saturation at threshold+1; a
count at or below the accept threshold passes the pair on to full alignment.

Without amendment the filter never rejects a pair whose true edit distance is
at most e: an optimal alignment tiles the read with exact segments at shifts
within [-e, e], each zeroing its mask over the segment, so only edited read
positions can survive the AND. Amendment (rewriting short zero runs that are
flanked by ones, per mask) sharpens the count toward the true distance but
surrenders that guarantee, which is why it is configurable.

The masks are shifts and ANDs over Python ints; no base is unpacked. The
reads' packed bytes, each pair's followed by a gap of e // 4 + 1 zero bytes
(more than e bases), are joined into one little-endian int, and likewise the
segments'. ``even`` sets bit 2i of every base in a pair. Mask d keeps base i's
mismatch bit only where ``even`` is set at i and at i + d, so a partner in a
gap counts as out of range. Amendment fills a zero run of one pair's bases
between two ones; the bits beside a pair are gap bits, neither one nor zero,
so runs at a pair's edge stay as they are and no run joins two pairs. A
stream is joined ``_CHUNK_BYTES`` of reads at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Union

from .sequence import PackedSequence, pack_bases

SequenceLike = Union[PackedSequence, str, bytes]

# About this many read bytes per int: bounds the temporaries, costs no speed.
_CHUNK_BYTES = 1 << 16


def _packed(x: SequenceLike) -> PackedSequence:
    if isinstance(x, PackedSequence):
        return x
    if isinstance(x, (str, bytes)):
        return pack_bases(x)
    raise TypeError(f"expected a sequence, str, or bytes, got {type(x).__name__}")


@dataclass(frozen=True)
class ShdConfig:
    e: int = 5
    amend_run: int = 2  # zero runs up to this length are rewritten; 0 disables
    accept_threshold: int | None = None  # defaults to e

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("e must be non-negative")
        if self.amend_run < 0:
            raise ValueError("amend_run must be non-negative")
        if self.accept_threshold is not None and self.accept_threshold < 0:
            raise ValueError("accept_threshold must be non-negative")

    @property
    def threshold(self) -> int:
        return self.e if self.accept_threshold is None else self.accept_threshold


@dataclass(frozen=True)
class ShdVerdict:
    ones_count: int  # saturated at threshold + 1
    accepted: bool


def shd(read: SequenceLike, refseg: SequenceLike, config: ShdConfig | None = None) -> ShdVerdict:
    """Filter verdict for an equal-length (read, reference segment) pair."""
    return filter_stream([read], [refseg], config)[0][0]


def _count_ones(pairs: list[tuple[PackedSequence, PackedSequence]], config: ShdConfig) -> list[int]:
    """Unsaturated ones in the AND of each pair's 2e+1 masks."""
    e, run = config.e, config.amend_run
    gap = bytes(e // 4 + 1)
    reads = int.from_bytes(gap.join(r.data for r, _ in pairs), "little")
    segs = int.from_bytes(gap.join(f.data for _, f in pairs), "little")
    # 4**n // 3 sets bit 2i of each of n bases
    ranges = gap.join((4**r.length // 3).to_bytes(len(r.data), "little") for r, _ in pairs)
    even = agg = int.from_bytes(ranges, "little")
    for d in range(-e, e + 1):
        if d >= 0:
            x, valid = reads ^ (segs >> 2 * d), even & (even >> 2 * d)
        else:
            x, valid = reads ^ (segs << -2 * d), even & (even << -2 * d)
        m = (x | x >> 1) & valid
        zeros, inner, fill = even ^ m, -1, 0
        for j in range(1, run + 1):  # amend: fill each run of j zeros that ones flank
            inner &= zeros >> 2 * j
            starts = m & (m >> 2 * (j + 1)) & inner
            for t in range(1, j + 1):
                fill |= starts << 2 * t
        agg &= m | fill
        if not agg:  # no later mask can bring a one back
            break
    ones = agg.to_bytes(len(ranges), "little")
    bounds = list(accumulate((len(r.data) + len(gap) for r, _ in pairs), initial=0))
    return [int.from_bytes(ones[lo:hi], "little").bit_count() for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class FilterSummary:
    pairs: int
    accepted: int
    total_bases: int
    seconds: float

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.pairs if self.pairs else 0.0

    @property
    def bases_per_second(self) -> float:
        return self.total_bases / self.seconds if self.seconds > 0 else 0.0


def filter_stream(
    reads: Iterable[SequenceLike],
    refsegs: Iterable[SequenceLike],
    config: ShdConfig | None = None,
) -> tuple[list[ShdVerdict], FilterSummary]:
    """Filter paired streams; order of verdicts follows the input."""
    if config is None:
        config = ShdConfig()
    reads, refsegs = list(reads), list(refsegs)
    if len(reads) != len(refsegs):
        raise ValueError(
            f"stream length mismatch: {len(reads)} reads vs {len(refsegs)} segments"
        )
    start = time.perf_counter()
    pairs = []
    for r, f in zip(map(_packed, reads), map(_packed, refsegs)):
        if f.length != r.length:
            raise ValueError(
                f"length mismatch: read {r.length} vs reference segment {f.length} "
                "(caller pads or clips)"
            )
        pairs.append((r, f))
    counts, lo, size = [], 0, 0
    for hi, (r, _) in enumerate(pairs, 1):
        size += len(r.data)
        if size >= _CHUNK_BYTES or hi == len(pairs):
            counts += _count_ones(pairs[lo:hi], config)
            lo, size = hi, 0
    threshold = config.threshold
    verdicts = [ShdVerdict(min(n, threshold + 1), n <= threshold) for n in counts]
    accepted, bases = sum(v.accepted for v in verdicts), sum(r.length for r, _ in pairs)
    return verdicts, FilterSummary(len(pairs), accepted, bases, time.perf_counter() - start)


def _text(x: SequenceLike) -> str:
    if isinstance(x, PackedSequence):
        return x.to_ascii()
    return x.decode("ascii") if isinstance(x, bytes) else x


def edit_distance(a: SequenceLike, b: SequenceLike) -> int:
    """Levenshtein distance (unit costs), any alphabet: Myers' bit-vector
    algorithm in Hyyrö's global form. Two ints hold a DP column's +1 and -1
    vertical deltas over the longer string; the loop walks the shorter."""
    a, b = _text(a), _text(b)
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(a)) - 1
    last = 1 << len(a) >> 1
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ph << 1 | 1  # row 0 of the global DP rises by one per column
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score
