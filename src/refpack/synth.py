"""Synthetic desk-scale datasets: random references and mutated derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import PackedSequence, concat_sequences, reverse_complement_sequence


def random_sequence(n: int, rng: np.random.Generator) -> PackedSequence:
    if n < 0:
        raise ValueError("length must be non-negative")
    return PackedSequence.from_codes(rng.integers(0, 4, n, dtype=np.uint8))


@dataclass(frozen=True)
class MutationProfile:
    snp: float = 0.0
    insertion: float = 0.0
    deletion: float = 0.0

    def __post_init__(self):
        for name in ("snp", "insertion", "deletion"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1]")
        if self.snp + self.insertion + self.deletion > 1.0:
            raise ValueError("combined mutation rates exceed 1")

    @property
    def total(self) -> float:
        return self.snp + self.insertion + self.deletion


def mutate(
    seq: PackedSequence, profile: MutationProfile, rng: np.random.Generator
) -> PackedSequence:
    """Apply independent per-base substitutions, insertions, and deletions.

    Each input base draws one event: substitution replaces it with a different
    base, deletion drops it, insertion places a random base in front of it.
    """
    if seq.length == 0 or profile.total == 0.0:
        return seq
    base = seq.codes()  # unpacked afresh, so ours to edit
    draw = rng.random(base.size)
    is_sub = draw < profile.snp
    is_del = (draw >= profile.snp) & (draw < profile.snp + profile.deletion)
    is_ins = (draw >= profile.snp + profile.deletion) & (
        draw < profile.snp + profile.deletion + profile.insertion
    )

    if is_sub.any():
        bump = rng.integers(1, 4, int(is_sub.sum()), dtype=np.uint8)
        base[is_sub] = (base[is_sub] + bump) & 3

    keep = ~is_del
    counts = keep.astype(np.int64) + is_ins.astype(np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    kept_idx = np.flatnonzero(keep)
    out[starts[kept_idx] + is_ins[kept_idx]] = base[kept_idx]
    ins_idx = np.flatnonzero(is_ins)
    out[starts[ins_idx]] = rng.integers(0, 4, ins_idx.size, dtype=np.uint8)
    return PackedSequence.from_codes(out)


def random_reads(
    reference: PackedSequence,
    n_reads: int,
    read_len: int,
    profile: MutationProfile,
    rng: np.random.Generator,
    *,
    rc_fraction: float = 0.0,
) -> list[PackedSequence]:
    """Reads sampled uniformly from the reference, then mutated.

    A read is reverse-complemented with probability ``rc_fraction`` before
    mutation, mimicking strand-agnostic sequencing.
    """
    if read_len > reference.length:
        raise ValueError("read length exceeds reference length")
    codes = reference.codes()
    reads = []
    for _ in range(n_reads):
        start = int(rng.integers(0, reference.length - read_len + 1))
        piece = PackedSequence.from_codes(codes[start : start + read_len])
        if rc_fraction and rng.random() < rc_fraction:
            piece = reverse_complement_sequence(piece)
        reads.append(mutate(piece, profile, rng))
    return reads


def spliced_rearrangement(
    reference: PackedSequence,
    n_segments: int,
    rng: np.random.Generator,
    *,
    rc_fraction: float = 0.5,
    min_len: int = 32,
    max_len: int = 2048,
) -> PackedSequence:
    """Concatenation of random reference segments, some reverse-complemented."""
    if reference.length < min_len:
        raise ValueError("reference shorter than the minimum segment length")
    codes = reference.codes()
    parts = []
    hi = min(max_len, reference.length)
    for _ in range(n_segments):
        seg_len = int(rng.integers(min_len, hi + 1))
        start = int(rng.integers(0, reference.length - seg_len + 1))
        piece = PackedSequence.from_codes(codes[start : start + seg_len])
        if rng.random() < rc_fraction:
            piece = reverse_complement_sequence(piece)
        parts.append(piece)
    return concat_sequences(parts)
