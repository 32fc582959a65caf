"""Seeded inputs for the benchmark workloads.

Every workload is made by ``refpack.synth`` from one seed and written as FASTA
files. Each workload drives every CLI command, so every end-to-end metric
exists on every workload; what differs is the shape of the data:

- ``cohort``: a 256 kbp reference and 4 re-sequenced individuals (1% SNPs,
  0.05% insertions, 0.05% deletions). Index build dominates, probes hit,
  tokens are continuation-heavy.
- ``rearranged``: a 64 kbp reference and a target holding a ~0.5 Mbp spliced
  rearrangement (500 segments of 32-2,048 bp, half reverse-complemented)
  plus 256 kbp of unrelated sequence. Compress dominates; probes take the
  reverse-strand and miss paths; tokens are verbatim-heavy.
- ``reads``: a 64 kbp reference and 1,250 reads of 200 bp. Half of the
  (read, segment) pairs are decoys, and an eighth are true pairs whose read
  is an exact copy of its segment, so that the check that such pairs are
  accepted always covers a known number of them. The reads are also the
  compress target, so per-record costs dominate.

The SHD pairs of ``cohort`` and ``rearranged`` are 500 pairs made the same
way as those of ``reads``. The sweep runs on the first 64 kbp of the
reference and the first 32 kbp of the target, so that its two index builds
stay small.

The sizes are a quarter of those first planned (1 Mbp, 256 kbp, 5,000 reads):
rounds of a few seconds give each run enough of them for a steady median on
a host whose speed drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from refpack.sequence import PackedSequence, write_fasta
from refpack.synth import MutationProfile, mutate, random_sequence, spliced_rearrangement

NAMES = ("cohort", "rearranged", "reads")

K = 32
READ_LEN = 200
EXTRACT_LEN = 64
COHORT_PROFILE = MutationProfile(snp=0.01, insertion=0.0005, deletion=0.0005)
READ_PROFILE = MutationProfile(snp=0.02, insertion=0.001, deletion=0.001)
SWEEP_REFERENCE_BASES = 64_000
SWEEP_TARGET_BASES = 32_000

_ASCII = np.frombuffer(b"ACGT", dtype=np.uint8)


def ascii_of(seq: PackedSequence) -> str:
    """The generated bases as text, independent of refpack's own decoders."""
    return _ASCII[seq.codes()].tobytes().decode("ascii")


@dataclass
class Inputs:
    """One workload's generated sequences."""

    reference: PackedSequence
    targets: list[tuple[str, PackedSequence]]
    reads: list[tuple[str, PackedSequence]]
    segments: list[tuple[str, PackedSequence]]
    identical: list[bool]  # pair i is a true pair whose read equals its segment
    n_extracts: int

    @property
    def target_bases(self) -> int:
        return sum(seq.length for _, seq in self.targets)

    def sweep_reference(self) -> PackedSequence:
        return _prefix(self.reference, SWEEP_REFERENCE_BASES)

    def sweep_targets(self) -> list[tuple[str, PackedSequence]]:
        """Leading target records, cut so that they hold SWEEP_TARGET_BASES."""
        out, left = [], SWEEP_TARGET_BASES
        for name, seq in self.targets:
            if left < K:
                break
            piece = _prefix(seq, left)
            out.append((name, piece))
            left -= piece.length
        return out


@dataclass(frozen=True)
class Files:
    """Paths of one workload's FASTA inputs and command outputs."""

    reference: Path
    target: Path
    reads: Path
    segments: Path
    sweep_reference: Path
    sweep_target: Path
    index: Path
    container: Path
    decompressed: Path

    @classmethod
    def under(cls, directory: Path) -> "Files":
        return cls(
            *(directory / name for name in (
                "reference.fa", "target.fa", "reads.fa", "segments.fa",
                "sweep_reference.fa", "sweep_target.fa",
                "reference.bidx", "target.bnc", "decompressed.fa",
            ))
        )


def _prefix(seq: PackedSequence, n: int) -> PackedSequence:
    return seq if seq.length <= n else PackedSequence.from_codes(seq.codes()[:n])


def _sized(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _shd_pairs(reference: PackedSequence, n_pairs: int, rng: np.random.Generator):
    """Reads mutated from reference segments; half are paired with a decoy and
    an eighth are true pairs whose read is an exact copy of its segment."""
    codes = reference.codes()
    span = reference.length - READ_LEN + 1
    order = rng.permutation(n_pairs)
    decoy = order < n_pairs // 2
    exact = order >= n_pairs - n_pairs // 8
    reads, segments, identical = [], [], []
    for i in range(n_pairs):
        start = int(rng.integers(0, span))
        segment = PackedSequence.from_codes(codes[start : start + READ_LEN])
        read = segment if exact[i] else mutate(segment, READ_PROFILE, rng)
        if decoy[i]:
            other = (start + READ_LEN + int(rng.integers(0, span - 2 * READ_LEN))) % span
            segment = PackedSequence.from_codes(codes[other : other + READ_LEN])
        reads.append((f"read{i:05d}", read))
        segments.append((f"seg{i:05d}", segment))
        identical.append(bool(not decoy[i] and read == segment))
    return reads, segments, identical


def generate(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Inputs of workload ``name``; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if name == "cohort":
        reference = random_sequence(_sized(256_000, scale, 4_000), rng)
        targets = [(f"ind{i}", mutate(reference, COHORT_PROFILE, rng)) for i in range(4)]
        reads, segments, identical = _shd_pairs(reference, _sized(500, scale, 20), rng)
    elif name == "rearranged":
        reference = random_sequence(_sized(64_000, scale, 4_000), rng)
        spliced = spliced_rearrangement(reference, _sized(500, scale, 10), rng, rc_fraction=0.5)
        unrelated = random_sequence(_sized(256_000, scale, 4_000), rng)
        targets = [("spliced", spliced), ("unrelated", unrelated)]
        reads, segments, identical = _shd_pairs(reference, _sized(500, scale, 20), rng)
    elif name == "reads":
        reference = random_sequence(_sized(64_000, scale, 4_000), rng)
        reads, segments, identical = _shd_pairs(reference, _sized(1_250, scale, 100), rng)
        targets = reads
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Extracts on reads are ~10x cheaper, so a round affords more of them.
    n_extracts = _sized(2_000 if name == "reads" else 500, scale, 50)
    return Inputs(reference, targets, reads, segments, identical, n_extracts)


def write_inputs(inputs: Inputs, files: Files) -> None:
    write_fasta([("reference", inputs.reference)], files.reference)
    write_fasta(inputs.targets, files.target)
    write_fasta(inputs.reads, files.reads)
    write_fasta(inputs.segments, files.segments)
    write_fasta([("reference", inputs.sweep_reference())], files.sweep_reference)
    write_fasta(inputs.sweep_targets(), files.sweep_target)
