"""Byte-for-byte golden outputs of the compressor and container writer.

``fixtures/golden.bnc`` is a container of four seeded records (k=32,
granularity 4, chains broken every 4 groups), and ``fixtures/golden.json``
holds the SHA-256 of every record's ``make_stream(...).data`` for each stride
in ``DEFAULT_S_VALUES`` (k=64, so that every stride divides k). Both were
written by the code before the array token pipeline; any change to them is a
format change. ``golden.json`` also holds digests at k=30 for the strides in
``ODD_K_S_VALUES``, which pin the tail of a k-mer or verbatim word that is not
a whole number of bytes; those were written by the code before k-mers were
read straight from the packed bytes.

``fixtures/golden_index.json`` holds what a built index means, not how its
slots are laid out: for each ``(k, stride)`` the occupied slot count, the
skipped keys, the load factor and a SHA-256 over the ``query`` result of the
forward k-mer and of its reverse complement at every reference offset. It was
written by the per-key insertion loop that preceded the batched cuckoo build;
the cases with k not a multiple of 4 were added later, from the batched build.

``fixtures/golden_index_layout.json`` does pin layout: the SHA-256 of the
saved ``.bidx`` bytes and the skipped keys of random 64 kbp references at
``LAYOUT_SEEDS`` (k=32), each of which leaves one key unplaced. It was written
by the build that still ran a scalar cuckoo loop over the keys the rounds
left pending, so it checks that dropping that loop changed no byte. Its
``k=...,stride=...`` entries were added later, written by the build that
gathered every reference k-mer with ``packed_kmers`` and sorted every claim
round: for each ``(k, stride)`` in ``LAYOUT_KS`` x ``LAYOUT_STRIDES``, one
SHA-256 over the saved bytes of prefixes of one random reference, at every
length residue mod 4 on both sides of a capacity power of two
(``LAYOUT_KEYS`` keys, where the load factor is exactly 0.5, and one more),
with each prefix's skipped keys; and a tandem-repeat and an all-``A``
reference at every ``k``.

Regenerate, only for an intended format change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from refpack import (
    CompressParams,
    MutationProfile,
    build_index,
    compress,
    make_stream,
    mutate,
    random_sequence,
    sequence_checksum,
    spliced_rearrangement,
    write_container,
)
from refpack.bench import DEFAULT_S_VALUES
from refpack.sequence import (
    PackedSequence, concat_sequences, kmer_at, reverse_complement_sequence
)

FIXTURES = Path(__file__).parent / "fixtures"
GRANULARITY = 4
INDEX_CASES = ((16, 1), (32, 4), (15, 1), (30, 3))
ODD_K = 30
ODD_K_S_VALUES = (3, 5, 15)
LAYOUT_SEEDS = (1003, 1016)
LAYOUT_KS = (15, 16, 30, 32, 64)
LAYOUT_STRIDES = (1, 2, 3, 5)
LAYOUT_KEYS = (16, 2048)


def golden_inputs():
    rng = np.random.default_rng(0x601D)
    reference = random_sequence(8_000, rng)
    targets = {
        "snp": mutate(reference, MutationProfile(snp=0.01, insertion=0.001, deletion=0.001), rng),
        "spliced": spliced_rearrangement(reference, 16, rng, rc_fraction=0.5, max_len=600),
        "unrelated": random_sequence(1_000, rng),
        "short": random_sequence(21, rng),
    }
    return reference, targets


def golden_container(reference, targets) -> bytes:
    params = CompressParams(k=32, s=16)
    index = build_index(reference, params.k)
    records = [
        (name, compress(target, index, reference, params, break_every_groups=GRANULARITY))
        for name, target in targets.items()
    ]
    buf = io.BytesIO()
    write_container(records, params, sequence_checksum(reference), buf, granularity=GRANULARITY)
    return buf.getvalue()


def golden_digests(reference, targets) -> dict[str, dict[str, str]]:
    checksum = sequence_checksum(reference)
    out = {}
    for k, strides, label in ((64, DEFAULT_S_VALUES, "s={s}"), (ODD_K, ODD_K_S_VALUES, "k={k},s={s}")):
        index = build_index(reference, k)
        for s in strides:
            params = CompressParams(k=k, s=s)
            out[label.format(k=k, s=s)] = {
                name: hashlib.sha256(
                    make_stream(compress(target, index, reference, params), params, checksum).data
                ).hexdigest()
                for name, target in targets.items()
            }
    return out


def golden_index_reference():
    """A reference with a duplicated half, a tandem repeat and a palindrome.

    The 64-base palindrome is its own reverse complement; its centred 16-mer
    and 32-mer start on offsets aligned to both strides in ``INDEX_CASES``.
    """
    rng = np.random.default_rng(0xB1D5)
    half = random_sequence(1_200, rng)
    tandem = concat_sequences([random_sequence(7, rng)] * 40)
    arm = random_sequence(32, rng)
    palindrome = concat_sequences([arm, reverse_complement_sequence(arm)])
    return concat_sequences(
        [half, half, tandem, random_sequence(100, rng), palindrome, random_sequence(200, rng)]
    )


def golden_index_meaning(reference) -> dict[str, dict]:
    out = {}
    for k, stride in INDEX_CASES:
        index = build_index(reference, k, sampling_stride=stride)
        digest = hashlib.sha256()
        for off in range(reference.length - k + 1):
            kmer = kmer_at(reference, off, k)
            for query in (kmer, kmer.reverse_complement()):
                hit = index.query(reference, query)
                digest.update(b"-" if hit is None else f"{hit.orientation.name[0]}{hit.offset}".encode())
            digest.update(b"\n")
        out[f"k={k},stride={stride}"] = {
            "occupied": index.occupied,
            "skipped_keys": index.skipped_keys,
            "load_factor": index.load_factor,
            "query_sha256": digest.hexdigest(),
        }
    return out


def layout_lengths(k: int, stride: int) -> list[int]:
    """Reference lengths at each residue mod 4, just below and just above
    each capacity threshold of ``LAYOUT_KEYS``."""
    lengths = []
    for keys in LAYOUT_KEYS:
        full = k + (keys - 1) * stride  # ``keys`` keys: load factor 0.5
        lengths += [full - j for j in range(4)] + [full + stride + j for j in range(4)]
    return lengths


def _layout_entry(builds) -> dict:
    digest = hashlib.sha256()
    skipped = []
    for reference, k, stride in builds:
        index = build_index(reference, k, sampling_stride=stride)
        buf = io.BytesIO()
        index.save(buf)
        digest.update(buf.getvalue())
        skipped.append(index.skipped_keys)
    return {"bidx_sha256": digest.hexdigest(), "skipped_keys": skipped}


def golden_index_layout() -> dict[str, dict]:
    out = {}
    for seed in LAYOUT_SEEDS:
        index = build_index(random_sequence(64_000, np.random.default_rng(seed)), 32)
        buf = io.BytesIO()
        index.save(buf)
        out[f"seed={seed}"] = {
            "bidx_sha256": hashlib.sha256(buf.getvalue()).hexdigest(),
            "skipped_keys": index.skipped_keys,
        }
    rng = np.random.default_rng(0x1A70)
    codes = random_sequence(max(LAYOUT_KS) + LAYOUT_KEYS[-1] * max(LAYOUT_STRIDES) + 8, rng).codes()
    tandem = concat_sequences(
        [random_sequence(300, rng)] + [random_sequence(7, rng)] * 400 + [random_sequence(300, rng)]
    )
    all_a = PackedSequence.from_codes(np.zeros(3_001, dtype=np.uint8))
    for k in LAYOUT_KS:
        for stride in LAYOUT_STRIDES:
            out[f"k={k},stride={stride}"] = _layout_entry(
                (PackedSequence.from_codes(codes[:n]), k, stride) for n in layout_lengths(k, stride)
            )
        out[f"k={k},tandem,all_a"] = _layout_entry(
            [(tandem, k, 1), (tandem, k, 3), (all_a, k, 1), (all_a, k, 2)]
        )
    return out


def test_golden_container_bytes():
    reference, targets = golden_inputs()
    assert golden_container(reference, targets) == (FIXTURES / "golden.bnc").read_bytes()


def test_golden_stream_digests():
    reference, targets = golden_inputs()
    expected = json.loads((FIXTURES / "golden.json").read_text())
    assert golden_digests(reference, targets) == expected


def test_golden_index_meaning():
    expected = json.loads((FIXTURES / "golden_index.json").read_text())
    assert golden_index_meaning(golden_index_reference()) == expected


def test_golden_index_layout():
    expected = json.loads((FIXTURES / "golden_index_layout.json").read_text())
    assert golden_index_layout() == expected


if __name__ == "__main__":
    reference, targets = golden_inputs()
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "golden.bnc").write_bytes(golden_container(reference, targets))
    (FIXTURES / "golden.json").write_text(
        json.dumps(golden_digests(reference, targets), indent=1, sort_keys=True) + "\n"
    )
    (FIXTURES / "golden_index.json").write_text(
        json.dumps(golden_index_meaning(golden_index_reference()), indent=1, sort_keys=True) + "\n"
    )
    (FIXTURES / "golden_index_layout.json").write_text(
        json.dumps(golden_index_layout(), indent=1, sort_keys=True) + "\n"
    )
