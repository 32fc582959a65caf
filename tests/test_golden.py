"""Byte-for-byte golden outputs of the compressor and container writer.

``fixtures/golden.bnc`` is a container of four seeded records (k=32,
granularity 4, chains broken every 4 groups), and ``fixtures/golden.json``
holds the SHA-256 of every record's ``make_stream(...).data`` for each stride
in ``DEFAULT_S_VALUES`` (k=64, so that every stride divides k). Both were
written by the code before the array token pipeline; any change to them is a
format change. Regenerate, only for an intended format change, with
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

FIXTURES = Path(__file__).parent / "fixtures"
GRANULARITY = 4


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
    index = build_index(reference, 64)
    checksum = sequence_checksum(reference)
    out = {}
    for s in DEFAULT_S_VALUES:
        params = CompressParams(k=64, s=s)
        out[f"s={s}"] = {
            name: hashlib.sha256(
                make_stream(compress(target, index, reference, params), params, checksum).data
            ).hexdigest()
            for name, target in targets.items()
        }
    return out


def test_golden_container_bytes():
    reference, targets = golden_inputs()
    assert golden_container(reference, targets) == (FIXTURES / "golden.bnc").read_bytes()


def test_golden_stream_digests():
    reference, targets = golden_inputs()
    expected = json.loads((FIXTURES / "golden.json").read_text())
    assert golden_digests(reference, targets) == expected


if __name__ == "__main__":
    reference, targets = golden_inputs()
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "golden.bnc").write_bytes(golden_container(reference, targets))
    (FIXTURES / "golden.json").write_text(
        json.dumps(golden_digests(reference, targets), indent=1, sort_keys=True) + "\n"
    )
