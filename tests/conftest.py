import contextlib

import numpy as np
import pytest

from refpack import CompressParams, PackedSequence, build_index, random_sequence

REF_LEN = 30_000


@pytest.fixture(scope="session")
def reference():
    return random_sequence(REF_LEN, np.random.default_rng(0xC0FFEE))


@pytest.fixture(scope="session")
def index64(reference):
    return build_index(reference, 64)


@pytest.fixture
def params():
    return CompressParams(k=64, s=16)


@pytest.fixture
def forbid_unpack(monkeypatch):
    """A context manager under which any ``PackedSequence.codes()`` call, and
    so any unpacking of a sequence to one byte per base, fails the test."""

    def unpacked(self):
        raise AssertionError(f"unpacked a sequence of {self.length} bases")

    @contextlib.contextmanager
    def forbidden():
        with monkeypatch.context() as patch:
            patch.setattr(PackedSequence, "codes", unpacked)
            yield

    return forbidden
