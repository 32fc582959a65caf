"""2-bit nucleotide sequences, FASTA ingestion, and k-mer extraction.

Packing convention: A=00, C=01, G=10, T=11. Base j of a byte occupies bits
[2j+1:2j], so base 0 sits in the lowest two bits ("ACGT" packs to 0xE4).
Complementing a base is bitwise NOT of its 2-bit code. Unused high bits of
the final byte are always zero.

The ".2bit-raw" interchange format is an 8-byte little-endian base count
followed by the packed bytes.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence, Union

import numpy as np

from .errors import FastaParseError

CODE_TO_ASCII = b"ACGT"

_ASCII_TO_CODE = np.full(256, 0xFF, dtype=np.uint8)
for _i, _c in enumerate(CODE_TO_ASCII):
    _ASCII_TO_CODE[_c] = _i
    _ASCII_TO_CODE[_c + 32] = _i  # lowercase

# IUPAC one-letter ambiguity codes (everything legal in a FASTA sequence line
# that is not a concrete A/C/G/T). U is RNA uracil and treated the same way.
_IUPAC_AMBIGUOUS = b"NRYSWKMBDHVU"
_IS_AMBIGUOUS = np.zeros(256, dtype=bool)
for _c in _IUPAC_AMBIGUOUS:
    _IS_AMBIGUOUS[_c] = True
    _IS_AMBIGUOUS[_c + 32] = True

# code byte -> complemented code byte for 1-byte-per-base arrays
_COMP_TABLE = bytes((c ^ 3) if c < 4 else 0 for c in range(256))

# packed byte -> packed byte with its four 2-bit codes complemented and reversed
_REVCOMP_BYTE = bytes(
    (((b >> 6) & 3) ^ 3)
    | (((((b >> 4) & 3) ^ 3)) << 2)
    | (((((b >> 2) & 3) ^ 3)) << 4)
    | (((b & 3) ^ 3) << 6)
    for b in range(256)
)

_UNPACK_SHIFTS = np.arange(0, 8, 2, dtype=np.uint8)


def _pack_code_array(codes: np.ndarray) -> bytes:
    """Pack an array of 2-bit codes, four per byte, base 0 in the low bits."""
    n = codes.size
    pad = (-n) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quad = codes.reshape(-1, 4)
    packed = quad[:, 0] | (quad[:, 1] << 2) | (quad[:, 2] << 4) | (quad[:, 3] << 6)
    return packed.astype(np.uint8).tobytes()


def _unpack_to_codes(data: bytes, length: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    codes = ((raw[:, None] >> _UNPACK_SHIFTS) & 3).reshape(-1)
    return codes[:length].copy()


class PackedSequence:
    """Immutable 2-bit packed nucleotide sequence."""

    __slots__ = ("data", "length", "_codes", "_codes_bytes", "_checksum")

    def __init__(self, data: bytes, length: int):
        if length < 0:
            raise ValueError("negative sequence length")
        expected = (length + 3) // 4
        if len(data) != expected:
            raise ValueError(
                f"packed size mismatch: {len(data)} bytes for {length} bases "
                f"(expected {expected})"
            )
        if length % 4 and data and (data[-1] >> (2 * (length % 4))):
            raise ValueError("nonzero padding bits in final packed byte")
        self.data = bytes(data)
        self.length = length
        self._codes: np.ndarray | None = None
        self._codes_bytes: bytes | None = None
        self._checksum: bytes | None = None

    @classmethod
    def from_codes(cls, codes: np.ndarray | Sequence[int]) -> "PackedSequence":
        arr = np.asarray(codes, dtype=np.uint8)
        if arr.size and arr.max() > 3:
            bad = int(np.argmax(arr > 3))
            raise ValueError(f"base code out of range at position {bad}")
        seq = cls(_pack_code_array(arr), int(arr.size))
        seq._codes = arr.copy()
        seq._codes.setflags(write=False)
        return seq

    def codes(self) -> np.ndarray:
        """One uint8 code per base (read-only view, cached)."""
        if self._codes is None:
            arr = _unpack_to_codes(self.data, self.length)
            arr.setflags(write=False)
            self._codes = arr
        return self._codes

    def codes_bytes(self) -> bytes:
        """One byte per base, values 0..3 (cached)."""
        if self._codes_bytes is None:
            self._codes_bytes = self.codes().tobytes()
        return self._codes_bytes

    def to_ascii(self) -> str:
        return self.codes_bytes().translate(bytes.maketrans(bytes([0, 1, 2, 3]), CODE_TO_ASCII)).decode("ascii")

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSequence):
            return NotImplemented
        return self.length == other.length and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.data, self.length))

    def __repr__(self) -> str:
        head = self.to_ascii() if self.length <= 24 else self.to_ascii()[:21] + "..."
        return f"PackedSequence({head!r}, length={self.length})"


def pack_bases(text: str | bytes) -> PackedSequence:
    """Pack an ASCII A/C/G/T string. Any other character is an error."""
    raw = text.encode("ascii") if isinstance(text, str) else bytes(text)
    arr = np.frombuffer(raw, dtype=np.uint8)
    codes = _ASCII_TO_CODE[arr]
    bad = codes == 0xFF
    if bad.any():
        pos = int(np.argmax(bad))
        raise ValueError(f"non-ACGT character {chr(raw[pos])!r} at position {pos}")
    return PackedSequence(_pack_code_array(codes), len(raw))


def unpack_bases(seq: PackedSequence) -> str:
    return seq.to_ascii()


def concat_sequences(parts: Iterable[PackedSequence]) -> PackedSequence:
    chunks = [p.codes() for p in parts]
    if not chunks:
        return PackedSequence(b"", 0)
    return PackedSequence.from_codes(np.concatenate(chunks))


def reverse_complement_sequence(seq: PackedSequence) -> PackedSequence:
    return PackedSequence.from_codes((seq.codes()[::-1]) ^ 3)


@dataclass(frozen=True)
class Kmer:
    """A k-mer packed into an integer, base 0 in the lowest two bits.

    Bits at and above 2*k are always zero.
    """

    packed: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.packed < 0 or self.packed >> (2 * self.k):
            raise ValueError("packed value out of range for k")

    @property
    def nbytes(self) -> int:
        return (2 * self.k + 7) // 8

    def bytes_le(self) -> bytes:
        """Packed little-endian bytes; this is the hashing input."""
        return self.packed.to_bytes(self.nbytes, "little")

    def to_codes(self) -> bytes:
        """One byte per base, values 0..3."""
        return _unpack_to_codes(self.bytes_le(), self.k).tobytes()

    def to_ascii(self) -> str:
        return bytes(CODE_TO_ASCII[c] for c in self.to_codes()).decode("ascii")

    @property
    def low4(self) -> int:
        """Low 4 bits of the packed value (bases 0 and 1)."""
        return self.packed & 0xF

    def reverse_complement(self) -> "Kmer":
        flipped = self.bytes_le().translate(_REVCOMP_BYTE)
        value = int.from_bytes(flipped[::-1], "little")
        value >>= 2 * (4 * self.nbytes - self.k)
        return Kmer(value, self.k)


def kmer_at(seq: PackedSequence, offset: int, k: int) -> Kmer:
    """Extract the k-mer starting at ``offset``."""
    if k < 1:
        raise ValueError("k must be positive")
    if offset < 0 or offset + k > seq.length:
        raise ValueError(
            f"k-mer out of range: offset {offset}, k {k}, sequence length {seq.length}"
        )
    window = seq.codes()[offset : offset + k]
    packed = int.from_bytes(_pack_code_array(window), "little")
    return Kmer(packed, k)


def reverse_complement(seq: PackedSequence, start: int, k: int) -> Kmer:
    """Reverse complement of the k bases starting at ``start``."""
    return kmer_at(seq, start, k).reverse_complement()


def sequence_checksum(seq: PackedSequence) -> bytes:
    """32-byte digest identifying a sequence (SHA-256 over length + packed bytes).

    Computed once per sequence object and cached: ``data`` and ``length`` are
    only set by the constructor.
    """
    if seq._checksum is None:
        h = hashlib.sha256()
        h.update(seq.length.to_bytes(8, "little"))
        h.update(seq.data)
        seq._checksum = h.digest()
    return seq._checksum


@dataclass
class FastaRecord:
    id: str
    seq: PackedSequence
    replaced: int = 0  # ambiguity codes rewritten to 'A' during ingestion


def parse_fasta(data: Union[str, bytes], *, strict: bool = False) -> list[FastaRecord]:
    """Parse FASTA text into packed records.

    Headers start with '>'; sequence lines may be folded and mixed-case.
    IUPAC ambiguity letters (N, R, Y, ...) are rewritten to 'A' and counted
    per record, unless ``strict`` is set, in which case they are an error.
    Characters that are not IUPAC nucleotide letters are always an error.
    """
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")

    records: list[FastaRecord] = []
    cur_id: str | None = None
    cur_chunks: list[np.ndarray] = []
    cur_replaced = 0
    cur_header_line = 0

    def finish(line_no: int):
        nonlocal cur_id, cur_chunks, cur_replaced
        if cur_id is None:
            return
        total = sum(c.size for c in cur_chunks)
        if total == 0:
            raise FastaParseError(f"record {cur_id!r} has no sequence data", cur_header_line)
        codes = np.concatenate(cur_chunks)
        records.append(FastaRecord(cur_id, PackedSequence.from_codes(codes), cur_replaced))
        cur_id, cur_chunks, cur_replaced = None, [], 0

    for line_no, raw_line in enumerate(data.split(b"\n"), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            finish(line_no)
            cur_id = line[1:].strip().decode("utf-8", errors="replace")
            cur_header_line = line_no
            if not cur_id:
                raise FastaParseError("empty record id", line_no)
            continue
        if line.startswith(b";"):  # old-style comment line
            continue
        if cur_id is None:
            raise FastaParseError("sequence data before any '>' header", line_no)
        arr = np.frombuffer(line, dtype=np.uint8)
        codes = _ASCII_TO_CODE[arr]
        invalid = codes == 0xFF
        if invalid.any():
            ambiguous = invalid & _IS_AMBIGUOUS[arr]
            junk = invalid & ~ambiguous
            if junk.any():
                pos = int(np.argmax(junk))
                raise FastaParseError(
                    f"invalid sequence character {chr(arr[pos])!r}", line_no
                )
            if strict:
                pos = int(np.argmax(ambiguous))
                raise FastaParseError(
                    f"ambiguous base {chr(arr[pos])!r} rejected in strict mode", line_no
                )
            cur_replaced += int(ambiguous.sum())
            codes = np.where(ambiguous, np.uint8(0), codes)
        cur_chunks.append(codes)

    finish(line_no if data else 1)
    return records


def read_fasta(path: Union[str, Path], *, strict: bool = False) -> list[FastaRecord]:
    return parse_fasta(Path(path).read_bytes(), strict=strict)


def write_fasta(
    records: Iterable[tuple[str, PackedSequence]],
    dest: Union[str, Path, io.TextIOBase],
    *,
    width: int = 70,
) -> None:
    """Write records as FASTA with fixed line folding."""

    def emit(out):
        for name, seq in records:
            out.write(f">{name}\n")
            text = seq.to_ascii()
            for i in range(0, len(text), width):
                out.write(text[i : i + width])
                out.write("\n")

    if isinstance(dest, (str, Path)):
        with open(dest, "w") as out:
            emit(out)
    else:
        emit(dest)


TWOBIT_RAW_PREFIX_LEN = 8


def write_2bit_raw(seq: PackedSequence, dest: Union[str, Path, BinaryIO]) -> None:
    """Write the 8-byte little-endian base count followed by packed bytes."""
    payload = seq.length.to_bytes(TWOBIT_RAW_PREFIX_LEN, "little") + seq.data
    if isinstance(dest, (str, Path)):
        Path(dest).write_bytes(payload)
    else:
        dest.write(payload)


def read_2bit_raw(src: Union[str, Path, bytes, BinaryIO]) -> PackedSequence:
    if isinstance(src, (str, Path)):
        blob = Path(src).read_bytes()
    elif isinstance(src, bytes):
        blob = src
    else:
        blob = src.read()
    if len(blob) < TWOBIT_RAW_PREFIX_LEN:
        raise ValueError("truncated 2bit-raw input: missing base count prefix")
    length = int.from_bytes(blob[:TWOBIT_RAW_PREFIX_LEN], "little")
    return PackedSequence(blob[TWOBIT_RAW_PREFIX_LEN:], length)


def load_sequences(path: Union[str, Path], *, strict: bool = False) -> list[FastaRecord]:
    """Read a sequence file, sniffing the format.

    Files whose first non-whitespace byte is '>' or ';' parse as FASTA;
    anything else is treated as ".2bit-raw" and yields a single record named
    after the file stem.
    """
    path = Path(path)
    blob = path.read_bytes()
    head = blob.lstrip()[:1]
    if head in (b">", b";"):
        return parse_fasta(blob, strict=strict)
    return [FastaRecord(path.stem, read_2bit_raw(blob))]
