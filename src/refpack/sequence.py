"""2-bit nucleotide sequences, FASTA ingestion, and k-mer extraction.

This module owns the 2-bit format: packing, unpacking to codes or ASCII,
k-mer gathers and the reverse complement. A ``PackedSequence`` holds only
its packed bytes; ``codes()`` unpacks on every call, so callers hoist it.

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
# ASCII -> the base-4 digit of its code, or "!" where it is not A/C/G/T
_ASCII_TO_DIGIT = bytes(
    b"0123"[_ASCII_TO_CODE[_b]] if _ASCII_TO_CODE[_b] < 4 else ord("!") for _b in range(256)
)

# IUPAC one-letter ambiguity codes (everything legal in a FASTA sequence line
# that is not a concrete A/C/G/T). U is RNA uracil and treated the same way.
_IUPAC_AMBIGUOUS = b"NRYSWKMBDHVU"
_IS_AMBIGUOUS = np.zeros(256, dtype=bool)
for _c in _IUPAC_AMBIGUOUS:
    _IS_AMBIGUOUS[_c] = True
    _IS_AMBIGUOUS[_c + 32] = True

_UNPACK_SHIFTS = np.arange(0, 8, 2, dtype=np.uint8)


def _pack_code_array(codes: np.ndarray) -> bytes:
    """Pack an array of 2-bit codes, four per byte, base 0 in the low bits.

    Codes c0..c3 read as one little-endian word q hold cj at bit 8j. Then
    q | q >> 6 holds c1 at bit 2 and c3 at bit 18, and OR-ing that with itself
    shifted down by 12 moves c2 and c3 to bits 4 and 6. No other code lands in
    the low byte, since every code is below 4. A last partial byte is packed
    on its own.
    """
    whole = codes.size - codes.size % 4
    q = np.ascontiguousarray(codes[:whole]).view("<u4")
    q = q | (q >> 6)
    q |= q >> 12
    packed = q.astype(np.uint8).tobytes()
    if whole < codes.size:
        packed += bytes([sum(c << 2 * j for j, c in enumerate(codes[whole:].tolist()))])
    return packed


# packed byte -> a word whose four bytes are its 2-bit codes, base 0 first
# (one word gathers faster than four bytes, and ``take`` faster than indexing)
_BYTE_CODES = (
    ((np.arange(256)[:, None] >> _UNPACK_SHIFTS) & 3).astype(np.uint8).view(np.uint32).ravel()
)
# packed byte -> a word whose four bytes are its bases as ASCII letters
_BYTE_ASCII = np.frombuffer(CODE_TO_ASCII, dtype=np.uint8)[_BYTE_CODES.view(np.uint8)].view(np.uint32)
# packed byte -> packed byte with its four 2-bit codes complemented and reversed
_REVCOMP_BYTE = _pack_code_array(3 - _BYTE_CODES.view(np.uint8).reshape(-1, 4)[:, ::-1].ravel())
_REVCOMP_TABLE = np.frombuffer(_REVCOMP_BYTE, dtype=np.uint8)


def unpack_rows(rows: np.ndarray) -> np.ndarray:
    """(n, m) packed bytes -> (n, 4m) base codes (or m bytes -> 4m codes)."""
    return _BYTE_CODES.take(rows).view(np.uint8)


def _unpack_ascii(data: bytes, length: int) -> str:
    """The first ``length`` bases of packed ``data`` as A/C/G/T text."""
    return _BYTE_ASCII.take(np.frombuffer(data, dtype=np.uint8)).tobytes()[:length].decode("ascii")


def _reverse_complement_int(data: bytes, length: int) -> int:
    """The reverse complement of the ``length`` bases packed in ``data``, as an int:
    each byte complemented with its bases reversed, the bytes read big-endian,
    and the tail's (-length) % 4 pad bases, now at the front, shifted out."""
    return int.from_bytes(data.translate(_REVCOMP_BYTE), "big") >> 2 * (-length % 4)


def reverse_complement_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Packed reverse complements of (n, ceil(k / 4)) packed k-mer rows.

    The row form of ``_reverse_complement_int``: the tail's pad bases are
    shifted out through u16 pairs of adjacent bytes, as in ``packed_kmers``.
    """
    n, m = rows.shape
    pad = -k % 4
    if not pad:
        return _REVCOMP_TABLE[rows[:, ::-1]]
    flipped = np.zeros((n, m + 1), dtype=np.uint8)
    flipped[:, :m] = _REVCOMP_TABLE[rows[:, ::-1]]
    pairs = np.ndarray((n, m), "<u2", flipped, strides=(m + 1, 1))
    return (pairs >> 2 * pad).astype(np.uint8)


# Start within its first byte -> the shift that brings base 0 down.
_PAIR_SHIFTS = np.arange(0, 8, 2, dtype=np.uint16)


def _pair_rows(raw: np.ndarray, n: int) -> np.ndarray:
    """View whose row i holds n little-endian u16s: bytes i + j and i + j + 1."""
    return np.ndarray((max(raw.size - n, 0), n), "<u2", raw, strides=(1, 1))


def packed_kmers(data, starts: np.ndarray, width: int) -> np.ndarray:
    """(n, ceil(width / 4)) packed bytes of the ``width``-base windows at ``starts``.

    ``data`` is any buffer of 2-bit packed bases. Row i is the bytes under
    window i shifted down by 2 * (starts[i] % 4) bits, so that the window's
    base 0 sits in the low bits of its first byte, as in ``Kmer.bytes_le``.
    Bits past ``width`` are zero and bytes past the end of ``data`` read as
    zero. Only the bytes under the windows are read.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n_bytes = (width + 3) // 4
    first = starts >> 2
    # Byte j of a row is the low byte of the pair of bytes first + j and
    # first + j + 1, shifted. Rows that reach the last byte (row ``cut`` of
    # the pair view and on) read their pairs from a zero-padded copy of the
    # buffer's tail instead.
    pairs = _pair_rows(raw, n_bytes)
    cut = pairs.shape[0]
    edge = np.flatnonzero(first >= cut)
    if edge.size:
        tail = np.zeros(raw.size - cut + n_bytes + 1, dtype=np.uint8)
        tail[: raw.size - cut] = raw[cut:]
        tail_pairs = _pair_rows(tail, n_bytes)[np.minimum(first[edge], raw.size) - cut]
        if edge.size == first.size:
            pairs = tail_pairs
        else:
            pairs = pairs[np.minimum(first, cut - 1)]
            pairs[edge] = tail_pairs
    else:
        pairs = pairs[first]
    pairs >>= _PAIR_SHIFTS[starts & 3][:, None]
    rows = pairs.astype(np.uint8)
    if width % 4:
        rows[:, -1] &= (1 << 2 * (width % 4)) - 1
    return rows


class PackedSequence:
    """Immutable 2-bit packed nucleotide sequence: its packed bytes and length."""

    __slots__ = ("data", "length", "_checksum")

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
        self._checksum: bytes | None = None

    @classmethod
    def from_codes(cls, codes: np.ndarray | Sequence[int]) -> "PackedSequence":
        arr = np.asarray(codes, dtype=np.uint8)
        if arr.size and arr.max() > 3:
            bad = int(np.argmax(arr > 3))
            raise ValueError(f"base code out of range at position {bad}")
        return cls(_pack_code_array(arr), int(arr.size))

    def codes(self) -> np.ndarray:
        """One uint8 code per base, unpacked anew on every call."""
        return unpack_rows(np.frombuffer(self.data, dtype=np.uint8))[: self.length]

    def to_ascii(self) -> str:
        return _unpack_ascii(self.data, self.length)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSequence):
            return NotImplemented
        return self.length == other.length and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.data, self.length))

    def __repr__(self) -> str:
        head = _unpack_ascii(self.data[:6], min(self.length, 24))
        head = head if self.length <= 24 else head[:21] + "..."
        return f"PackedSequence({head!r}, length={self.length})"


def _split_packed(codes: np.ndarray, lengths: Sequence[int]) -> list[PackedSequence]:
    """Pack a buffer of runs of base codes in one pass and cut it per run.

    Run i holds ``lengths[i]`` codes followed by zero codes up to a multiple
    of 4, so that every run starts on a byte of the packed buffer. The codes
    are not checked to be 0-3.
    """
    data = _pack_code_array(codes)
    seqs = []
    start = 0
    for n in lengths:
        stop = start + (n + 3) // 4
        seqs.append(PackedSequence(data[start:stop], n))
        start = stop
    return seqs


def pack_code_runs(runs: Sequence[np.ndarray]) -> list[PackedSequence]:
    """A ``PackedSequence`` of each run of base codes, packed in one pass.

    Unlike ``from_codes``, this does not check that the codes are 0-3: it is
    for codes that refpack itself produced, such as a decoder's output.
    """
    padded = [(run.size + 3) // 4 * 4 for run in runs]
    starts = np.cumsum([0, *padded]).tolist()
    joined = np.zeros(starts[-1], dtype=np.uint8)
    for run, start in zip(runs, starts):
        joined[start : start + run.size] = run
    return _split_packed(joined, [run.size for run in runs])


def pack_bases(text: str | bytes) -> PackedSequence:
    """Pack an ASCII A/C/G/T string. Any other character is an error.

    Base i is base-4 digit i of one int, read from the reversed digit string.
    """
    raw = text.encode("ascii") if isinstance(text, str) else bytes(text)
    digits = raw.translate(_ASCII_TO_DIGIT)
    pos = digits.find(b"!")
    if pos >= 0:
        raise ValueError(f"non-ACGT character {chr(raw[pos])!r} at position {pos}")
    value = int(digits[::-1], 4) if raw else 0
    return PackedSequence(value.to_bytes((len(raw) + 3) // 4, "little"), len(raw))


def concat_sequences(parts: Iterable[PackedSequence]) -> PackedSequence:
    """The parts joined in order; a lone part is returned as it is."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    codes = [p.codes() for p in parts]
    return PackedSequence.from_codes(np.concatenate(codes) if codes else codes)


def reverse_complement_sequence(seq: PackedSequence) -> PackedSequence:
    value = _reverse_complement_int(seq.data, seq.length)
    return PackedSequence(value.to_bytes(len(seq.data), "little"), seq.length)


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

    def bytes_le(self) -> bytes:
        """Packed little-endian bytes; this is the hashing input."""
        return self.packed.to_bytes((self.k + 3) // 4, "little")

    def to_ascii(self) -> str:
        return _unpack_ascii(self.bytes_le(), self.k)

    @property
    def low4(self) -> int:
        """Low 4 bits of the packed value (bases 0 and 1)."""
        return self.packed & 0xF

    def reverse_complement(self) -> "Kmer":
        return Kmer(_reverse_complement_int(self.bytes_le(), self.k), self.k)


def kmer_at(seq: PackedSequence, offset: int, k: int) -> Kmer:
    """The k-mer starting at ``offset``, read from the packed bytes."""
    if k < 1:
        raise ValueError("k must be positive")
    if offset < 0 or offset + k > seq.length:
        raise ValueError(
            f"k-mer out of range: offset {offset}, k {k}, sequence length {seq.length}"
        )
    value = int.from_bytes(seq.data[offset >> 2 : (offset + k + 3) >> 2], "little")
    return Kmer((value >> 2 * (offset & 3)) & ((1 << 2 * k) - 1), k)


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


@dataclass(slots=True)
class FastaRecord:
    id: str
    seq: PackedSequence
    replaced: int = 0  # ambiguity codes rewritten to 'A' during ingestion


# Sequence bytes at which ``parse_fasta`` maps, checks and packs the records
# read so far; it bounds the batch's temporaries for files of many records.
_FASTA_BATCH_BYTES = 1 << 18


def parse_fasta(data: Union[str, bytes], *, strict: bool = False) -> list[FastaRecord]:
    """Parse FASTA text into packed records.

    Headers start with '>'; sequence lines may be folded and mixed-case.
    IUPAC ambiguity letters (N, R, Y, ...) are rewritten to 'A' and counted
    per record, unless ``strict`` is set, in which case they are an error.
    Characters that are not IUPAC nucleotide letters are always an error.
    The first faulty line of the file is the one reported.

    One pass over the lines collects each record's stripped sequence lines,
    the last one padded with 'A' to a whole packed byte. Once a batch of
    whole records holds ``_FASTA_BATCH_BYTES`` such bytes, it is joined,
    mapped and checked with one table lookup, and packed in one pass.
    """
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")

    records: list[FastaRecord] = []
    # the pending batch: whole records and their sequence lines
    ids: list[str] = []
    lengths: list[int] = []
    lines: list[bytes] = []
    line_nos: list[int] = []
    pending = 0

    def end_record(
        record_id: str | None, length: int, header_line: int
    ) -> FastaParseError | None:
        nonlocal pending
        if record_id is None:
            return None
        if not length:
            return FastaParseError(f"record {record_id!r} has no sequence data", header_line)
        ids.append(record_id)
        lengths.append(length)
        if length % 4:
            lines[-1] += b"A" * (-length % 4)
        pending += length
        if pending >= _FASTA_BATCH_BYTES:
            records.extend(_pack_fasta_batch(ids, lengths, lines, line_nos, strict))
            del ids[:], lengths[:], lines[:], line_nos[:]
            pending = 0
        return None

    cur_id: str | None = None
    cur_length = cur_header_line = 0
    error: FastaParseError | None = None
    for line_no, raw_line in enumerate(data.split(b"\n"), start=1):
        line = raw_line.strip()
        if not line or line[0] == 59:  # blank, or an old-style ';' comment
            continue
        if line[0] == 62:  # '>' header
            error = end_record(cur_id, cur_length, cur_header_line)
            if error is not None:
                break
            cur_id = line[1:].strip().decode("utf-8", errors="replace")
            cur_length, cur_header_line = 0, line_no
            if not cur_id:
                error = FastaParseError("empty record id", line_no)
                break
        elif cur_id is None:
            error = FastaParseError("sequence data before any '>' header", line_no)
            break
        else:
            lines.append(line)
            line_nos.append(line_no)
            cur_length += len(line)
    else:
        error = end_record(cur_id, cur_length, cur_header_line)

    # A bad byte on a line before a structural error is reported first.
    if lines:
        records.extend(_pack_fasta_batch(ids, lengths, lines, line_nos, strict))
    if error is not None:
        raise error
    return records


def _pack_fasta_batch(
    ids: list[str], lengths: list[int], lines: list[bytes], line_nos: list[int], strict: bool
) -> list[FastaRecord]:
    """Map, check and pack a batch of whole records; the first bad line raises.

    ``lines`` are the records' sequence lines in file order, each record's
    last line padded with 'A' (code 0) to a multiple of 4 bases.
    """
    arr = np.frombuffer(b"".join(lines), dtype=np.uint8)
    codes = _ASCII_TO_CODE[arr]
    invalid = codes == 0xFF
    replaced = [0] * len(ids)
    if invalid.any():
        ambiguous = invalid & _IS_AMBIGUOUS[arr]
        junk = invalid & ~ambiguous
        bad = invalid if strict else junk
        if bad.any():
            # Locate the line of the first bad byte; within that line, junk
            # is reported before an ambiguity letter. The padding 'A's are
            # valid, so they never raise.
            ends = np.cumsum([len(line) for line in lines])
            i = int(np.searchsorted(ends, int(np.argmax(bad)), side="right"))
            span = slice(ends[i] - len(lines[i]), ends[i])
            if junk[span].any():
                pos = span.start + int(np.argmax(junk[span]))
                raise FastaParseError(f"invalid sequence character {chr(arr[pos])!r}", line_nos[i])
            pos = span.start + int(np.argmax(ambiguous[span]))
            raise FastaParseError(
                f"ambiguous base {chr(arr[pos])!r} rejected in strict mode", line_nos[i]
            )
        record_ends = np.cumsum([(n + 3) // 4 * 4 for n in lengths])
        replaced = np.diff(np.cumsum(ambiguous)[record_ends - 1], prepend=0).tolist()
        codes[ambiguous] = 0
    return [FastaRecord(*fields) for fields in zip(ids, _split_packed(codes, lengths), replaced)]


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


def read_bytes(src: Union[str, Path, bytes, BinaryIO]) -> bytes:
    """The bytes of a path, of ``bytes`` as given, or what a file object reads."""
    if isinstance(src, (str, Path)):
        return Path(src).read_bytes()
    if isinstance(src, bytes):
        return src
    return src.read()


def write_bytes(dest: Union[str, Path, BinaryIO], *parts) -> None:
    """Write ``parts`` in order to a path or a binary file object, unjoined."""
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") as out:
            out.writelines(parts)
    else:
        dest.writelines(parts)


def write_2bit_raw(seq: PackedSequence, dest: Union[str, Path, BinaryIO]) -> None:
    """Write the 8-byte little-endian base count followed by packed bytes."""
    write_bytes(dest, seq.length.to_bytes(TWOBIT_RAW_PREFIX_LEN, "little"), seq.data)


def read_2bit_raw(src: Union[str, Path, bytes, BinaryIO]) -> PackedSequence:
    blob = read_bytes(src)
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
