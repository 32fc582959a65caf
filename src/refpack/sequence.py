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

FASTA goes both ways about 256 KiB at a time, so that a file of many short
records costs little Python per record and one long record does not need its
whole text in memory. ``parse_fasta`` reads a window of whole lines at a time
with no Python step per line: one ``bytes.translate`` gives every byte its
class (base code, '\n', space, ambiguity letter, '>', ';' or junk), array
passes over the non-base bytes alone find, strip and sort the lines, and one
boolean compress keeps the sequence codes, which are packed at once. A record
that goes on past its window carries only packed bytes and at most 3 codes.
``write_fasta`` unpacks a batch to ASCII with one ``take`` and puts in its
headers and line ends with one ``np.insert``. Sequences that refpack packs
itself, from a parse or a decode, are made without the constructor's checks.
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
    def _unchecked(cls, data: bytes, length: int) -> "PackedSequence":
        """A sequence of packed bytes that refpack itself made, without the
        constructor's checks."""
        seq = object.__new__(cls)
        seq.data, seq.length, seq._checksum = data, length, None
        return seq

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


def ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``counts[r]`` items: each item's run ``r`` and its index in the run."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def packed_slice(value: int, start: int, length: int) -> PackedSequence:
    """Bases ``start`` to ``start + length`` of the bases packed in ``value``,
    base 0 in its low two bits: one shift, one mask and ``to_bytes``."""
    cut = (value >> 2 * start) & ((1 << 2 * length) - 1)
    return PackedSequence._unchecked(cut.to_bytes((length + 3) // 4, "little"), length)


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


# Bytes ``parse_fasta`` reads as one window of whole lines; a longer line is
# a window of its own. It bounds a window's temporaries.
_FASTA_BATCH_BYTES = 1 << 18

# FASTA byte classes: a base is its code 0-3, then the classes below; the
# spaces are what ``bytes.strip`` strips, besides '\n'.
_AMBIGUOUS, _NEWLINE, _SPACE, _HEADER, _COMMENT, _JUNK = range(4, 10)
_FASTA_CLASS = bytearray(np.where(_ASCII_TO_CODE < 4, _ASCII_TO_CODE, _JUNK))
for _c in _IUPAC_AMBIGUOUS + _IUPAC_AMBIGUOUS.lower():
    _FASTA_CLASS[_c] = _AMBIGUOUS
for _c in b" \t\r\x0b\x0c":
    _FASTA_CLASS[_c] = _SPACE
_FASTA_CLASS[10], _FASTA_CLASS[62], _FASTA_CLASS[59] = _NEWLINE, _HEADER, _COMMENT  # '\n' '>' ';'
_FASTA_CLASS = bytes(_FASTA_CLASS)


@dataclass(slots=True)
class _OpenRecord:
    """A record whose end is not read yet: its header, its bases so far as
    packed whole bytes, and the last ``length % 4`` codes, not yet packed."""

    id: str
    line: int
    length: int
    replaced: int
    chunks: list[bytes]
    carry: np.ndarray


def parse_fasta(data: Union[str, bytes]) -> list[FastaRecord]:
    """Parse FASTA text into packed records.

    Headers start with '>'; sequence lines may be folded and mixed-case.
    IUPAC ambiguity letters (N, R, Y, ...) are rewritten to 'A' and counted
    per record. Characters that are not IUPAC nucleotide letters are an
    error; the first faulty line of the file is the one reported.

    The text is read a window of about ``_FASTA_BATCH_BYTES`` whole lines at
    a time (``_fasta_window``), with no Python step per line. A record that
    goes on past its window keeps only packed bytes and at most 3 codes.
    """
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")

    records: list[FastaRecord] = []
    open_record: _OpenRecord | None = None
    pos = line_no = 0
    while pos < len(data):
        if len(data) - pos <= _FASTA_BATCH_BYTES:
            end = len(data)
        else:
            end = data.rfind(b"\n", pos, pos + _FASTA_BATCH_BYTES) + 1
            if end <= pos:  # a line longer than a window is a window of its own
                end = data.find(b"\n", pos + _FASTA_BATCH_BYTES) + 1 or len(data)
        open_record, n_lines = _fasta_window(data[pos:end], line_no, open_record, records)
        pos, line_no = end, line_no + n_lines

    if open_record is not None:
        if not open_record.length:
            raise FastaParseError(
                f"record {open_record.id!r} has no sequence data", open_record.line
            )
        open_record.chunks.append(_pack_code_array(open_record.carry))
        records.append(_closed(open_record))
    return records


def _header_id(win: bytes, lo: int, hi: int) -> str:
    """The id of the stripped header line ``win[lo:hi]``, '>' first."""
    return win[lo + 1 : hi].strip().decode("utf-8", errors="replace")


def _closed(rec: _OpenRecord) -> FastaRecord:
    """The record, its packed chunks joined."""
    data = b"".join(rec.chunks)
    return FastaRecord(rec.id, PackedSequence._unchecked(data, rec.length), rec.replaced)


def _strip_lines(at, kind, line_of, starts, ends):
    """Strip line i, ``[starts[i], ends[i])``, as ``bytes.strip`` does.

    ``at``, ``kind`` and ``line_of`` give each non-base byte's position,
    class and line. A run of spaces that starts or ends its line is
    stripped; one inside it stays, as junk. Returns each stripped line's
    bounds ``lo`` and ``hi``, and which of the non-base bytes were stripped.
    """
    space = np.flatnonzero(kind == _SPACE)
    where = at[space]
    first = np.flatnonzero(np.diff(where, prepend=-2) != 1)
    size = np.diff(np.append(first, where.size))
    run_line = line_of[space[first]]
    leading = where[first] == starts[run_line]
    trailing = where[first] + size == ends[run_line]
    lead = np.zeros(ends.size, dtype=np.int64)
    trail = np.zeros(ends.size, dtype=np.int64)
    lead[run_line[leading]] = size[leading]
    trail[run_line[trailing]] = size[trailing]
    lo = starts + lead
    stripped = np.zeros(at.size, dtype=bool)
    stripped[space] = np.repeat(leading | trailing, size)
    return lo, np.maximum(ends - trail, lo), stripped


def _fasta_window(
    win: bytes,
    line_no: int,
    open_record: _OpenRecord | None,
    records: list[FastaRecord],
) -> tuple[_OpenRecord | None, int]:
    """Parse one window of whole lines, the first of them line ``line_no + 1``.

    Appends the records that end in the window to ``records`` and returns the
    record still open at its end, and the number of '\\n' in the window. The
    window's first fault raises.

    One ``translate`` gives each byte its class. Array passes over the
    non-base bytes alone find the lines, strip them (a run of spaces that
    starts or ends its line goes) and sort them into headers, comments and
    sequence; one boolean compress then keeps the sequence lines' codes.
    """
    n = len(win)
    cls = np.frombuffer(win.translate(_FASTA_CLASS), dtype=np.uint8)
    at = np.flatnonzero(cls > 3)  # the non-base bytes
    kind = cls[at]
    is_newline = kind == _NEWLINE
    breaks = at[is_newline]
    # Line i is [starts[i], ends[i]) and its '\n'; line_of gives the line of
    # each non-base byte.
    ends = breaks if win[-1] == 10 else np.append(breaks, n)
    starts = np.concatenate(([0], breaks + 1))[: ends.size]
    line_of = np.cumsum(is_newline) - is_newline

    lo, hi, stripped = _strip_lines(at, kind, line_of, starts, ends)

    head = cls[np.minimum(lo, n - 1)]
    filled = lo < hi
    is_header = filled & (head == _HEADER)
    is_seq = filled & ~is_header & (head != _COMMENT)
    inside = is_seq[line_of] & ~is_newline & ~stripped
    ambiguous = inside & (kind == _AMBIGUOUS)
    junk = inside & ~ambiguous

    # Segment j holds the bases before header j, and the last one those
    # after the last header; segment 0 goes on the open record.
    headers = np.flatnonzero(is_header)
    seq_len = np.where(is_seq, hi - lo, 0)
    seq_end = np.cumsum(seq_len)
    counts = np.diff(np.append(seq_end[headers], seq_end[-1]), prepend=0)

    # The window's faults as (line found, rank there, message, line named),
    # the line found counted from 0 in the window; the first one raises.
    faults = []
    if junk.any():
        first = np.argmax(junk)
        line = line_of[first]
        message = f"invalid sequence character {chr(win[at[first]])!r}"
        faults.append((line, 1, message, line_no + line + 1))
    if open_record is None:
        early = np.flatnonzero(is_seq[: headers[0] if headers.size else None])
        if early.size:
            message = "sequence data before any '>' header"
            faults.append((early[0], 0, message, line_no + early[0] + 1))
    elif headers.size and not open_record.length + counts[0]:
        message = f"record {open_record.id!r} has no sequence data"
        faults.append((headers[0], 0, message, open_record.line))
    empty = np.flatnonzero(counts[1:-1] == 0)
    if empty.size:
        h = headers[empty[0]]
        message = f"record {_header_id(win, lo[h], hi[h])!r} has no sequence data"
        faults.append((headers[empty[0] + 1], 0, message, line_no + h + 1))
    no_id = headers[hi[headers] - lo[headers] == 1]  # '>' and spaces only
    if no_id.size:
        faults.append((no_id[0], 1, "empty record id", line_no + no_id[0] + 1))
    if faults:
        _, _, message, line = min(faults, key=lambda fault: fault[:2])
        raise FastaParseError(message, int(line))
    ids = [_header_id(win, a, b) for a, b in zip(lo[headers].tolist(), hi[headers].tolist())]

    # A record that ends in the window is padded to whole bytes: its pad
    # codes are the bytes just after its last sequence line, kept and then
    # zeroed (the next record's first base is 4 or more bytes on: '\n>x\n').
    # A record with no bases in the window is its carried codes, padded.
    carry = np.zeros(0, dtype=np.uint8) if open_record is None else open_record.carry
    total = counts.copy()
    total[0] += carry.size
    pad = -total[:-1] % 4
    ends_here = np.flatnonzero((counts[:-1] > 0) & (pad > 0))
    seq_lines = np.flatnonzero(is_seq)
    pad_line = seq_lines[np.searchsorted(seq_lines, headers[ends_here]) - 1]
    extra = np.zeros(ends.size, dtype=np.int64)
    extra[pad_line] = pad[ends_here]
    kept_end = np.cumsum(seq_len + extra)  # kept codes through each line
    kept_start = kept_end - seq_len - extra
    pad_run, pad_step = ragged_arange(pad[ends_here])
    amb = np.flatnonzero(ambiguous)
    amb_slot = (kept_start - lo)[line_of[amb]] + at[amb]
    # The arrays of one entry per non-base byte go before the window-sized
    # ones come: a window of many headers has almost as many such bytes.
    del at, kind, is_newline, line_of, stripped, inside, ambiguous, junk, amb

    # Keep the sequence lines' bytes (bases and ambiguity letters: no other
    # byte passed the checks) and the pads, then zero letters and pads.
    keep = cls < 5
    other = np.flatnonzero(filled & ~is_seq)
    run, step = ragged_arange((hi - lo)[other])
    keep[lo[other][run] + step] = False
    del run, step
    keep[hi[pad_line][pad_run] + pad_step] = True
    codes = cls[keep]
    del cls, keep
    codes[amb_slot] = 0
    codes[(kept_start + seq_len)[pad_line][pad_run] + pad_step] = 0
    kept_cuts = np.append(kept_end[headers], kept_end[-1])
    replaced = np.bincount(
        np.searchsorted(kept_cuts, amb_slot, side="right"), minlength=kept_cuts.size
    )
    if carry.size:
        front = 0 if counts[0] or not pad.size else pad[0]
        codes = np.concatenate((carry, np.zeros(front, dtype=np.uint8), codes))
    whole = codes.size - int(total[-1]) % 4
    carry = codes[whole:].copy()
    packed = _pack_code_array(codes[:whole])
    del codes  # before the records' objects are made, so none lands above it
    byte_ends = np.cumsum(np.append((total[:-1] + pad) // 4, total[-1] // 4)).tolist()
    counts, replaced = counts.tolist(), replaced.tolist()

    if open_record is not None:
        open_record.chunks.append(packed[: byte_ends[0]])
        open_record.length += counts[0]
        open_record.replaced += replaced[0]
        if not ids:
            open_record.carry = carry
            return open_record, breaks.size
        records.append(_closed(open_record))
    if not ids:
        return None, breaks.size
    unchecked = PackedSequence._unchecked
    records.extend(
        FastaRecord(record_id, unchecked(packed[a:b], length), r)
        for record_id, a, b, length, r in zip(
            ids[:-1], byte_ends[:-2], byte_ends[1:-1], counts[1:-1], replaced[1:-1]
        )
    )
    line = line_no + int(headers[-1]) + 1
    chunks = [packed[byte_ends[-2] :]]
    return _OpenRecord(ids[-1], line, counts[-1], replaced[-1], chunks, carry), breaks.size


def read_fasta(path: Union[str, Path]) -> list[FastaRecord]:
    return parse_fasta(Path(path).read_bytes())


# Bases that ``write_fasta`` unpacks, folds and writes at a time; it bounds
# the batch's temporaries for one long record as for many short ones.
_WRITE_BATCH_BASES = 1 << 18


def write_fasta(
    records: Iterable[tuple[str, PackedSequence]],
    dest: Union[str, Path, io.TextIOBase],
    *,
    width: int = 70,
) -> None:
    """Write records as FASTA with lines of ``width`` bases.

    Records are written a batch of about ``_WRITE_BATCH_BASES`` bases at a
    time; a longer record is cut into pieces of whole lines and whole packed
    bytes. Each batch is unpacked to ASCII with one ``take`` and gets its
    headers and line ends with one ``np.insert`` (``_fasta_text``).
    """
    if width < 1:
        raise ValueError("line width must be positive")
    step = max(1, _WRITE_BATCH_BASES // (4 * width)) * 4 * width

    def emit(out):
        # The pending batch: each piece's header, packed bytes and bases.
        headers: list[bytes] = []
        data: list[bytes] = []
        lengths: list[int] = []

        def flush():
            out.write(_fasta_text(headers, data, lengths, width))
            del headers[:], data[:], lengths[:]

        pending = 0
        for name, seq in records:
            header = f">{name}\n".encode("utf-8", "surrogatepass")
            n, at = seq.length, 0
            while n - at > step:  # a long record's leading pieces, a batch each
                headers.append(header)
                data.append(seq.data[at // 4 : (at + step) // 4])
                lengths.append(step)
                flush()
                header, at, pending = b"", at + step, 0
            headers.append(header)
            data.append(seq.data[at // 4 :])
            lengths.append(n - at)
            pending += n - at
            if pending >= _WRITE_BATCH_BASES:
                flush()
                pending = 0
        if lengths:
            flush()

    if isinstance(dest, (str, Path)):
        with open(dest, "w") as out:
            emit(out)
    else:
        emit(dest)


def _fasta_text(
    headers: list[bytes], data: list[bytes], lengths: list[int], width: int
) -> str:
    """The FASTA text of pieces of records: each piece's header, if any, then
    its bases, packed in ``data``, in lines of ``width``, each line ended."""
    lengths = np.array(lengths, dtype=np.int64)
    text = _BYTE_ASCII.take(np.frombuffer(b"".join(data), dtype=np.uint8)).view(np.uint8)
    unpacked = (lengths + 3) // 4 * 4
    if text.size > lengths.sum():  # drop the pad bases of partial last bytes
        ends = np.cumsum(unpacked)
        keep = np.ones(text.size, dtype=bool)
        for j in range(1, 4):
            keep[(ends - j)[unpacked - lengths >= j]] = False
        text = text[keep]
    starts = np.cumsum(lengths) - lengths
    piece, line = ragged_arange((lengths + width - 1) // width)
    line_ends = starts[piece] + np.minimum((line + 1) * width, lengths[piece])
    # At a shared position the line end, listed first, goes before the header.
    at = np.concatenate([line_ends, np.repeat(starts, np.fromiter(map(len, headers), np.int64))])
    inserted = np.concatenate([
        np.full(line_ends.size, ord("\n"), dtype=np.uint8),
        np.frombuffer(b"".join(headers), dtype=np.uint8),
    ])
    return np.insert(text, at, inserted).tobytes().decode("utf-8", "surrogatepass")


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


def load_sequences(path: Union[str, Path]) -> list[FastaRecord]:
    """Read a sequence file, sniffing the format.

    Files whose first non-whitespace byte is '>' or ';' parse as FASTA;
    anything else is treated as ".2bit-raw" and yields a single record named
    after the file stem.
    """
    path = Path(path)
    blob = path.read_bytes()
    head = blob.lstrip()[:1]
    if head in (b">", b";"):
        return parse_fasta(blob)
    return [FastaRecord(path.stem, read_2bit_raw(blob))]
