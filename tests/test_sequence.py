import hashlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refpack.sequence as sequence_mod
from refpack.errors import FastaParseError
from refpack.sequence import (
    CODE_TO_ASCII,
    Kmer,
    PackedSequence,
    concat_sequences,
    kmer_at,
    load_sequences,
    pack_bases,
    parse_fasta,
    read_2bit_raw,
    read_fasta,
    reverse_complement_rows,
    reverse_complement_sequence,
    sequence_checksum,
    write_2bit_raw,
    write_fasta,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=300)


def test_pack_golden():
    seq = pack_bases("ACGT")
    assert seq.data == b"\xe4"  # 11 10 01 00 reading high to low
    assert len(seq) == 4
    assert seq.to_ascii() == "ACGT"


def test_pack_partial_byte_padding():
    seq = pack_bases("ACGTG")
    assert len(seq.data) == 2
    assert seq.data[1] == 0b10  # G in the low two bits, rest zero


def test_pack_lowercase():
    assert pack_bases("acgt") == pack_bases("ACGT")


def test_pack_rejects_junk():
    with pytest.raises(ValueError, match="position 2"):
        pack_bases("ACXT")


def test_unpack_bases():
    assert pack_bases("GATTACA").to_ascii() == "GATTACA"


@given(dna)
def test_pack_unpack_round_trip(text):
    assert pack_bases(text).to_ascii() == text


@given(dna)
def test_codes_match_ascii(text):
    seq = pack_bases(text)
    assert bytes(CODE_TO_ASCII[c] for c in seq.codes()) == text.encode()


def pack_code_array_reference(codes):
    """The strided packer: pad to a multiple of 4, then OR the four code
    columns into place. The reference for ``_pack_code_array``."""
    pad = (-codes.size) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quad = codes.reshape(-1, 4)
    packed = quad[:, 0] | (quad[:, 1] << 2) | (quad[:, 2] << 4) | (quad[:, 3] << 6)
    return packed.astype(np.uint8).tobytes()


@settings(max_examples=200)
@given(st.integers(0, 64), st.sampled_from([0, 1, 2, 3]), st.integers(0, 2**32 - 1),
       st.booleans())
def test_pack_code_array_matches_reference(quads, extra, seed, strided):
    """Every length 0-3 mod 4, the empty input and non-contiguous input."""
    codes = np.random.default_rng(seed).integers(0, 4, 2 * (4 * quads + extra), dtype=np.uint8)
    codes = codes[::2] if strided else codes[: 4 * quads + extra]
    assert sequence_mod._pack_code_array(codes) == pack_code_array_reference(codes)


def test_packed_sequence_validation():
    with pytest.raises(ValueError):
        PackedSequence(b"\xe4", 9)  # too few packed bytes
    with pytest.raises(ValueError):
        PackedSequence(b"\xe4\x00", 4)  # too many
    with pytest.raises(ValueError):
        PackedSequence(b"\xff", 3)  # nonzero padding bits
    with pytest.raises(ValueError):
        PackedSequence.from_codes(np.array([4], dtype=np.uint8))


def test_equality_and_hash():
    a, b = pack_bases("ACGTAC"), pack_bases("ACGTAC")
    assert a == b and hash(a) == hash(b)
    assert a != pack_bases("ACGTAG")
    assert a != "ACGTAC"


def test_reverse_complement_golden():
    assert reverse_complement_sequence(pack_bases("AACGTT")).to_ascii() == "AACGTT"
    assert reverse_complement_sequence(pack_bases("ACGGT")).to_ascii() == "ACCGT"


@given(dna)
def test_reverse_complement_involution(text):
    seq = pack_bases(text)
    assert reverse_complement_sequence(reverse_complement_sequence(seq)) == seq


@given(dna)
def test_reverse_complement_matches_naive(text):
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    naive = "".join(comp[c] for c in reversed(text))
    assert reverse_complement_sequence(pack_bases(text)).to_ascii() == naive


def test_concat():
    parts = [pack_bases("ACG"), pack_bases(""), pack_bases("TTGCA")]
    assert concat_sequences(parts).to_ascii() == "ACGTTGCA"
    assert concat_sequences([]).to_ascii() == ""


@pytest.mark.parametrize("lengths", [(), (0,), (5,), (1_000,), (3, 0, 5), (8, 4), (1, 1, 1, 1, 1)])
def test_concat_matches_oracle(lengths, forbid_unpack):
    """A lone part comes back as it is, unpacked by nothing; zero or several
    parts give the bytes of the former codes-based join."""
    rng = np.random.default_rng(len(lengths))
    parts = [PackedSequence.from_codes(rng.integers(0, 4, n, dtype=np.uint8)) for n in lengths]
    want = PackedSequence.from_codes(np.concatenate([oracle_codes(p) for p in parts] or [[]]))
    if len(parts) == 1:
        with forbid_unpack():
            assert concat_sequences(iter(parts)) is parts[0]
    assert concat_sequences(iter(parts)) == want


# ---------------------------------------------------------------- 2-bit oracle
# The former codes-based unpack, ASCII and reverse complement, kept as the
# oracle of the table and int forms.

_SHIFTS = np.arange(0, 8, 2, dtype=np.uint8)


def oracle_codes(seq):
    raw = np.frombuffer(seq.data, dtype=np.uint8)
    return ((raw[:, None] >> _SHIFTS) & 3).reshape(-1)[: seq.length]


def oracle_ascii(seq):
    return oracle_codes(seq).tobytes().translate(bytes.maketrans(b"\0\1\2\3", CODE_TO_ASCII)).decode()


def oracle_reverse_complement(seq):
    return PackedSequence.from_codes(oracle_codes(seq)[::-1] ^ 3)


@pytest.mark.parametrize("residue", range(4))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_two_bit_forms_match_oracle(residue, data):
    """Random packed bytes of every length mod 4 up to 300: the reverse
    complement of the sequence, of its one ``Kmer`` and of its one packed
    row agree with one another and with the oracle; so do the sequence's
    and the k-mer's ASCII and codes. Each result passes the constructor's
    zero-padding check."""
    n = 4 * data.draw(st.integers(0, 74)) + residue
    raw = bytearray(data.draw(st.binary(min_size=(n + 3) // 4, max_size=(n + 3) // 4)))
    if n % 4:
        raw[-1] &= (1 << 2 * (n % 4)) - 1
    seq = PackedSequence(bytes(raw), n)
    want = oracle_reverse_complement(seq)
    rc = reverse_complement_sequence(seq)
    assert PackedSequence(rc.data, rc.length) == want
    text = oracle_ascii(seq)
    assert seq.to_ascii() == text
    assert seq.codes().tolist() == oracle_codes(seq).tolist()
    assert seq.codes().tobytes() == oracle_codes(seq).tobytes()
    if n == 0:
        return
    kmer = Kmer(int.from_bytes(seq.data, "little"), n)
    assert kmer.to_ascii() == text
    kmer_codes = sequence_mod.unpack_rows(np.frombuffer(kmer.bytes_le(), dtype=np.uint8))[:n]
    assert kmer_codes.tobytes() == oracle_codes(seq).tobytes()
    assert PackedSequence(kmer.reverse_complement().bytes_le(), n) == want
    row = reverse_complement_rows(np.frombuffer(seq.data, dtype=np.uint8)[None, :], n)
    assert row.shape == (1, len(seq.data))
    assert PackedSequence(row[0].tobytes(), n) == want


@pytest.mark.parametrize("n", [0, 24, 25, 10**6])
def test_repr_shows_at_most_24_bases_without_unpacking(n, forbid_unpack):
    seq = PackedSequence.from_codes(np.random.default_rng(n).integers(0, 4, n, dtype=np.uint8))
    text = oracle_ascii(seq)
    head = text if n <= 24 else text[:21] + "..."
    with forbid_unpack():
        assert repr(seq) == f"PackedSequence({head!r}, length={n})"


# ---------------------------------------------------------------------- kmers


def test_kmer_at_golden():
    seq = pack_bases("ACGTACGT")
    km = kmer_at(seq, 0, 4)
    assert km.to_ascii() == "ACGT"
    assert km.packed == 0xE4
    assert km.low4 == 0x4  # A=00, C=01 -> 0b0100
    assert km.bytes_le() == b"\xe4"
    assert kmer_at(seq, 3, 4).to_ascii() == "TACG"


def test_kmer_range_errors():
    seq = pack_bases("ACGTACGT")
    with pytest.raises(ValueError):
        kmer_at(seq, 6, 4)
    with pytest.raises(ValueError):
        kmer_at(seq, -1, 4)


@given(dna.filter(lambda t: len(t) >= 8), st.data())
def test_kmer_reverse_complement_matches_sequence(text, data):
    """Oracle: the text itself, reverse-complemented with ``str.translate``."""
    seq = pack_bases(text)
    k = data.draw(st.integers(1, min(70, len(text))))
    off = data.draw(st.integers(0, len(text) - k))
    km = kmer_at(seq, off, k)
    window = text[off : off + k]
    assert km.to_ascii() == window
    assert km.reverse_complement().to_ascii() == window.translate(str.maketrans("ACGT", "TGCA"))[::-1]


def kmer_windows(codes, k):
    """(len - k + 1, k) view of every k-mer of a code array (the library's
    former ``_kmer_windows``)."""
    return np.ndarray((max(codes.size - k + 1, 0), k), np.uint8, codes, strides=(1, 1))


def pack_rows(win):
    """Pack (n, k) code rows into (n, ceil(k/4)) bytes, base 0 in the low bits
    (the library's former ``_pack_rows``)."""
    n, k = win.shape
    pad = (-k) % 4
    if pad:
        win = np.concatenate([win, np.zeros((n, pad), dtype=np.uint8)], axis=1)
    quad = np.ascontiguousarray(win).view("<u4")
    quad = quad | (quad >> 6)
    quad &= 0x000F000F
    quad |= quad >> 12
    return quad.astype(np.uint8)


@pytest.mark.parametrize("width", [1, 3, 4, 5, 16, 31, 32, 33, 63, 64, 256])
def test_packed_kmers_matches_unpacked_windows(width):
    """Oracle: the unpacked code windows packed again. Starts take every
    value mod 4 and run to the last window, past it (bases past the buffer
    read as zero) and past the buffer's end, sorted and shuffled."""
    rng = np.random.default_rng(width)
    for size in (0, 1, 2, 7, 40, 67, 130):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        codes = np.zeros(4 * size + width + 8, dtype=np.uint8)
        codes[: 4 * size] = sequence_mod.unpack_rows(np.frombuffer(data, dtype=np.uint8))
        for starts in (np.arange(4 * size + 8), rng.permutation(4 * size + 8)[:9]):
            got = sequence_mod.packed_kmers(data, starts, width)
            assert got.dtype == np.uint8
            assert got.shape == (starts.size, (width + 3) // 4)
            assert got.tolist() == pack_rows(kmer_windows(codes, width)[starts]).tolist()


def test_sequence_checksum_definition():
    seq = pack_bases("ACGT")
    expected = hashlib.sha256((4).to_bytes(8, "little") + b"\xe4").digest()
    assert sequence_checksum(seq) == expected
    # length participates: empty vs single-A differ even though data is sparse
    assert sequence_checksum(pack_bases("")) != sequence_checksum(pack_bases("A"))


def test_sequence_checksum_hashes_once_per_object(monkeypatch):
    calls = []
    real_sha256 = hashlib.sha256

    def counting_sha256():
        calls.append(1)
        return real_sha256()

    monkeypatch.setattr(sequence_mod.hashlib, "sha256", counting_sha256)
    seq = pack_bases("ACGTTGCA" * 10)
    first = sequence_checksum(seq)
    assert sequence_checksum(seq) == first
    assert len(calls) == 1
    # an equal sequence is another object with its own cache, same digest
    assert sequence_checksum(pack_bases("ACGTTGCA" * 10)) == first
    assert len(calls) == 2


# ---------------------------------------------------------------------- fasta


def test_parse_fasta_basic():
    text = ">chr1 first\nACGT\nacgt\n>chr2\nTT\nGG\n"
    records = parse_fasta(text)
    assert [(r.id, r.seq.to_ascii()) for r in records] == [
        ("chr1 first", "ACGTACGT"),
        ("chr2", "TTGG"),
    ]


def test_parse_fasta_comments_and_blank_lines():
    records = parse_fasta("; old-style comment\n>r\n; another\nAC\n\nGT\n")
    assert records[0].seq.to_ascii() == "ACGT"


def test_parse_fasta_crlf():
    records = parse_fasta(b">r\r\nACGT\r\n")
    assert records[0].seq.to_ascii() == "ACGT"


def test_parse_fasta_ambiguity_replaced():
    rec = parse_fasta(">r\nANNGTN\n")[0]
    assert rec.seq.to_ascii() == "AAAGTA"
    assert rec.replaced == 3


def test_parse_fasta_junk_character():
    with pytest.raises(FastaParseError, match="line 3"):
        parse_fasta(">r\nACGT\nAC!T\n")


def test_parse_fasta_data_before_header():
    with pytest.raises(FastaParseError, match="before any"):
        parse_fasta("ACGT\n")


def test_parse_fasta_empty_record():
    with pytest.raises(FastaParseError, match="no sequence data"):
        parse_fasta(">a\n>b\nACGT\n")
    with pytest.raises(FastaParseError, match="no sequence data"):
        parse_fasta(">only\n")


def test_parse_fasta_empty_id():
    with pytest.raises(FastaParseError, match="empty record id"):
        parse_fasta(">\nACGT\n")


def parse_fasta_by_line(data):
    """Line-by-line parser, one numpy lookup per line: the reference for the
    one-pass ``parse_fasta``."""
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")
    table = sequence_mod._ASCII_TO_CODE
    is_ambiguous = np.zeros(256, dtype=bool)
    for c in sequence_mod._IUPAC_AMBIGUOUS:
        is_ambiguous[[c, c + 32]] = True
    records = []
    cur_id, cur_chunks, cur_replaced, cur_header_line = None, [], 0, 0

    def finish():
        if cur_id is None:
            return
        if sum(c.size for c in cur_chunks) == 0:
            raise FastaParseError(f"record {cur_id!r} has no sequence data", cur_header_line)
        codes = np.concatenate(cur_chunks)
        records.append(sequence_mod.FastaRecord(cur_id, PackedSequence.from_codes(codes), cur_replaced))

    for line_no, raw_line in enumerate(data.split(b"\n"), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            finish()
            cur_id = line[1:].strip().decode("utf-8", errors="replace")
            cur_chunks, cur_replaced, cur_header_line = [], 0, line_no
            if not cur_id:
                raise FastaParseError("empty record id", line_no)
            continue
        if line.startswith(b";"):
            continue
        if cur_id is None:
            raise FastaParseError("sequence data before any '>' header", line_no)
        arr = np.frombuffer(line, dtype=np.uint8)
        codes = table[arr]
        invalid = codes == 0xFF
        if invalid.any():
            ambiguous = invalid & is_ambiguous[arr]
            junk = invalid & ~ambiguous
            if junk.any():
                pos = int(np.argmax(junk))
                raise FastaParseError(f"invalid sequence character {chr(arr[pos])!r}", line_no)
            cur_replaced += int(ambiguous.sum())
            codes = np.where(ambiguous, np.uint8(0), codes)
        cur_chunks.append(codes)

    finish()
    return records


def _parse_outcome(parser, data):
    try:
        return parser(data)
    except FastaParseError as exc:
        return ("error", str(exc), exc.line)


_fasta_lines = st.one_of(
    st.tuples(st.just(b">"), st.sampled_from([b"", b" ", b"r1", b" id two", b"\xff\xfe"])),
    st.tuples(st.just(b";"), st.sampled_from([b"", b" note", b">not a header"])),
    st.tuples(st.sampled_from([b"", b"  ", b"\t", b"\r"])),
    st.tuples(
        st.sampled_from([b"", b" ", b"\t"]),
        st.text(alphabet="ACGTacgtACGTNnRyUuWskm!-* 1", min_size=1, max_size=40).map(str.encode),
        st.sampled_from([b"", b" "]),
    ),
    st.tuples(st.binary(min_size=1, max_size=6)),
)


@st.composite
def _many_record_files(draw):
    """Well-formed files of 40 or more records: lengths at every residue mod
    4, random fold widths, LF and CRLF, lowercase, and IUPAC letters in
    several records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_records = draw(st.integers(40, 60))
    out = []
    for i in range(n_records):
        length = 4 * int(rng.integers(1, 20)) + i % 4
        letters = np.frombuffer(b"ACGTacgt", dtype=np.uint8)[rng.integers(0, 8, length)]
        if i % 3 == 1:
            spots = rng.integers(0, length, int(rng.integers(1, 4)))
            letters[spots] = np.frombuffer(b"NRYnryUWk", dtype=np.uint8)[rng.integers(0, 9, spots.size)]
        text = letters.tobytes()
        width = int(rng.integers(1, 30))
        out.append(b">r%d\n" % i)
        for start in range(0, length, width):
            out.append(text[start : start + width] + (b"\r\n" if rng.random() < 0.5 else b"\n"))
    return b"".join(out)


@st.composite
def _long_record_files(draw):
    """Files whose first record spans several windows at the small batch
    sizes: one random fold width, lines framed by spaces, tabs or CRLF,
    ambiguity letters every 37 bases (from the start, or only from base 250
    on), and at times one bad
    byte far into the record. Later records are short."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ambiguous_from = draw(st.sampled_from([0, 250]))
    bad = draw(st.sampled_from([None, b"!", b"-", b" ", b"\r"]))
    out = [b"; comment\n"]
    for i in range(draw(st.integers(1, 4))):
        length = int(rng.integers(300, 900)) if i == 0 else int(rng.integers(1, 60))
        letters = np.frombuffer(b"ACGTacgt", dtype=np.uint8)[rng.integers(0, 8, length)]
        spots = np.arange(ambiguous_from + int(rng.integers(0, 37)), length, 37)
        letters[spots] = np.frombuffer(b"NRYnryUWk", dtype=np.uint8)[rng.integers(0, 9, spots.size)]
        if i == 0 and bad is not None:
            letters[int(rng.integers(length // 2, length))] = bad[0]
        text = letters.tobytes()
        width = int(rng.integers(1, 80))
        out.append(b" >r%d\t\n" % i)
        for start in range(0, length, width):
            lead, tail = rng.integers(0, 3, 2)
            out.append((b"", b" ", b"\t")[lead] + text[start : start + width])
            out.append((b"\n", b" \r\n", b"\t\n")[tail])
    return b"".join(out)


_fasta_files = st.one_of(
    st.lists(st.tuples(_fasta_lines, st.sampled_from([b"\n", b"\r\n"])), max_size=14).map(
        lambda lines: b"".join(b"".join(parts) + end for parts, end in lines)
    ),
    _many_record_files(),
    _long_record_files(),
)

# Batch sizes under which the parse must not change: a line or a few a
# window, windows that cut records, and the default.
_BATCH_SIZES = [1, 2, 3, 7, 64, 200, sequence_mod._FASTA_BATCH_BYTES]


@settings(max_examples=300, deadline=None)
@given(
    _fasta_files,
    st.booleans(),
    st.sampled_from(_BATCH_SIZES),
)
def test_parse_fasta_matches_line_by_line(data, as_text, batch_bytes):
    """Records, replacement counts, error messages and line numbers all equal
    those of the line-by-line parser, on headers, blank and ';' lines, CRLF,
    lowercase, IUPAC letters, junk bytes, data before the first header and
    empty records; on many-record files; and on long records that windows of
    a few bytes cut into many pieces, with faults in later windows."""
    if as_text:
        data = data.decode("latin-1")
    with mock.patch.object(sequence_mod, "_FASTA_BATCH_BYTES", batch_bytes):
        got = _parse_outcome(parse_fasta, data)
    assert got == _parse_outcome(parse_fasta_by_line, data)


def test_parse_fasta_reports_first_bad_line():
    """The first faulty line wins: a line with only ambiguity letters is no
    fault, and a bad byte on an earlier line beats a later empty
    record or empty id, within a window or across windows, in a long record
    opened many windows before."""
    # lines 2-41: 10 bases a line, line 35 the only one with a C run
    long_record = ">a\n" + "ACGTACGTAG\n" * 33 + "CCCCAAAAAA\n" + "ACGTACGTAG\n" * 6
    cases = [
        (">r\nACGN\nAN!T\n", "line 3: invalid sequence character '!'"),
        (">a\nAC!T\n>b\n>c\nACGT\n", "line 2: invalid sequence character '!'"),
        (">a\nAC!T\n>b\nACGT\n>\nACGT\n", "line 2: invalid sequence character '!'"),
        (">a\nACNT\n>b\n>c\nACGT\n", "line 3: record 'b' has no sequence data"),
        (long_record.replace("CCCC", "C!CC", 1), "line 35: invalid sequence character '!'"),
        (long_record.replace("CCCC", "CNC!", 1), "line 35: invalid sequence character '!'"),
        (long_record + ">b\n\n>c\nACGT\n", "line 42: record 'b' has no sequence data"),
        (long_record + ">b\nAC\n  >  \nACGT\n", "line 44: empty record id"),
    ]
    for text, message in cases:
        assert _parse_outcome(parse_fasta_by_line, text)[1] == message
        for batch_bytes in _BATCH_SIZES:
            with mock.patch.object(sequence_mod, "_FASTA_BATCH_BYTES", batch_bytes):
                assert _parse_outcome(parse_fasta, text)[1] == message


def test_parse_fasta_windows_cut_records_at_every_residue():
    """Windows of whole lines cut a long record after every residue of its
    length mod 4, so the carried codes (0-3 of them) take every count; the
    parse still equals the line-by-line one at every batch size."""
    rng = np.random.default_rng(3)
    letters = np.frombuffer(b"ACGTN", dtype=np.uint8)[rng.integers(0, 5, 2_000)].tobytes()
    widths = np.resize(np.arange(1, 8), 600).tolist()
    cuts = np.cumsum([0, *widths]).tolist()
    text = b">long\n" + b"".join(
        letters[a:b] + b"\n" for a, b in zip(cuts, cuts[1:]) if b <= len(letters)
    ) + b">short\nACG\n"
    carried = set()
    window = sequence_mod._fasta_window

    def spy(*args):
        open_record, n_lines = window(*args)
        if open_record is not None:
            carried.add(open_record.carry.size)
            assert open_record.carry.size == open_record.length % 4
        return open_record, n_lines

    for batch_bytes in _BATCH_SIZES:
        with mock.patch.object(sequence_mod, "_FASTA_BATCH_BYTES", batch_bytes), \
                mock.patch.object(sequence_mod, "_fasta_window", spy):
            got = _parse_outcome(parse_fasta, text)
            assert got == _parse_outcome(parse_fasta_by_line, text)
    assert carried == {0, 1, 2, 3}


def test_parse_fasta_peak_memory_is_bounded():
    """Parsing 4 Mbp of reads (20,000 records of 200 bases in 60-base lines)
    peaks below the file's size plus what the parse returns plus one batch of
    sequence: the text is read a window of whole lines at a time, and a
    window's temporaries are a few arrays of its size."""
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 4, 20_000 * 200, dtype=np.uint8)
    text = np.frombuffer(CODE_TO_ASCII, dtype=np.uint8)[codes].tobytes()
    data = b"".join(
        b">r%d\n" % i
        + b"\n".join(text[j : j + 60] for j in range(200 * i, 200 * i + 200, 60))
        + b"\n"
        for i in range(20_000)
    )
    del codes, text
    tracemalloc.start()
    try:
        records = parse_fasta(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000 and records[-1].seq.length == 200
    assert peak < len(data) + kept + sequence_mod._FASTA_BATCH_BYTES


def _traced_parse(data):
    tracemalloc.start()
    try:
        records = parse_fasta(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return records, kept, peak


def _random_text(n, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, n, dtype=np.uint8)
    return np.frombuffer(CODE_TO_ASCII, dtype=np.uint8)[codes].tobytes()


def test_parse_fasta_long_records_keep_only_packed_bytes():
    """4 records of 1 Mbp in 60-base lines (3.88 MiB of text, 0.96 MiB
    packed) peak below what the parse returns plus 8 windows: a record that
    goes on past its window holds only packed bytes and at most 3 codes.
    Holding a whole record's lines peaked at 7.67 MiB here, and holding each
    window's codes until the record ends at 5.39 MiB; this parse peaks at
    about 2.3 MiB."""
    text = _random_text(4_000_000, 41)
    records = [text[a : a + 1_000_000] for a in range(0, 4_000_000, 1_000_000)]
    data = b"".join(
        b">chr%d\n" % i + b"\n".join(seq[j : j + 60] for j in range(0, len(seq), 60)) + b"\n"
        for i, seq in enumerate(records)
    )
    del records
    del text
    records, kept, peak = _traced_parse(data)
    assert [r.seq.length for r in records] == [1_000_000] * 4
    assert peak < kept + 8 * sequence_mod._FASTA_BATCH_BYTES


def test_parse_fasta_one_line_record_peak():
    """An unfolded 4 Mbp record is one line longer than any window, so it is
    a window of its own; its parse peaks below 6 bytes per byte of text,
    where parsing it as one line object peaked (22.9 MiB for 3.81 MiB)."""
    data = b">chr1\n" + _random_text(4_000_000, 42) + b"\n"
    records, kept, peak = _traced_parse(data)
    assert records[0].seq.length == 4_000_000
    assert peak < 6 * len(data)


def test_fasta_file_round_trip(tmp_path):
    path = tmp_path / "x.fa"
    write_fasta([("a", pack_bases("ACGT" * 50)), ("b", pack_bases("T"))], path, width=13)
    records = read_fasta(path)
    assert [(r.id, r.seq.to_ascii()) for r in records] == [
        ("a", "ACGT" * 50),
        ("b", "T"),
    ]
    # folded at the requested width
    longest = max(len(line) for line in path.read_text().splitlines())
    assert longest == 13


def test_write_fasta_to_stream():
    buf = io.StringIO()
    write_fasta([("s", pack_bases("ACG"))], buf)
    assert buf.getvalue() == ">s\nACG\n"


def write_fasta_by_line(records, dest, width=70):
    """The line-by-line FASTA writer that ``write_fasta`` replaced, kept as
    the reference for its output."""

    def emit(out):
        for name, seq in records:
            out.write(f">{name}\n")
            text = seq.to_ascii()
            for i in range(0, len(text), width):
                out.write(text[i : i + width])
                out.write("\n")

    if isinstance(dest, io.TextIOBase):
        emit(dest)
    else:
        with open(dest, "w") as out:
            emit(out)


def _random_records(lengths, rng):
    return [
        (f"r{i}", PackedSequence.from_codes(rng.integers(0, 4, n, dtype=np.uint8)))
        for i, n in enumerate(lengths)
    ]


@pytest.mark.parametrize("width", [1, 7, 70])
def test_write_fasta_matches_line_by_line(width, tmp_path):
    """Every residue of a length around the 70-base line and packed byte,
    an empty record and a non-ASCII id, from a generator, to a text stream
    and to a path."""
    lengths = (0, 1, 69, 70, 71, 139, 140, 141)
    records = _random_records(lengths, np.random.default_rng(width))
    records.append(("caf\u00e9 \u2713", pack_bases("ACGTT")))
    expected = io.StringIO()
    write_fasta_by_line(records, expected, width)
    stream = io.StringIO()
    write_fasta((record for record in records), stream, width=width)
    assert stream.getvalue() == expected.getvalue()
    write_fasta_by_line(records, tmp_path / "expected.fa", width)
    write_fasta((record for record in records), tmp_path / "got.fa", width=width)
    assert (tmp_path / "got.fa").read_bytes() == (tmp_path / "expected.fa").read_bytes()


def test_write_fasta_record_longer_than_a_batch():
    rng = np.random.default_rng(4)
    n = sequence_mod._WRITE_BATCH_BASES + 1_001
    records = _random_records([5, n, 3, 0, n + 2], rng)
    expected = io.StringIO()
    write_fasta_by_line(records, expected)
    got = io.StringIO()
    write_fasta(records, got)
    assert got.getvalue() == expected.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 300), max_size=8), st.integers(1, 80),
       st.sampled_from([1, 5, 64, 300]), st.integers(0, 2**32 - 1))
def test_write_fasta_batches_match_line_by_line(lengths, width, batch_bases, seed):
    """Batches of any size, and records cut into pieces at any width, give
    the reference's text."""
    records = _random_records(lengths, np.random.default_rng(seed))
    expected = io.StringIO()
    write_fasta_by_line(records, expected, width)
    got = io.StringIO()
    with mock.patch.object(sequence_mod, "_WRITE_BATCH_BASES", batch_bases):
        write_fasta(records, got, width=width)
    assert got.getvalue() == expected.getvalue()


def test_write_fasta_rejects_nonpositive_width():
    for width in (0, -1):
        with pytest.raises(ValueError, match="width"):
            write_fasta([("s", pack_bases("ACG"))], io.StringIO(), width=width)


def test_write_fasta_peak_memory_is_bounded(tmp_path):
    """Writing one 4 Mbp record peaks at one batch's temporaries, not at its
    whole text: about 1.0 MiB, against 11.4 MiB when the record was unpacked
    to one string before folding."""
    seq = PackedSequence.from_codes(
        np.random.default_rng(9).integers(0, 4, 4_000_000, dtype=np.uint8)
    )
    path = tmp_path / "big.fa"
    tracemalloc.start()
    try:
        write_fasta([("big", seq)], path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20
    text = seq.to_ascii()
    assert path.read_text() == ">big\n" + "".join(
        text[i : i + 70] + "\n" for i in range(0, len(text), 70)
    )


# ------------------------------------------------------------------- 2bit-raw


def test_2bit_raw_round_trip(tmp_path):
    path = tmp_path / "x.2bit"
    seq = pack_bases("ACGTACGTACG")
    write_2bit_raw(seq, path)
    assert read_2bit_raw(path) == seq
    assert path.read_bytes()[:8] == (11).to_bytes(8, "little")


def test_2bit_raw_truncated():
    with pytest.raises(ValueError, match="truncated"):
        read_2bit_raw(b"\x01\x02")


def test_load_sequences_sniffs(tmp_path):
    fa = tmp_path / "a.fa"
    fa.write_text(">z\nACGT\n")
    raw = tmp_path / "b.2bit"
    write_2bit_raw(pack_bases("GGCC"), raw)
    assert load_sequences(fa)[0].id == "z"
    rec = load_sequences(raw)[0]
    assert rec.id == "b" and rec.seq.to_ascii() == "GGCC"
