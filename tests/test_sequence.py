import hashlib
import io

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


@given(st.lists(dna, max_size=8))
def test_pack_code_runs_match_from_codes(texts):
    runs = [pack_bases(text).codes() for text in texts]
    assert sequence_mod.pack_code_runs(runs) == [PackedSequence.from_codes(r) for r in runs]


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
    assert seq.codes_bytes() == oracle_codes(seq).tobytes()
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


def test_parse_fasta_strict_rejects_ambiguity():
    with pytest.raises(FastaParseError, match="strict"):
        parse_fasta(">r\nANG\n", strict=True)


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


def parse_fasta_by_line(data, *, strict=False):
    """Line-by-line parser, one numpy lookup per line: the reference for the
    one-pass ``parse_fasta``."""
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")
    table = sequence_mod._ASCII_TO_CODE
    is_ambiguous = sequence_mod._IS_AMBIGUOUS
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
            if strict:
                pos = int(np.argmax(ambiguous))
                raise FastaParseError(
                    f"ambiguous base {chr(arr[pos])!r} rejected in strict mode", line_no
                )
            cur_replaced += int(ambiguous.sum())
            codes = np.where(ambiguous, np.uint8(0), codes)
        cur_chunks.append(codes)

    finish()
    return records


def _parse_outcome(parser, data, strict):
    try:
        return parser(data, strict=strict)
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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_fasta_lines, st.sampled_from([b"\n", b"\r\n"])), max_size=14),
    st.booleans(),
    st.booleans(),
)
def test_parse_fasta_matches_line_by_line(lines, strict, as_text):
    """Records, replacement counts, error messages and line numbers all equal
    those of the line-by-line parser, on headers, blank and ';' lines, CRLF,
    lowercase, IUPAC letters, junk bytes, data before the first header and
    empty records."""
    data = b"".join(b"".join(parts) + end for parts, end in lines)
    if as_text:
        data = data.decode("latin-1")
    assert _parse_outcome(parse_fasta, data, strict) == _parse_outcome(
        parse_fasta_by_line, data, strict
    )


def test_parse_fasta_reports_first_bad_line():
    # junk after an ambiguity letter on one line is reported first; a line
    # with only ambiguity letters is an error in strict mode alone
    text = ">r\nACGN\nAN!T\n"
    with pytest.raises(FastaParseError, match="line 3: invalid sequence character '!'"):
        parse_fasta(text)
    with pytest.raises(FastaParseError, match="line 2: ambiguous base 'N'"):
        parse_fasta(text, strict=True)


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
