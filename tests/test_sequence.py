import hashlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refpack.sequence as sequence_mod
from refpack.errors import FastaParseError
from refpack.sequence import (
    CODE_TO_ASCII,
    PackedSequence,
    concat_sequences,
    kmer_at,
    load_sequences,
    pack_bases,
    parse_fasta,
    read_2bit_raw,
    read_fasta,
    reverse_complement,
    reverse_complement_sequence,
    sequence_checksum,
    unpack_bases,
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
    assert unpack_bases(pack_bases("GATTACA")) == "GATTACA"


@given(dna)
def test_pack_unpack_round_trip(text):
    assert unpack_bases(pack_bases(text)) == text


@given(dna)
def test_codes_match_ascii(text):
    seq = pack_bases(text)
    assert bytes(CODE_TO_ASCII[c] for c in seq.codes()) == text.encode()


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
    assert unpack_bases(reverse_complement_sequence(pack_bases("AACGTT"))) == "AACGTT"
    assert unpack_bases(reverse_complement_sequence(pack_bases("ACGGT"))) == "ACCGT"


@given(dna)
def test_reverse_complement_involution(text):
    seq = pack_bases(text)
    assert reverse_complement_sequence(reverse_complement_sequence(seq)) == seq


@given(dna)
def test_reverse_complement_matches_naive(text):
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    naive = "".join(comp[c] for c in reversed(text))
    assert unpack_bases(reverse_complement_sequence(pack_bases(text))) == naive


def test_concat():
    parts = [pack_bases("ACG"), pack_bases(""), pack_bases("TTGCA")]
    assert unpack_bases(concat_sequences(parts)) == "ACGTTGCA"
    assert unpack_bases(concat_sequences([])) == ""


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
    seq = pack_bases(text)
    k = data.draw(st.integers(1, min(31, len(text))))
    off = data.draw(st.integers(0, len(text) - k))
    km = kmer_at(seq, off, k)
    rc = km.reverse_complement()
    assert rc.to_ascii() == unpack_bases(reverse_complement(seq, off, k))


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
