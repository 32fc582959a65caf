import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refpack import ShdConfig, ShdVerdict, edit_distance, filter_stream, shd
from refpack.cli import main
from refpack.sequence import pack_bases, write_fasta

# The package exports the function ``shd`` under the module's name.
shd_module = importlib.import_module("refpack.shd")

dna = st.text(alphabet="ACGT", min_size=0, max_size=48)
letters = st.text(alphabet="ACGTNacgtkiens", min_size=0, max_size=150)


def _oracle_amend_row(mask: np.ndarray, run: int) -> None:
    """Set zero runs of length <= run to ones when flanked by ones on both
    sides. Runs touching either mask edge are left alone."""
    ones = np.flatnonzero(mask)
    if ones.size < 2:
        return
    gaps = np.diff(ones)
    for idx in np.flatnonzero((gaps > 1) & (gaps <= run + 1)):
        mask[ones[idx] + 1 : ones[idx + 1]] = True


def oracle_shd(read: str, ref: str, config: ShdConfig) -> ShdVerdict:
    """The filter one mask row at a time over unpacked codes, kept
    independent of the library's packed-int layout."""
    r = np.frombuffer(read.encode(), np.uint8)
    f = np.frombuffer(ref.encode(), np.uint8)
    n = r.size
    assert f.size == n
    threshold = config.threshold
    if n == 0:
        return ShdVerdict(0, True)
    e = config.e
    agg = np.ones(n, dtype=bool)
    for d in range(-e, e + 1):
        mask = np.zeros(n, dtype=bool)
        if d >= 0:
            if n - d > 0:
                mask[: n - d] = r[: n - d] != f[d:]
        elif n + d > 0:
            mask[-d:] = r[-d:] != f[: n + d]
        if config.amend_run:
            _oracle_amend_row(mask, config.amend_run)
        agg &= mask
    ones = int(agg.sum())
    return ShdVerdict(min(ones, threshold + 1), ones <= threshold)


def reference_edit_distance(a: str, b: str) -> int:
    """Textbook O(nm) dynamic program, kept independent of the library."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def equal_length_pair(rng, n, *, subs=0, shifts=0):
    """A (read, ref) pair of equal length a known few edits apart."""
    bases = "ACGT"
    ref = "".join(bases[i] for i in rng.integers(0, 4, n))
    r = list(ref)
    for _ in range(subs):
        p = int(rng.integers(0, n))
        r[p] = bases[(bases.index(r[p]) + 1) % 4]
    for _ in range(shifts):  # one deletion + one insertion keeps the length
        del r[int(rng.integers(0, len(r)))]
        r.insert(int(rng.integers(0, len(r) + 1)), bases[int(rng.integers(0, 4))])
    return "".join(r), ref


class TestConfig:
    def test_defaults(self):
        cfg = ShdConfig()
        assert (cfg.e, cfg.amend_run, cfg.threshold, 2 * cfg.e + 1) == (5, 2, 5, 11)

    def test_threshold_override(self):
        assert ShdConfig(e=1, accept_threshold=9).threshold == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="e must"):
            ShdConfig(e=-1)
        with pytest.raises(ValueError, match="amend_run"):
            ShdConfig(amend_run=-1)
        with pytest.raises(ValueError, match="accept_threshold"):
            ShdConfig(accept_threshold=-3)


def test_identical_pair_accepts():
    v = shd("ACGTACGTAC", "ACGTACGTAC", ShdConfig(e=2))
    assert v == ShdVerdict(ones_count=0, accepted=True)


def test_empty_pair_accepts():
    assert shd("", "", ShdConfig(e=1)).accepted


def test_budget_wider_than_sequence():
    # Shifts beyond the sequence length compare nothing: those rows are all
    # out-of-range, hence all-match. Any pair of length n <= e has true
    # distance <= e, so accepting is the required verdict.
    assert shd("AAA", "AAA", ShdConfig(e=5, amend_run=0)).accepted
    v = shd("AC", "GT", ShdConfig(e=5, amend_run=0))
    assert v.accepted and v.ones_count == 0


def test_e0_is_plain_hamming():
    read, ref = "ACGTACGT", "ACCTACGA"  # mismatches at 2 and 7
    cfg = ShdConfig(e=0, amend_run=0, accept_threshold=5)
    assert shd(read, ref, cfg).ones_count == 2
    strict = ShdConfig(e=0, amend_run=0)
    assert not shd(read, ref, strict).accepted
    assert shd(read, read, strict).accepted


def test_frozen_example_pair():
    # One substitution plus one insertion-like shift: true distance 3, but the
    # shifted masks leave only two surviving ones, so e=1 nearly admits it.
    ref = "ACGTACGTACGTACGT"
    read = "ACGTGCGTACAGTACG"
    assert edit_distance(read, ref) == 3
    for amend in (0, 2):
        v = shd(read, ref, ShdConfig(e=1, amend_run=amend, accept_threshold=5))
        assert v.ones_count == 2
    assert not shd(read, ref, ShdConfig(e=1, amend_run=0)).accepted


def test_ones_count_saturates():
    read = "A" * 40
    ref = "C" * 40
    v = shd(read, ref, ShdConfig(e=1, amend_run=0))
    assert v.ones_count == 2  # threshold 1, saturated at 2
    assert not v.accepted


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        shd("ACGT", "ACG")


def test_input_types_agree():
    read, ref = "ACGTACGTACGTACGTACGT", "ACGTACGAACGTACTTACGT"
    cfg = ShdConfig(e=2)
    expect = shd(read, ref, cfg)
    assert shd(read.encode(), ref.encode(), cfg) == expect
    assert shd(pack_bases(read), pack_bases(ref), cfg) == expect
    with pytest.raises(TypeError, match="expected a sequence"):
        shd(1234, ref, cfg)


def test_no_false_reject_without_amendment():
    """Pairs within distance e always pass when amendment is off."""
    rng = np.random.default_rng(0xF1173)
    checked = 0
    for trial in range(600):
        n = int(rng.integers(8, 64))
        read, ref = equal_length_pair(
            rng, n, subs=int(rng.integers(0, 3)), shifts=int(rng.integers(0, 2))
        )
        for e in (1, 2, 5):
            d = edit_distance(read, ref)
            if d > e:
                continue
            v = shd(read, ref, ShdConfig(e=e, amend_run=0))
            assert v.accepted, (read, ref, e, d, v)
            checked += 1
    assert checked > 400


def test_amendment_never_lowers_the_count():
    rng = np.random.default_rng(0xA3E2D)
    for _ in range(300):
        n = int(rng.integers(4, 48))
        read, ref = equal_length_pair(rng, n, subs=int(rng.integers(0, 5)), shifts=1)
        cfg = dict(e=2, accept_threshold=10_000)  # unsaturated counts
        plain = shd(read, ref, ShdConfig(amend_run=0, **cfg)).ones_count
        amended = shd(read, ref, ShdConfig(amend_run=2, **cfg)).ones_count
        assert amended >= plain


def test_amendment_can_falsely_reject():
    # Frozen counterexample: distance 2, yet amendment pushes the count to 3.
    read, ref = "CACTGTCATATCCTGCA", "CACTGTCTTCTCCTGCA"
    assert edit_distance(read, ref) == 2
    assert shd(read, ref, ShdConfig(e=2, amend_run=0)).accepted
    assert not shd(read, ref, ShdConfig(e=2, amend_run=2)).accepted


def test_distant_pairs_usually_rejected():
    rng = np.random.default_rng(99)
    n = 100
    rejected = 0
    for _ in range(n):
        a = "".join("ACGT"[i] for i in rng.integers(0, 4, 64))
        b = "".join("ACGT"[i] for i in rng.integers(0, 4, 64))
        if not shd(a, b, ShdConfig(e=2)).accepted:
            rejected += 1
    assert rejected > n * 0.8


class TestFilterStream:
    def test_order_and_summary(self):
        reads = ["ACGTACGT", "AAAAAAAA", "ACGTACGA"]
        refs = ["ACGTACGT", "CCCCCCCC", "ACGTACGT"]
        verdicts, summary = filter_stream(reads, refs, ShdConfig(e=1, amend_run=0))
        assert [v.accepted for v in verdicts] == [True, False, True]
        assert summary.pairs == 3
        assert summary.accepted == 2
        assert summary.total_bases == 24
        assert summary.accept_rate == pytest.approx(2 / 3)
        assert summary.seconds >= 0
        assert summary.bases_per_second >= 0

    def test_empty_streams(self):
        verdicts, summary = filter_stream([], [])
        assert verdicts == []
        assert summary.pairs == 0
        assert summary.accept_rate == 0.0

    def test_mismatched_streams(self):
        with pytest.raises(ValueError, match="stream length"):
            filter_stream(["ACGT"], [])

    def test_packed_inputs(self):
        seqs = [pack_bases("ACGTACGTACGT")]
        verdicts, summary = filter_stream(seqs, seqs)
        assert verdicts[0].accepted
        assert summary.total_bases == 12


class TestEditDistance:
    def test_goldens(self):
        assert edit_distance("", "") == 0
        assert edit_distance("A", "") == 1
        assert edit_distance("", "ACGT") == 4
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("ACGT", "TGCA") == 4

    def test_input_types(self):
        assert edit_distance(b"ACGT", "AGGT") == 1
        assert edit_distance(pack_bases("ACGT"), pack_bases("ACG")) == 1

    @given(letters, letters)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_dp(self, a, b):
        assert edit_distance(a, b) == reference_edit_distance(a, b)

    def test_long_rows_use_vector_path(self):
        # Operands wider than a machine word, and one far shorter than the other.
        rng = np.random.default_rng(5)
        a = "".join("ACGT"[i] for i in rng.integers(0, 4, 200))
        b = "".join("ACGT"[i] for i in rng.integers(0, 4, 190))
        assert edit_distance(a, b) == reference_edit_distance(a, b)
        assert edit_distance(a, a[:50]) == 150


def _pair(seed: int, n: int, subs: int, shifts: int, distant: bool) -> tuple[str, str]:
    rng = np.random.default_rng(seed)
    if distant:
        return tuple("".join("ACGT"[i] for i in rng.integers(0, 4, n)) for _ in range(2))
    if n == 0:
        return "", ""
    return equal_length_pair(rng, n, subs=subs, shifts=shifts)


# Lengths around the 4-base byte and the 32-base (64-bit) word boundaries,
# below the largest e, and anywhere up to 300.
lengths = st.one_of(
    st.integers(0, 9),
    st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257]),
    st.integers(0, 300),
)
pairs = st.builds(
    _pair, st.integers(0, 2**32 - 1), lengths, st.integers(0, 6), st.integers(0, 3), st.booleans()
)
configs = st.builds(
    ShdConfig,
    e=st.integers(0, 8),
    amend_run=st.integers(0, 4),
    accept_threshold=st.one_of(st.none(), st.integers(0, 3), st.just(10_000)),
)


class TestAgainstOracle:
    @given(pairs, configs)
    @settings(max_examples=400, deadline=None)
    def test_single_pair(self, pair, config):
        assert shd(*pair, config) == oracle_shd(*pair, config)

    @given(st.lists(pairs, min_size=1, max_size=20), configs)
    @settings(max_examples=150, deadline=None)
    def test_stream(self, stream, config):
        verdicts, summary = filter_stream([r for r, _ in stream], [f for _, f in stream], config)
        assert verdicts == [oracle_shd(r, f, config) for r, f in stream]
        assert verdicts == [shd(r, f, config) for r, f in stream]
        assert summary.accepted == sum(v.accepted for v in verdicts)
        assert summary.total_bases == sum(len(r) for r, _ in stream)

    def test_count_past_one_byte(self):
        # Per-pair sums of the per-byte counts must not wrap at 255.
        v = shd("A" * 300, "C" * 300, ShdConfig(e=0, accept_threshold=10_000))
        assert v == ShdVerdict(300, True)

    def test_amendment_stops_at_pair_edges(self):
        # At e=0 one zero byte (4 bases) separates the pairs, so the zero run
        # from the first pair's last mismatch to the second pair's mismatch
        # at base 1 is 5 long: amend_run=5 would fill the second pair's base
        # 0 if the gap counted as zeros.
        cfg = ShdConfig(e=0, amend_run=5, accept_threshold=10_000)
        verdicts, _ = filter_stream(["AAAC", "ACAA"], ["AAAA", "AAAA"], cfg)
        assert [v.ones_count for v in verdicts] == [1, 1]

    @pytest.mark.parametrize("budget", [1, 13, 64, 300])
    def test_stream_across_chunks(self, monkeypatch, budget):
        rng = np.random.default_rng(budget)
        stream = [
            _pair(int(rng.integers(2**32)), int(n), 2, 1, bool(rng.random() < 0.2))
            for n in rng.choice([0, 3, 4, 5, 31, 32, 33, 64, 65, 200], 60)
        ]
        reads, refs = [r for r, _ in stream], [f for _, f in stream]
        for config in (ShdConfig(e=5), ShdConfig(e=8, amend_run=4, accept_threshold=10_000)):
            expect = [oracle_shd(r, f, config) for r, f in stream]
            monkeypatch.setattr(shd_module, "_CHUNK_BYTES", budget)
            assert filter_stream(reads, refs, config)[0] == expect
            monkeypatch.undo()
            assert filter_stream(reads, refs, config)[0] == expect


def test_filter_leaves_sequences_packed(tmp_path, capsys, forbid_unpack):
    rng = np.random.default_rng(0x5D)
    stream = [_pair(int(rng.integers(2**32)), n, 2, 1, False) for n in (0, 3, 50, 201)]
    reads, refs = [pack_bases(r) for r, _ in stream], [pack_bases(f) for _, f in stream]
    with forbid_unpack():
        filter_stream(reads, refs)
        shd(reads[2], refs[2])

    # FASTA holds no empty record; the second read is longer, for --clip.
    stream = stream[1:]
    write_fasta([(f"r{i}", pack_bases(r + "ACG" * i)) for i, (r, _) in enumerate(stream)],
                tmp_path / "r.fa")
    write_fasta([(f"s{i}", pack_bases(f)) for i, (_, f) in enumerate(stream)], tmp_path / "s.fa")
    with forbid_unpack():
        assert main(["shd-filter", "--reads", str(tmp_path / "r.fa"),
                     "--segments", str(tmp_path / "s.fa"), "--clip"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(stream)


@pytest.mark.parametrize("flags, config", [
    ([], ShdConfig()),
    (["--no-amend"], ShdConfig(amend_run=0)),
    (["--threshold", "40", "--max-edits", "3"], ShdConfig(e=3, accept_threshold=40)),
])
def test_cli_tsv_matches_oracle(tmp_path, capsys, flags, config):
    rng = np.random.default_rng(0xC71)
    reads, segs = [], []
    for i in range(40):
        read, seg = _pair(int(rng.integers(2**32)), int(rng.integers(1, 150)),
                          int(rng.integers(0, 8)), int(rng.integers(0, 3)), i % 7 == 0)
        # Every third pair gets extra bases on one side, for --clip to cut.
        extra = "".join("ACGT"[c] for c in rng.integers(0, 4, int(rng.integers(1, 9))))
        if i % 3 == 1:
            read += extra
        elif i % 3 == 2:
            seg += extra
        reads.append(read)
        segs.append(seg)
    write_fasta([(f"r{i}", pack_bases(r)) for i, r in enumerate(reads)], tmp_path / "r.fa")
    write_fasta([(f"s{i}", pack_bases(f)) for i, f in enumerate(segs)], tmp_path / "s.fa")
    assert main(["shd-filter", "--reads", str(tmp_path / "r.fa"),
                 "--segments", str(tmp_path / "s.fa"), "--clip", *flags]) == 0
    rows = []
    for i, (read, seg) in enumerate(zip(reads, segs)):
        n = min(len(read), len(seg))
        v = oracle_shd(read[:n], seg[:n], config)
        rows.append(f"r{i}\ts{i}\t{v.ones_count}\t{'accept' if v.accepted else 'reject'}\n")
    assert capsys.readouterr().out == "".join(rows)
