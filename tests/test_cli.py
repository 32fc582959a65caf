import hashlib
import io

import numpy as np
import pytest

from refpack import (
    CompressParams,
    MutationProfile,
    ReferenceIndex,
    compress,
    decompress_record,
    mutate,
    random_reads,
    read_container,
    read_fasta,
    write_container,
    write_fasta,
)
from refpack.cli import load_config, main
from refpack.sequence import load_sequences, pack_bases
from refpack.synth import random_sequence


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A populated workspace: reference, target, prebuilt index, container."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0xC11)
    ref = random_sequence(8_000, rng)
    targets = [
        ("near", mutate(ref, MutationProfile(snp=0.01), rng)),
        ("slice", pack_bases(ref.to_ascii()[1000:3000])),
    ]
    write_fasta([("chr1", ref)], root / "ref.fa")
    write_fasta(targets, root / "target.fa")
    assert main([
        "build-index", "--reference", str(root / "ref.fa"),
        "--k", "32", "--out", str(root / "ref.bidx"),
    ]) == 0
    assert main([
        "compress", "--reference", str(root / "ref.fa"),
        "--index", str(root / "ref.bidx"),
        "--target", str(root / "target.fa"),
        "--out", str(root / "out.bnc"),
    ]) == 0
    return root, ref, dict(targets)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("refpack ")


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_build_index_reports(work, capsys, tmp_path):
    root, _, _ = work
    out = tmp_path / "i.bidx"
    assert main([
        "build-index", "--reference", str(root / "ref.fa"),
        "--k", "16", "--stride", "4", "--out", str(out),
    ]) == 0
    msg = capsys.readouterr().out
    assert "indexed" in msg and "stride=4" in msg and str(out) in msg
    assert out.exists()


def test_build_index_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.fa"
    code = main([
        "build-index", "--reference", str(missing), "--out", str(tmp_path / "o.bidx"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_compress_then_decompress_round_trip(work, capsys, tmp_path):
    root, _, targets = work
    out = tmp_path / "roundtrip.fa"
    assert main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"), "--out", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "decompressed 2 record(s)" in captured.err
    decoded = {rec.id: rec.seq for rec in read_fasta(out)}
    assert decoded == targets


def test_decompress_matches_record_by_record(work, capsys, tmp_path):
    root, ref, _ = work
    out = tmp_path / "all.fa"
    assert main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"), "--out", str(out),
    ]) == 0
    box = read_container(root / "out.bnc")
    expected = tmp_path / "each.fa"
    write_fasta([(rec.id, decompress_record(box, rec, ref)) for rec in box.records], expected)
    assert len(box.records) == 2
    assert out.read_bytes() == expected.read_bytes()


# SHA-256 of the container that the CLI ``compress`` writes for
# ``many_records``; it was written by the path that compressed and encoded
# one record at a time, so batching all records must not change a byte.
MANY_RECORDS_BNC_SHA256 = "590dafd8be253a9c395a8ad6129ed90954cc0a83bfeb68a7c848608887fbb6b8"


def many_records(rng, ref):
    """Reads of every length from below k to past a group, on both strands and
    with errors, lengths on and off multiples of 4, plus long and unrelated
    records and a record shorter than k."""
    lengths = [5, 31, 32, 33, 34, 35, 36, 64, 65, 199, 200, 201, 202, 203, 257, 1_000]
    records = []
    for n in lengths:
        for rc in (0.0, 1.0):
            (read,) = random_reads(ref, 1, n, MutationProfile(snp=0.02), rng, rc_fraction=rc)
            records.append((f"r{len(records)}_{n}", read))
    records += [
        ("long", mutate(ref, MutationProfile(snp=0.01, insertion=0.001, deletion=0.001), rng)),
        ("unrelated", random_sequence(300, rng)),
        ("tiny", random_sequence(3, rng)),
    ]
    return records


def test_compress_many_records_bytes_unchanged(work, tmp_path):
    root, ref, _ = work
    records = many_records(np.random.default_rng(0xB17), ref)
    write_fasta(records, tmp_path / "many.fa")
    assert main([
        "compress", "--reference", str(root / "ref.fa"),
        "--index", str(root / "ref.bidx"),
        "--target", str(tmp_path / "many.fa"),
        "--granularity", "1", "--out", str(tmp_path / "many.bnc"),
    ]) == 0
    data = (tmp_path / "many.bnc").read_bytes()
    assert hashlib.sha256(data).hexdigest() == MANY_RECORDS_BNC_SHA256
    index = ReferenceIndex.load(root / "ref.bidx")
    params = CompressParams(k=32, s=16)
    one_by_one = [
        (rec_id, compress(seq, index, ref, params, break_every_groups=1))
        for rec_id, seq in records
    ]
    buf = io.BytesIO()
    write_container(one_by_one, params, index.ref_checksum, buf, granularity=1)
    assert buf.getvalue() == data


def test_compress_stdout_summary(work, capsys, tmp_path):
    root, _, _ = work
    assert main([
        "compress", "--reference", str(root / "ref.fa"),
        "--index", str(root / "ref.bidx"),
        "--target", str(root / "target.fa"),
        "--out", str(tmp_path / "b.bnc"),
    ]) == 0
    out = capsys.readouterr().out
    assert "compressed" in out and "ratio" in out and "container" in out


def test_compress_builds_index_when_missing(work, capsys, tmp_path):
    root, _, _ = work
    assert main([
        "compress", "--reference", str(root / "ref.fa"),
        "--target", str(root / "target.fa"),
        "--k", "16",
        "--out", str(tmp_path / "c.bnc"),
    ]) == 0
    assert "building one in memory (k=16" in capsys.readouterr().err


def test_decompress_single_record_2bit(work, capsys, tmp_path):
    root, _, targets = work
    out = tmp_path / "near.2bit"
    assert main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"),
        "--record", "near", "--format", "2bit", "--out", str(out),
    ]) == 0
    (rec,) = load_sequences(out)
    assert rec.seq == targets["near"]


def test_decompress_2bit_needs_single_record(work, capsys, tmp_path):
    root, _, _ = work
    code = main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"),
        "--format", "2bit", "--out", str(tmp_path / "x.2bit"),
    ])
    assert code == 2
    assert "--record" in capsys.readouterr().err


def test_decompress_unknown_record(work, capsys):
    root, _, _ = work
    code = main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"), "--record", "ghost",
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_decompress_wrong_reference_is_checksum_error(work, capsys, tmp_path):
    root, _, _ = work
    rng = np.random.default_rng(1)
    write_fasta([("other", random_sequence(8_000, rng))], tmp_path / "other.fa")
    code = main([
        "decompress", "--container", str(root / "out.bnc"),
        "--reference", str(tmp_path / "other.fa"),
    ])
    assert code == 3


def test_corrupt_container_is_exit_4(work, capsys, tmp_path):
    root, _, _ = work
    data = bytearray((root / "out.bnc").read_bytes())
    data[len(data) // 2] ^= 0x40
    bad = tmp_path / "bad.bnc"
    bad.write_bytes(bytes(data))
    code = main([
        "decompress", "--container", str(bad),
        "--reference", str(root / "ref.fa"),
    ])
    assert code == 4


def test_extract_matches_slice(work, capsys):
    root, _, targets = work
    assert main([
        "extract", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"),
        "--record", "slice", "--offset", "100", "--length", "64",
    ]) == 0
    line = capsys.readouterr().out
    assert line == targets["slice"].to_ascii()[100:164] + "\n"


def test_extract_defaults_to_first_record(work, capsys):
    root, _, targets = work
    assert main([
        "extract", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"),
        "--offset", "0", "--length", "10",
    ]) == 0
    assert capsys.readouterr().out.strip() == targets["near"].to_ascii()[:10]


def test_extract_out_of_range(work, capsys):
    root, _, _ = work
    code = main([
        "extract", "--container", str(root / "out.bnc"),
        "--reference", str(root / "ref.fa"),
        "--offset", "999999999", "--length", "10",
    ])
    assert code == 2
    assert "extract range" in capsys.readouterr().err


def test_shd_filter_tsv(work, capsys, tmp_path):
    rng = np.random.default_rng(3)
    segs = [(f"s{i}", random_sequence(80, rng)) for i in range(3)]
    reads = [
        ("r0", segs[0][1]),                                       # identical
        ("r1", mutate(segs[1][1], MutationProfile(snp=0.5), rng)),  # distant
        ("r2", segs[2][1]),
    ]
    write_fasta(reads, tmp_path / "reads.fa")
    write_fasta(segs, tmp_path / "segs.fa")
    assert main([
        "shd-filter", "--reads", str(tmp_path / "reads.fa"),
        "--segments", str(tmp_path / "segs.fa"), "--max-edits", "2",
    ]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "r0\ts0\t0\taccept"
    assert lines[1].endswith("reject")
    assert "3 pairs" in captured.err


def test_shd_filter_length_mismatch(work, capsys, tmp_path):
    rng = np.random.default_rng(4)
    write_fasta([("r", random_sequence(60, rng))], tmp_path / "r.fa")
    write_fasta([("s", random_sequence(50, rng))], tmp_path / "s.fa")
    args = [
        "shd-filter", "--reads", str(tmp_path / "r.fa"),
        "--segments", str(tmp_path / "s.fa"),
    ]
    assert main(args) == 2
    assert "--clip" in capsys.readouterr().err
    assert main(args + ["--clip"]) == 0
    assert "clipped 1 pair(s)" in capsys.readouterr().err


def test_shd_filter_pair_count_mismatch(work, capsys, tmp_path):
    rng = np.random.default_rng(5)
    write_fasta([("a", random_sequence(10, rng)), ("b", random_sequence(10, rng))],
                tmp_path / "two.fa")
    write_fasta([("c", random_sequence(10, rng))], tmp_path / "one.fa")
    assert main([
        "shd-filter", "--reads", str(tmp_path / "two.fa"),
        "--segments", str(tmp_path / "one.fa"),
    ]) == 2


def test_sweep_table_and_csv(work, capsys, tmp_path):
    root, _, _ = work
    csv_path = tmp_path / "rows.csv"
    assert main([
        "sweep", "--target", str(root / "target.fa"),
        "--reference", str(root / "ref.fa"),
        "--k-values", "16,32", "--s-values", "8,16",
        "--threads", "1", "--csv", str(csv_path),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("dataset")
    assert f"wrote CSV to {csv_path}" in captured.err
    header, *rows = csv_path.read_text().splitlines()
    assert header.startswith("dataset,k,s,trial")
    assert len(rows) == 4  # (16,8) (16,16) (32,8) (32,16)


def test_sweep_csv_to_stdout(work, capsys):
    root, _, _ = work
    assert main([
        "sweep", "--target", str(root / "target.fa"),
        "--reference", str(root / "ref.fa"),
        "--k-values", "16", "--s-values", "16", "--threads", "1", "--csv", "-",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dataset,k,s,trial")
    assert len(out.splitlines()) == 2


def test_sweep_needs_paired_flags(work, capsys):
    root, _, _ = work
    assert main(["sweep", "--target", str(root / "target.fa")]) == 2
    assert "together" in capsys.readouterr().err


def test_sweep_rejects_bad_grid(work, capsys):
    root, _, _ = work
    assert main([
        "sweep", "--target", str(root / "target.fa"),
        "--reference", str(root / "ref.fa"), "--k-values", "four",
    ]) == 2


def test_sweep_dataset_flag(work, capsys):
    root, _, _ = work
    pair = f"{root / 'target.fa'},{root / 'ref.fa'}"
    assert main([
        "sweep", "--dataset", pair, "--k-values", "16", "--s-values", "16",
        "--threads", "1",
    ]) == 0
    assert "target" in capsys.readouterr().out
    assert main(["sweep", "--dataset", "missing-comma"]) == 2


def test_gen_synthetic_random(capsys, tmp_path):
    out = tmp_path / "s.fa"
    assert main(["gen-synthetic", "--out", str(out), "--length", "500", "--seed", "9"]) == 0
    (rec,) = read_fasta(out)
    assert rec.id == "synth0"
    assert rec.seq.length == 500
    # Same seed, same sequence.
    assert main(["gen-synthetic", "--out", "-", "--length", "500", "--seed", "9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()


def test_gen_synthetic_reads_mode(work, capsys, tmp_path):
    root, ref, _ = work
    out = tmp_path / "reads.fa"
    assert main([
        "gen-synthetic", "--out", str(out), "--from", str(root / "ref.fa"),
        "--reads", "5", "--read-len", "64", "--snp", "0.01",
    ]) == 0
    records = read_fasta(out)
    assert [rec.id for rec in records] == [f"read{i:05d}" for i in range(5)]
    assert main(["gen-synthetic", "--out", str(out), "--reads", "5"]) == 2


def test_gen_synthetic_splice_mode(work, tmp_path, capsys):
    root, _, _ = work
    out = tmp_path / "sp.fa"
    assert main([
        "gen-synthetic", "--out", str(out), "--from", str(root / "ref.fa"),
        "--splice-segments", "4",
    ]) == 0
    (rec,) = read_fasta(out)
    assert rec.id == "splice0"
    assert rec.seq.length >= 4 * 32


def test_gen_synthetic_mutate_mode(work, tmp_path, capsys):
    root, _, _ = work
    out = tmp_path / "mut.fa"
    assert main([
        "gen-synthetic", "--out", str(out), "--from", str(root / "target.fa"),
        "--snp", "0.02",
    ]) == 0
    assert [rec.id for rec in read_fasta(out)] == ["near_mut", "slice_mut"]


def test_gen_synthetic_needs_some_mode(capsys, tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x.fa")]) == 2
    assert "--length" in capsys.readouterr().err


class TestConfig:
    def test_load_config(self, tmp_path):
        cfg = tmp_path / "r.conf"
        cfg.write_text("# defaults\nk = 16\nstride=2\nprefilter = off\n\n")
        assert load_config(str(cfg)) == {"k": "16", "stride": "2", "prefilter": "off"}

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "r.conf"
        cfg.write_text("kay = 16\n")
        assert main([
            "gen-synthetic", "--config", str(cfg), "--out", "-", "--length", "5",
        ]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_s_is_not_a_config_key(self, tmp_path, capsys):
        """No command reads ``s`` (compress always uses s=16), so a config
        file that sets it is an error, not a silent no-op."""
        cfg = tmp_path / "r.conf"
        cfg.write_text("s = 8\n")
        assert main([
            "gen-synthetic", "--config", str(cfg), "--out", "-", "--length", "5",
        ]) == 2
        assert "unknown config key 's'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "r.conf"
        cfg.write_text("just words\n")
        assert main([
            "gen-synthetic", "--config", str(cfg), "--out", "-", "--length", "5",
        ]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main([
            "gen-synthetic", "--config", str(tmp_path / "none.conf"),
            "--out", "-", "--length", "5",
        ]) == 2

    def test_config_supplies_k(self, work, capsys, tmp_path):
        root, _, _ = work
        cfg = tmp_path / "r.conf"
        cfg.write_text("k = 16\n")
        assert main([
            "compress", "--config", str(cfg),
            "--reference", str(root / "ref.fa"),
            "--target", str(root / "target.fa"),
            "--out", str(tmp_path / "k16.bnc"),
        ]) == 0
        assert "k=16" in capsys.readouterr().err
        assert read_container(tmp_path / "k16.bnc").params.k == 16

    def test_flag_beats_config(self, work, capsys, tmp_path):
        root, _, _ = work
        cfg = tmp_path / "r.conf"
        cfg.write_text("k = 16\n")
        assert main([
            "compress", "--config", str(cfg), "--k", "32",
            "--reference", str(root / "ref.fa"),
            "--target", str(root / "target.fa"),
            "--out", str(tmp_path / "k32.bnc"),
        ]) == 0
        assert read_container(tmp_path / "k32.bnc").params.k == 32

    def test_config_seed_used(self, tmp_path, capsys):
        cfg = tmp_path / "r.conf"
        cfg.write_text("seed = 123\n")
        assert main(["gen-synthetic", "--config", str(cfg), "--out", "-", "--length", "64"]) == 0
        via_config = capsys.readouterr().out
        assert main(["gen-synthetic", "--seed", "123", "--out", "-", "--length", "64"]) == 0
        assert capsys.readouterr().out == via_config

    def test_bad_int_in_config(self, work, tmp_path, capsys):
        root, _, _ = work
        cfg = tmp_path / "r.conf"
        cfg.write_text("k = sixteen\n")
        assert main([
            "compress", "--config", str(cfg),
            "--reference", str(root / "ref.fa"),
            "--target", str(root / "target.fa"),
            "--out", str(tmp_path / "z.bnc"),
        ]) == 2
        assert "must be an integer" in capsys.readouterr().err
