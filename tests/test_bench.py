import csv
import io
import tracemalloc

import numpy as np
import pytest

from refpack import (
    BenchReport,
    MutationProfile,
    SweepDataset,
    SweepRow,
    SweepSpec,
    mutate,
    run_sweep,
    write_fasta,
)
from refpack.bench import _CSV_COLUMNS, DEFAULT_K_VALUES, DEFAULT_S_VALUES
from refpack.compress import CompressParams, group_count
from refpack.synth import random_sequence


@pytest.fixture(scope="module")
def dataset(reference):
    rng = np.random.default_rng(0xBE7C)
    targets = tuple(
        (mutate(reference, MutationProfile(snp=0.01), rng),) for _ in range(2)
    )
    return SweepDataset("mut1pct", reference, targets)


class TestSweepDataset:
    def test_validation(self, reference):
        corpus = ((reference,),)
        with pytest.raises(ValueError, match="name"):
            SweepDataset("", reference, corpus)
        with pytest.raises(ValueError, match="target"):
            SweepDataset("x", reference, ())
        with pytest.raises(ValueError, match="target"):
            SweepDataset("x", reference, ((),))

    def test_targets_cycle(self, reference):
        a = random_sequence(100, np.random.default_rng(0))
        b = random_sequence(100, np.random.default_rng(1))
        ds = SweepDataset("x", reference, ((a,), (b,)))
        assert ds.targets_for_trial(0) == (a,)
        assert ds.targets_for_trial(1) == (b,)
        assert ds.targets_for_trial(2) == (a,)

    def test_from_paths(self, tmp_path):
        rng = np.random.default_rng(2)
        ref = random_sequence(400, rng)
        reads = [(f"r{i}", random_sequence(50, rng)) for i in range(3)]
        ref_path = tmp_path / "ref.fa"
        tgt_path = tmp_path / "reads.fa"
        write_fasta([("chr", ref)], ref_path)
        write_fasta(reads, tgt_path)
        ds = SweepDataset.from_paths(tgt_path, ref_path)
        assert ds.name == "reads"
        assert ds.reference == ref
        assert ds.trial_targets == (tuple(seq for _, seq in reads),)
        named = SweepDataset.from_paths(tgt_path, ref_path, name="alias")
        assert named.name == "alias"


class TestSweepSpec:
    def test_pairs_filters_wide_strides(self, dataset):
        spec = SweepSpec((dataset,), k_values=(16, 64), s_values=(4, 16, 32))
        assert spec.pairs() == [(16, 4), (16, 16), (64, 4), (64, 16), (64, 32)]

    def test_defaults(self, dataset):
        spec = SweepSpec((dataset,))
        assert spec.k_values == DEFAULT_K_VALUES
        assert spec.s_values == DEFAULT_S_VALUES
        assert (16, 64) not in spec.pairs()

    def test_validation(self, dataset, reference):
        with pytest.raises(ValueError, match="positive"):
            SweepSpec((dataset,), k_values=(0,))
        with pytest.raises(ValueError, match="positive"):
            SweepSpec((dataset,), trials=0)
        clone = SweepDataset("mut1pct", reference, dataset.trial_targets)
        with pytest.raises(ValueError, match="unique"):
            SweepSpec((dataset, clone))


def row_key(row):
    return (row.dataset, row.k, row.s, row.trial)


def test_sweep_rows_ordered_and_consistent(dataset):
    spec = SweepSpec((dataset,), k_values=(32, 64), s_values=(8, 16), trials=2)
    report = run_sweep(spec)
    expected = [
        ("mut1pct", k, s, t) for (k, s) in spec.pairs() for t in range(2)
    ]
    assert [row_key(r) for r in report.rows] == expected
    for row in report.rows:
        assert row.error is None
        params = CompressParams(k=row.k, s=row.s)
        pad = group_count(row.n_tokens) * 16 - row.n_tokens
        words = (
            (row.verbatim + pad) * params.words_per_verbatim
            + row.forward
            + row.reverse
        )
        assert row.compressed_bytes == 4 * (group_count(row.n_tokens) + words)
        assert row.ratio == pytest.approx(row.n_bases / row.compressed_bytes)
        assert row.bases_per_sec is None or row.bases_per_sec > 0


def test_sweep_records_cell_errors(dataset):
    # k=10 is not a multiple of s=4, so that cell fails while (16, 4) runs.
    spec = SweepSpec((dataset,), k_values=(10, 16), s_values=(4,))
    report = run_sweep(spec)
    bad, good = report.rows
    assert bad.error and "ValueError" in bad.error
    assert bad.ratio is None and bad.bases_per_sec is None
    assert good.error is None and good.ratio > 1

    assert report.mean_ratios() == {("mut1pct", 16, 4): pytest.approx(good.ratio)}


def test_sweep_records_index_build_failure(dataset):
    spec = SweepSpec((dataset,), k_values=(64,), s_values=(16,), index_stride=0)
    report = run_sweep(spec)
    (row,) = report.rows
    assert row.error and row.error.startswith("index build failed")


def test_sweep_index_build_failure_stays_in_its_k(dataset, reference):
    # k one past the reference length cannot be indexed; the k values on
    # either side of it still run, and the rows keep the grid's order.
    too_long = reference.length + 1
    spec = SweepSpec((dataset,), k_values=(16, too_long, 32), s_values=(8, 16), trials=2)
    report = run_sweep(spec)
    assert [row_key(r) for r in report.rows] == [
        ("mut1pct", k, s, t) for (k, s) in spec.pairs() for t in range(2)
    ]
    for row in report.rows:
        if row.k == too_long:
            assert row.error.startswith("index build failed: ValueError")
            assert row.ratio is None
        else:
            assert row.error is None and row.ratio > 1


def test_sweep_repeated_k_repeats_its_rows(dataset):
    spec = SweepSpec((dataset,), k_values=(16, 32, 16), s_values=(16,))
    report = run_sweep(spec)
    assert [row_key(r) for r in report.rows] == [
        ("mut1pct", 16, 16, 0), ("mut1pct", 32, 16, 0), ("mut1pct", 16, 16, 0),
    ]
    first, _, again = report.rows
    assert (again.compressed_bytes, again.verbatim, again.continuation) == (
        first.compressed_bytes, first.verbatim, first.continuation,
    )


def _sweep_peak(spec):
    tracemalloc.start()
    try:
        run_sweep(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_holds_one_index_at_a_time():
    """A sweep over five k values peaks near a sweep over the first alone:
    each k's index is dropped before the next one is built."""
    rng = np.random.default_rng(0x5EE9)
    reference = random_sequence(1 << 18, rng)
    target = mutate(reference, MutationProfile(snp=0.01), rng)
    data = SweepDataset("ref256k", reference, ((target,),))
    one = _sweep_peak(SweepSpec((data,), k_values=(16,), s_values=(16,)))
    grid = _sweep_peak(SweepSpec((data,), k_values=(16, 32, 64, 128, 256), s_values=(16,)))
    assert grid <= 1.1 * one


def test_sweep_empty_spec():
    report = run_sweep(SweepSpec(()))
    assert report.rows == ()
    assert report.to_csv().splitlines() == [",".join(_CSV_COLUMNS)]


def test_multiple_datasets_grouped(dataset, reference):
    other = SweepDataset("self", reference, ((reference,),))
    spec = SweepSpec((dataset, other), k_values=(64,), s_values=(16,))
    report = run_sweep(spec)
    assert [r.dataset for r in report.rows] == ["mut1pct", "self"]
    ratios = report.mean_ratios()
    # Self-compression collapses to near-pure continuations: far better ratio.
    assert ratios[("self", 64, 16)] > ratios[("mut1pct", 64, 16)]


class TestReportFormats:
    def make_report(self):
        rows = (
            SweepRow("d", 64, 16, 0, n_bases=1000, compressed_bytes=100,
                     ratio=10.0, seconds=0.5, verbatim=2, forward=3,
                     reverse=1, continuation=10),
            SweepRow("d", 64, 16, 1, n_bases=1000, compressed_bytes=50,
                     ratio=20.0, seconds=0.25, verbatim=0, forward=1,
                     reverse=0, continuation=15),
            SweepRow("d", 32, 16, 0, error="ValueError: nope"),
        )
        return BenchReport(rows)

    def test_to_csv_round_trips(self):
        report = self.make_report()
        parsed = list(csv.reader(io.StringIO(report.to_csv())))
        assert parsed[0] == list(_CSV_COLUMNS)
        assert len(parsed) == 4
        first = dict(zip(parsed[0], parsed[1]))
        assert first["ratio"] == "10.000000"
        assert first["bases_per_sec"] == "2000.0"
        assert first["n_tokens"] == "16"
        errored = dict(zip(parsed[0], parsed[3]))
        assert errored["ratio"] == ""
        assert errored["error"] == "ValueError: nope"

    def test_to_table_shape(self):
        report = self.make_report()
        lines = report.to_table().splitlines()
        assert len(lines) == 2 + len(report.rows)
        assert lines[0].split()[:4] == ["dataset", "k", "s", "trial"]
        assert set(lines[1]) <= {"-", " "}
        assert "ValueError: nope" in lines[4]
        assert lines[4].split()[4] == "-"  # no ratio on the error row

    def test_row_properties(self):
        row = SweepRow("d", 64, 16, 0, verbatim=1, forward=2, reverse=3,
                       continuation=4, n_bases=100, seconds=0.0)
        assert row.n_tokens == 10
        assert row.bases_per_sec is None  # zero elapsed time

    def test_mean_ratios_skips_errors(self):
        assert self.make_report().mean_ratios() == {("d", 64, 16): 15.0}
