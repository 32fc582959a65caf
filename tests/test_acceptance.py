"""End-to-end acceptance checks, one test per release gate.

Each test prints a single PASS/FAIL summary line with its measured numbers
(run ``pytest tests/test_acceptance.py -v -s`` to see them), then asserts.
The checks are intentionally heavier than the unit tests: randomized corpora,
exhaustive corruption, and trend measurements over parameter grids.
"""

import hashlib
import io
import itertools
import time

import numpy as np
import pytest

from refpack import (
    CompressParams,
    MutationProfile,
    ShdConfig,
    SweepDataset,
    SweepSpec,
    build_index,
    compress,
    decompress,
    edit_distance,
    make_stream,
    mutate,
    random_reads,
    random_sequence,
    read_container,
    run_sweep,
    shd,
    spliced_rearrangement,
    write_container,
    write_fasta,
)
from refpack.cli import main
from refpack.compress import TokenKind, compression_ratio, encode_groups
from refpack.container import decompress_records, extract_range
from refpack.errors import RefpackError
from refpack.index import QueryStats
from refpack.sequence import (
    PackedSequence,
    concat_sequences,
    kmer_at,
    reverse_complement_sequence,
    sequence_checksum,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} — {detail}")


# --------------------------------------------------------------------- corpus


@pytest.fixture(scope="module")
def corpus():
    """≥10 000 (reference, target) pairs spanning every target category."""
    rng = np.random.default_rng(0xACC1)
    refs = []
    for k in (64, 64, 64, 32, 32):
        ref = random_sequence(6_000, rng)
        refs.append(
            (ref, build_index(ref, k), CompressParams(k=k, s=16), sequence_checksum(ref))
        )

    def ref_slice(ref, lo=64, hi=1200):
        n = int(rng.integers(lo, hi))
        start = int(rng.integers(0, ref.length - n + 1))
        return PackedSequence.from_codes(ref.codes()[start : start + n])

    targets: list[tuple[int, PackedSequence]] = []
    for j in range(600):  # identity: whole references and plain slices
        i = j % len(refs)
        targets.append((i, ref_slice(refs[i][0]) if j % 2 else refs[i][0]))
    for rate in (0.001, 0.01, 0.05, 0.10):
        profile = MutationProfile(
            snp=rate * 0.8, insertion=rate * 0.1, deletion=rate * 0.1
        )
        for j in range(1500):
            i = j % len(refs)
            targets.append((i, mutate(ref_slice(refs[i][0]), profile, rng)))
    for j in range(1200):  # splices, both orientations
        i = j % len(refs)
        targets.append(
            (i, spliced_rearrangement(refs[i][0], int(rng.integers(2, 7)), rng,
                                      min_len=32, max_len=256))
        )
    for j in range(1200):  # reverse-complement segments
        i = j % len(refs)
        targets.append((i, reverse_complement_sequence(ref_slice(refs[i][0]))))
    for j in range(1200):  # unrelated sequences
        i = j % len(refs)
        targets.append((i, random_sequence(int(rng.integers(64, 800)), rng)))

    assert len(targets) >= 10_000
    return refs, targets


# Criterion-1 encodings (prefilter on), reused by the criterion-6 identity
# check; filled lazily so either test can run alone.
_ENCODED: dict[int, bytes] = {}


def _encode(refs, idx, target, *, use_prefilter):
    ref, index, params, _ = refs[idx]
    result = compress(target, index, ref, params, use_prefilter=use_prefilter)
    return result, encode_groups(result.kinds, result.words, params)


def test_criterion_01_round_trip_exactness(corpus):
    refs, targets = corpus
    started = time.perf_counter()
    failures = 0
    for pos, (i, target) in enumerate(targets):
        ref, index, params, checksum = refs[i]
        result, data = _encode(refs, i, target, use_prefilter=True)
        _ENCODED[pos] = data
        stream = make_stream(result, params, checksum)
        if decompress(stream, ref) != target:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed <= 300.0
    report(1, "round-trip exactness", ok,
           f"{len(targets)} pairs, {failures} failures, {elapsed:.1f}s (limit 300s)")
    assert ok


def test_criterion_02_self_compression_ratio():
    rng = np.random.default_rng(0xACC2)
    started = time.perf_counter()
    ref = random_sequence(1_000_000, rng)
    params = CompressParams(k=64, s=16)
    index = build_index(ref, 64)
    result = compress(ref, index, ref, params)
    ratio = compression_ratio(result.n_bases, len(encode_groups(result.kinds, result.words, params)))
    elapsed = time.perf_counter() - started
    ok = ratio >= 100.0
    report(2, "self-compression ratio", ok,
           f"{result.n_bases} bases at ratio {ratio:.1f} (need ≥ 100), {elapsed:.1f}s")
    assert ok


def test_criterion_03_all_verbatim_floor():
    rng = np.random.default_rng(0xACC3)
    ref = random_sequence(20_000, rng)
    target = random_sequence(65_536, rng)  # multiple of 256 ⇒ exact floor
    params = CompressParams(k=64, s=16)
    result = compress(target, build_index(ref, 64), ref, params)
    kinds = set(result.kind_counts())
    ratio = compression_ratio(result.n_bases, len(encode_groups(result.kinds, result.words, params)))
    ok = kinds == {TokenKind.VERBATIM} and abs(ratio - 3.76) <= 0.05
    report(3, "all-verbatim floor", ok,
           f"ratio {ratio:.4f} (want 3.76 ± 0.05), token kinds {sorted(k.name for k in kinds)}")
    assert ok
    assert ratio == pytest.approx(256 / 68)  # 68 bytes per 16-token group


def test_criterion_04_stride_trend():
    rng = np.random.default_rng(0xACC4)
    ref = random_sequence(40_000, rng)
    trials = tuple(
        (mutate(ref, MutationProfile(snp=0.01), rng),) for _ in range(10)
    )
    spec = SweepSpec(
        (SweepDataset("snp1pct", ref, trials),),
        k_values=(64,), s_values=(4, 8, 16, 32, 64), trials=10,
    )
    means = run_sweep(spec).mean_ratios()
    curve = {s: means[("snp1pct", 64, s)] for s in (4, 8, 16, 32, 64)}
    best = max(curve.values())
    ok = curve[16] > curve[4] and curve[16] >= 0.9 * best
    report(4, "stride trend", ok,
           "mean ratios " + ", ".join(f"s={s}: {v:.2f}" for s, v in curve.items()))
    assert ok


def test_criterion_05_kmer_length_trend():
    # Reads carry 2% errors (penalizing long k-mers) and the reference carries
    # repeat structure (penalizing short, ambiguous k-mers), so the measured
    # curve should peak strictly inside the k grid.
    rng = np.random.default_rng(0xACC5)
    motif = random_sequence(1_000, rng)
    ref = concat_sequences(
        [mutate(motif, MutationProfile(snp=0.03), rng) for _ in range(50)]
    )
    profile = MutationProfile(snp=0.02)
    trials = tuple(
        tuple(random_reads(ref, 20, 2_000, profile, rng, rc_fraction=0.3))
        for _ in range(10)
    )
    k_grid = (16, 32, 64, 128, 256)
    spec = SweepSpec(
        (SweepDataset("reads2pct", ref, trials),),
        k_values=k_grid, s_values=(16,), trials=10,
    )
    means = run_sweep(spec).mean_ratios()
    curve = [means[("reads2pct", k, 16)] for k in k_grid]
    ok = max(curve) not in (curve[0], curve[-1])
    report(5, "k-mer length trend", ok,
           "mean ratios " + ", ".join(f"k={k}: {v:.2f}" for k, v in zip(k_grid, curve)))
    assert ok


def test_criterion_06_prefilter_soundness(corpus):
    refs, targets = corpus
    mismatches = 0
    for pos, (i, target) in enumerate(targets):
        if pos not in _ENCODED:
            _, _ENCODED[pos] = _encode(refs, i, target, use_prefilter=True)
        _, off_bytes = _encode(refs, i, target, use_prefilter=False)
        if off_bytes != _ENCODED[pos]:
            mismatches += 1

    # Rejection power, measured on probes that cannot match the reference.
    rng = np.random.default_rng(0xACC6)
    stats = QueryStats()
    ref, index, params, _ = refs[0]
    compress(random_sequence(50_000, rng), index, ref, params, stats=stats)
    non_matching = stats.prefilter_rejects + stats.verify_failures
    reject_rate = stats.prefilter_rejects / non_matching
    ok = mismatches == 0 and reject_rate >= 0.5
    report(6, "prefilter soundness", ok,
           f"{len(targets)} outputs compared, {mismatches} differ; "
           f"rejected {reject_rate:.1%} of {non_matching} non-matching probes")
    assert ok


def test_criterion_07_cuckoo_integrity(tmp_path):
    # 131 134 bases puts exactly 2^17 - 1 stride-1 k-mers into a 2^18-slot
    # table: the largest attempt count whose load factor stays ≤ 0.5.
    rng = np.random.default_rng(0xACC7)
    ref = random_sequence(131_134, rng)
    started = time.perf_counter()
    index = build_index(ref, 64, sampling_stride=1)
    attempts = ref.length - 64 + 1
    codes_bytes = ref.codes().tobytes()
    retrievable = 0
    for off in range(attempts):
        cand = index.query(ref, kmer_at(ref, off, 64))
        if cand is not None and (
            codes_bytes[cand.offset : cand.offset + 64] == codes_bytes[off : off + 64]
        ):
            retrievable += 1
    path = tmp_path / "acc7.bidx"
    index.save(path)
    reloaded = type(index).load(path)
    second = io.BytesIO()
    reloaded.save(second)
    bit_exact = second.getvalue() == path.read_bytes()
    elapsed = time.perf_counter() - started
    ok = (
        index.skipped_keys == 0
        and abs(index.load_factor - 0.5) < 1e-4
        and retrievable == attempts
        and bit_exact
    )
    report(7, "cuckoo integrity", ok,
           f"load {index.load_factor:.6f}, skipped {index.skipped_keys}, "
           f"retrieved {retrievable}/{attempts}, save/load bit-exact: {bit_exact}, "
           f"{elapsed:.1f}s")
    assert ok


def test_criterion_08_random_access():
    rng = np.random.default_rng(0xACC8)
    ref = random_sequence(40_000, rng)
    index = build_index(ref, 64)
    params = CompressParams(k=64, s=16)
    pieces = {
        "near": mutate(ref, MutationProfile(snp=0.01), rng),
        "splice": spliced_rearrangement(ref, 20, rng),
        "slice": PackedSequence.from_codes(ref.codes()[8_000:24_000]),
    }
    records = []
    for name, piece in pieces.items():
        result = compress(piece, index, ref, params, break_every_groups=4)
        records.append((name, result))
    buf = io.BytesIO()
    write_container(records, params, sequence_checksum(ref), buf, granularity=4)
    box = read_container(buf.getvalue())
    full = {rec.id: decompress_records(box, [rec], ref)[0].codes() for rec in box.records}
    mismatches = 0
    for _ in range(1_000):
        rec = box.records[int(rng.integers(0, len(box.records)))]
        off = int(rng.integers(0, rec.n_bases + 1))
        length = int(rng.integers(0, min(4_096, rec.n_bases - off) + 1))
        got = extract_range(box, rec, ref, off, length)
        if got.codes().tolist() != full[rec.id][off : off + length].tolist():
            mismatches += 1
    ok = mismatches == 0
    report(8, "random access", ok, f"1000 extractions, {mismatches} mismatches")
    assert ok


def test_criterion_09_container_robustness():
    rng = np.random.default_rng(0xACC9)
    ref = random_sequence(4_000, rng)
    index = build_index(ref, 64)
    params = CompressParams(k=64, s=16)
    pieces = [
        ("near", mutate(PackedSequence.from_codes(ref.codes()[500:2000]),
                        MutationProfile(snp=0.01), rng)),
        ("junk", random_sequence(300, rng)),
    ]
    records = []
    for name, piece in pieces:
        result = compress(piece, index, ref, params, break_every_groups=4)
        records.append((name, result))
    buf = io.BytesIO()
    write_container(records, params, sequence_checksum(ref), buf, granularity=4)
    data = buf.getvalue()
    assert len(data) < 4_096

    box = read_container(data)
    pristine = decompress_records(box, box.records, ref)
    assert pristine == [piece for _, piece in pieces]

    crashes = 0
    silent_wrong = 0
    detected = 0
    identical = 0
    for pos in range(len(data)):
        for pattern in (0x01, 0x80, 0xFF):
            mutated = bytearray(data)
            mutated[pos] ^= pattern
            try:
                parsed = read_container(bytes(mutated))
                decoded = [decompress_records(parsed, [rec], ref)[0] for rec in parsed.records]
            except RefpackError:
                detected += 1
            except Exception:
                crashes += 1
            else:
                if decoded == pristine:
                    identical += 1
                else:
                    silent_wrong += 1
    total = 3 * len(data)
    ok = crashes == 0 and silent_wrong == 0
    report(9, "container robustness", ok,
           f"{total} single-byte mutations of {len(data)} bytes: "
           f"{detected} detected, {identical} decoded identically, "
           f"{silent_wrong} silent wrong, {crashes} crashes")
    assert ok


def _edit_dp(a: str, b: str) -> int:
    """Independent oracle: the textbook dynamic program."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_criterion_10_shd_no_false_reject():
    budgets = (1, 2, 5)
    configs = {e: ShdConfig(e=e, amend_run=0) for e in budgets}
    checked = {e: 0 for e in budgets}
    false_rejects = {e: 0 for e in budgets}
    oracle_disagreements = 0

    def check(read, ref, d):
        for e in budgets:
            if d <= e:
                checked[e] += 1
                if not shd(read, ref, configs[e]).accepted:
                    false_rejects[e] += 1

    # Exhaustive products: the full binary-alphabet cross up to length 6 and
    # the full four-letter cross up to length 3; every pair's distance comes
    # from the independent DP oracle.
    for L in range(1, 7):
        for read in map("".join, itertools.product("AC", repeat=L)):
            for ref in map("".join, itertools.product("AC", repeat=L)):
                check(read, ref, _edit_dp(read, ref))
    for L in range(1, 4):
        for read in map("".join, itertools.product("ACGT", repeat=L)):
            for ref in map("".join, itertools.product("ACGT", repeat=L)):
                check(read, ref, _edit_dp(read, ref))

    rng = np.random.default_rng(0xACC10)
    bases = "ACGT"

    def near_pair(n, budget):
        ref = "".join(bases[c] for c in rng.integers(0, 4, n))
        out = list(ref)
        remaining = budget
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.4:  # balanced indel pair
                del out[int(rng.integers(0, len(out)))]
                out.insert(int(rng.integers(0, len(out) + 1)), bases[int(rng.integers(0, 4))])
                remaining -= 2
            else:
                p = int(rng.integers(0, n))
                out[p] = bases[(bases.index(out[p]) + int(rng.integers(1, 4))) % 4]
                remaining -= 1
        return "".join(out), ref

    # Dense mid-lengths, then 10 000 randomized pairs up to length 256.
    for L in range(7, 13):
        for _ in range(500):
            read, ref = near_pair(L, int(rng.integers(0, 6)))
            check(read, ref, _edit_dp(read, ref))
    for i in range(10_000):
        n = int(rng.integers(8, 257))
        read, ref = near_pair(n, int(rng.integers(0, 6)))
        d = edit_distance(read, ref)
        if i % 50 == 0 and _edit_dp(read, ref) != d:
            oracle_disagreements += 1
        check(read, ref, d)

    pinned_ref = "ACGTACGTACGTACGT"
    pinned_read = "ACGTGCGTACAGTACG"
    ones = {
        amend: shd(pinned_read, pinned_ref,
                   ShdConfig(e=1, amend_run=amend, accept_threshold=5)).ones_count
        for amend in (0, 2)
    }
    ok = (
        all(false_rejects[e] == 0 for e in budgets)
        and oracle_disagreements == 0
        and ones == {0: 2, 2: 2}
    )
    report(10, "no false rejects", ok,
           "; ".join(f"e={e}: {checked[e]} pairs, {false_rejects[e]} rejected"
                     for e in budgets)
           + f"; pinned-pair ones_count {ones[0]} plain / {ones[2]} amended (want 2)")
    assert ok


def test_criterion_11_determinism(tmp_path):
    rng = np.random.default_rng(0xACC11)
    ref = random_sequence(20_000, rng)
    target = mutate(ref, MutationProfile(snp=0.02, insertion=0.002, deletion=0.002), rng)
    write_fasta([("chr", ref)], tmp_path / "ref.fa")
    write_fasta([("t", target)], tmp_path / "t.fa")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.bnc"
        code = main([
            "compress", "--reference", str(tmp_path / "ref.fa"),
            "--target", str(tmp_path / "t.fa"), "--out", str(out),
        ])
        assert code == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    report(11, "determinism", ok, f"sha256 run A {digests[0][:16]}…, run B {digests[1][:16]}…")
    assert ok
