"""Self-test of the benchmark harness, at a tiny input scale.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, tracing, workloads  # noqa: E402

TINY = ["--scale", "0.02", "--seconds", "0.1"]


def _run(capsys, *argv):
    assert run.main([*argv, *TINY]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines = _run(capsys, "--workload", workload, "--seed", "3", "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = dict(tracing.PER_LAYER if trace == "1" else harness.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[1:] if line.startswith("  ")}
    assert {k: printed[k] for k in expected} == expected
    assert printed["error_rate"] == "share"


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.PER_LAYER)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] from two threads, which
    # overlap, and c [8, 12], which ends after its parent; a has child d.
    ids = [1, 2, 3, 4, 5]
    parents = [0, 1, 1, 1, 2]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = tracing.self_times(ids, parents, starts, ends)
    # root: 10 - |[1, 6] u [8, 10]| = 3; a: 3 - 1 = 2; b, c, d: leaves
    assert own.tolist() == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_corrupted_extract_raises_error_rate(monkeypatch, tmp_path):
    real = harness.container_mod.extract_range
    calls = []

    def corrupt_first(container, record, reference, offset, length, **kwargs):
        piece = real(container, record, reference, offset, length, **kwargs)
        calls.append(offset)
        if len(calls) > 1:
            return piece
        codes = piece.codes().copy()
        codes[0] ^= 1
        return harness.sequence_mod.PackedSequence.from_codes(codes)

    monkeypatch.setattr(harness.container_mod, "extract_range", corrupt_first)
    _, _, _, tally = harness.measure("cohort", 5, 0.0, 0.02, tmp_path)
    assert tally.failed == 1
    assert tally.error_rate == 1 / tally.attempted


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_rejected_identical_pair_raises_error_rate(workload, tmp_path):
    inputs = workloads.generate(workload, 9, 0.02)
    assert sum(inputs.identical) >= len(inputs.reads) // 8 >= 2
    work = harness.Workload(inputs, workloads.Files.under(tmp_path), 9, harness.Tally())
    rows = [[read_id, seg_id, "0", "accept"]
            for (read_id, _), (seg_id, _) in zip(inputs.reads, inputs.segments)]
    work.check_shd("".join("\t".join(row) + "\n" for row in rows))
    assert work.tally.failed == 0
    rows[inputs.identical.index(True)][3] = "reject"
    work.check_shd("".join("\t".join(row) + "\n" for row in rows))
    assert work.tally.failed == 1


def test_exact_counts_repeat_for_a_seed(tmp_path):
    first = harness.measure_traced("rearranged", 7, 0.0, 0.02, tmp_path)[0]
    second = harness.measure_traced("rearranged", 7, 0.0, 0.02, tmp_path)[0]
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}
    assert first["compress.tokens"] > 0 and first["index.probe.calls"] > 0


def test_traced_run_restores_every_function():
    before = {
        (module, attr): getattr(sys.modules[module], attr)
        for _, module, attr, _, _ in tracing.FUNCTIONS
    }
    methods = {attr: vars(cls)[attr] for _, cls, attr in tracing.METHODS}
    with tracing.Tracer().installed():
        assert harness.container_mod.extract_range is not before[("refpack.container", "extract_range")]
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())
    assert all(vars(cls)[attr] is methods[attr] for _, cls, attr in tracing.METHODS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1", *TINY],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
