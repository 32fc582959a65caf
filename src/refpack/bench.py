"""Parameter-sweep benchmark harness.

Sweeps the (k, s) grid over one or more datasets, measuring compression
ratio, wall time, throughput, and the token-kind histogram per configuration.
Ratios use the width-generalized group encoder, so s values other than 16 are
measured even though only s=16 is admissible in version-1 containers; rows
produced with s != 16 are not container-compatible.

Rows run in a thread pool (size from the REFPACK_THREADS environment
variable); the report is assembled order-stable by (dataset, k, s, trial),
and ratios are deterministic regardless of pool size.  Timing and throughput
columns are informational only.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .compress import CompressParams, TokenKind, compress, compression_ratio, encode_groups
from .index import ReferenceIndex, build_index
from .sequence import PackedSequence, load_sequences

DEFAULT_K_VALUES = (16, 32, 64, 128, 256)
DEFAULT_S_VALUES = (4, 8, 16, 32, 64)

THREADS_ENV_VAR = "REFPACK_THREADS"


def worker_count(explicit: Optional[int] = None) -> int:
    """Pool size: explicit argument, else REFPACK_THREADS, else CPU-bounded."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError("thread count must be positive")
        return explicit
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
        if n < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be positive, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepDataset:
    """A reference plus one target corpus per trial.

    ``trial_targets[t]`` holds the sequences compressed during trial ``t``
    (a corpus may hold several records, e.g. a batch of reads); trials beyond
    the list reuse it cyclically.
    """

    name: str
    reference: PackedSequence
    trial_targets: tuple[tuple[PackedSequence, ...], ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if not self.trial_targets or any(not t for t in self.trial_targets):
            raise ValueError("dataset needs at least one non-empty target corpus")

    @classmethod
    def from_paths(
        cls,
        target_path: Union[str, Path],
        reference_path: Union[str, Path],
        *,
        name: Optional[str] = None,
    ) -> "SweepDataset":
        reference = load_sequences(reference_path)[0].seq
        targets = tuple(rec.seq for rec in load_sequences(target_path))
        return cls(name or Path(target_path).stem, reference, (targets,))

    def targets_for_trial(self, trial: int) -> tuple[PackedSequence, ...]:
        return self.trial_targets[trial % len(self.trial_targets)]


@dataclass(frozen=True)
class SweepSpec:
    datasets: tuple[SweepDataset, ...]
    k_values: tuple[int, ...] = DEFAULT_K_VALUES
    s_values: tuple[int, ...] = DEFAULT_S_VALUES
    trials: int = 1
    index_stride: int = 1
    use_prefilter: bool = True

    def __post_init__(self):
        if any(k < 1 for k in self.k_values) or any(s < 1 for s in self.s_values):
            raise ValueError("k and s values must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")

    def pairs(self) -> list[tuple[int, int]]:
        """The evaluated (k, s) grid: s never exceeds k."""
        return [(k, s) for k in self.k_values for s in self.s_values if s <= k]


_CSV_COLUMNS = (
    "dataset",
    "k",
    "s",
    "trial",
    "n_bases",
    "compressed_bytes",
    "ratio",
    "seconds",
    "bases_per_sec",
    "verbatim",
    "forward",
    "reverse",
    "continuation",
    "n_tokens",
    "external_ratio",
    "error",
)


@dataclass(frozen=True)
class SweepRow:
    dataset: str
    k: int
    s: int
    trial: int
    n_bases: int = 0
    compressed_bytes: int = 0
    ratio: Optional[float] = None
    seconds: float = 0.0
    verbatim: int = 0
    forward: int = 0
    reverse: int = 0
    continuation: int = 0
    # Hook for pasting in ratios measured with third-party compressors on the
    # same dataset; never populated by the sweep itself.
    external_ratio: Optional[float] = None
    error: Optional[str] = None

    @property
    def n_tokens(self) -> int:
        return self.verbatim + self.forward + self.reverse + self.continuation

    @property
    def bases_per_sec(self) -> Optional[float]:
        if self.seconds <= 0 or self.error is not None:
            return None
        return self.n_bases / self.seconds


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in self.rows:
            bps = r.bases_per_sec
            writer.writerow(
                [
                    r.dataset,
                    r.k,
                    r.s,
                    r.trial,
                    r.n_bases,
                    r.compressed_bytes,
                    "" if r.ratio is None else f"{r.ratio:.6f}",
                    f"{r.seconds:.6f}",
                    "" if bps is None else f"{bps:.1f}",
                    r.verbatim,
                    r.forward,
                    r.reverse,
                    r.continuation,
                    r.n_tokens,
                    "" if r.external_ratio is None else f"{r.external_ratio:.6f}",
                    r.error or "",
                ]
            )
        return buf.getvalue()

    def to_table(self) -> str:
        headers = ("dataset", "k", "s", "trial", "ratio", "seconds", "bases/s", "V", "F", "R", "C", "error")
        body = []
        for r in self.rows:
            bps = r.bases_per_sec
            body.append(
                (
                    r.dataset,
                    str(r.k),
                    str(r.s),
                    str(r.trial),
                    "-" if r.ratio is None else f"{r.ratio:.3f}",
                    f"{r.seconds:.3f}",
                    "-" if bps is None else f"{bps:,.0f}",
                    str(r.verbatim),
                    str(r.forward),
                    str(r.reverse),
                    str(r.continuation),
                    r.error or "",
                )
            )
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
            "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
        ]
        for row in body:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
        return "\n".join(lines) + "\n"

    def mean_ratios(self) -> dict[tuple[str, int, int], float]:
        """Mean ratio per (dataset, k, s) over trials, skipping error rows."""
        sums: dict[tuple[str, int, int], list[float]] = {}
        for r in self.rows:
            if r.ratio is not None:
                sums.setdefault((r.dataset, r.k, r.s), []).append(r.ratio)
        return {key: sum(v) / len(v) for key, v in sums.items()}


def _run_one(
    dataset: SweepDataset,
    index: ReferenceIndex,
    k: int,
    s: int,
    trial: int,
    use_prefilter: bool,
) -> SweepRow:
    try:
        params = CompressParams(k=k, s=s)
        started = time.perf_counter()
        counts = {kind: 0 for kind in TokenKind}
        total_bases = 0
        total_bytes = 0
        for target in dataset.targets_for_trial(trial):
            result = compress(target, index, dataset.reference, params, use_prefilter=use_prefilter)
            total_bases += result.n_bases
            total_bytes += len(encode_groups(result.kinds, result.words, params))
            for kind, n in result.kind_counts().items():
                counts[kind] += n
        elapsed = time.perf_counter() - started
        return SweepRow(
            dataset=dataset.name,
            k=k,
            s=s,
            trial=trial,
            n_bases=total_bases,
            compressed_bytes=total_bytes,
            ratio=compression_ratio(total_bases, total_bytes),
            seconds=elapsed,
            verbatim=counts[TokenKind.VERBATIM],
            forward=counts[TokenKind.FORWARD_MATCH],
            reverse=counts[TokenKind.REVERSE_MATCH],
            continuation=counts[TokenKind.CONTINUATION],
        )
    except Exception as exc:  # noqa: BLE001 - per-row failures must not kill the sweep
        return SweepRow(dataset=dataset.name, k=k, s=s, trial=trial, error=f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec, *, threads: Optional[int] = None) -> BenchReport:
    """Evaluate every admissible (dataset, k, s, trial) cell.

    Indexes are built once per (dataset, k) and shared read-only across the
    pool.  A failing cell is recorded in its row's ``error`` column and the
    sweep continues.
    """
    if not spec.datasets:
        return BenchReport(())

    pairs = spec.pairs()
    indexes: dict[tuple[str, int], Union[ReferenceIndex, Exception]] = {}
    for dataset in spec.datasets:
        for k in {k for k, _ in pairs}:
            try:
                indexes[(dataset.name, k)] = build_index(
                    dataset.reference, k, sampling_stride=spec.index_stride
                )
            except Exception as exc:  # noqa: BLE001 - recorded per-row below
                indexes[(dataset.name, k)] = exc

    cells = [
        (dataset, k, s, trial)
        for dataset in spec.datasets
        for k, s in pairs
        for trial in range(spec.trials)
    ]

    def evaluate(cell):
        dataset, k, s, trial = cell
        index = indexes[(dataset.name, k)]
        if isinstance(index, Exception):
            return SweepRow(
                dataset=dataset.name, k=k, s=s, trial=trial,
                error=f"index build failed: {type(index).__name__}: {index}",
            )
        return _run_one(dataset, index, k, s, trial, spec.use_prefilter)

    n_workers = worker_count(threads)
    if n_workers == 1 or len(cells) == 1:
        rows = [evaluate(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(evaluate, cells))
    return BenchReport(tuple(rows))
