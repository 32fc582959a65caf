"""Runs one workload through refpack's CLI in-process and checks every output.

A round runs build-index, compress, decompress, one batch of extracts,
shd-filter and sweep, in that order, by one closed-loop caller. Only the
commands and the extracts are timed; each output check runs after its
command, outside the timed region. An operation is one CLI command, one
extract or one output check; every failed one is counted.

Host speed. On a shared virtual machine, other tenants on the same cores can
slow all code alike by up to 2x for seconds to minutes at a time. So every
timed region is preceded by a fixed probe that touches no refpack code
(an interpreter loop, a numpy pass and a SHA-256), and its time is scaled by
the probe's nominal time over the median time of the run's last
PROBE_WINDOW probes, about one round's worth: one probe alone varies by
~12% from the next, which would pass straight into the figures. No probe
runs after a region, so work a command leaves running after it returns
cannot shrink its own figure. Reported times are seconds at the nominal host
speed; the same metrics from the raw times, and the median factor of all the
run's probes, are reported beside them.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import os
import resource
import shutil
import statistics
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import workloads as wl
from .tracing import Tracer, layer_metrics

cli = importlib.import_module("refpack.cli")
container_mod = importlib.import_module("refpack.container")
sequence_mod = importlib.import_module("refpack.sequence")

SETUP_REPEATS = 9
MIN_ROUNDS = 4  # so that a run holds at least 2,000 extracts
SWEEP_K = "16,32"
SWEEP_S = "8,16"
SWEEP_TRIALS = 2
SWEEP_CELLS = 2 * 2 * SWEEP_TRIALS
SWEEP_THREADS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("index_build_mbp_per_s", "Mbp/s"),
    ("compress_mbp_per_s", "Mbp/s"),
    ("decompress_mbp_per_s", "Mbp/s"),
    ("extract_ms_p50", "ms"),
    ("extract_ms_p99", "ms"),
    ("bits_per_base", "bit/base"),
    ("shd_kpairs_per_s", "kpairs/s"),
    ("sweep_cells_per_s", "cells/s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# Fastest time of probe_s() on a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
PROBE_NOMINAL_S = 0.018
PROBE_WINDOW = 6  # a round's timed regions
_PROBE_WORDS = np.arange(1 << 18, dtype=np.uint64)
_PROBE_BYTES = bytes(range(256)) * 4096


def probe_s() -> float:
    """Time of a fixed mix of interpreter, numpy and hashing work."""
    start = perf_counter()
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    words = _PROBE_WORDS
    for _ in range(6):
        words = (words * np.uint64(0x9E3779B1)) ^ (words >> np.uint64(13))
    hashlib.sha256(_PROBE_BYTES).digest()
    return perf_counter() - start


class HostSpeed:
    """The probes of one run."""

    def __init__(self):
        self.factors: list[float] = []  # nominal over measured, of every probe
        self._recent = deque(maxlen=PROBE_WINDOW)

    def probe(self) -> float:
        """Probe now; the factor of the latest PROBE_WINDOW probes."""
        self.factors.append(PROBE_NOMINAL_S / probe_s())
        self._recent.append(self.factors[-1])
        return statistics.median(self._recent)


class Clock:
    """Times a region: ``raw`` seconds, and ``scaled`` to nominal host speed
    by the probes taken up to just before the region."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed

    def __enter__(self):
        self.factor = self.speed.probe()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = perf_counter() - self._start
        self.scaled = self.raw * self.factor
        return False


@dataclass
class Round:
    scaled: dict[str, float] = field(default_factory=dict)  # successful commands only
    raw: dict[str, float] = field(default_factory=dict)
    extract_ms: list[float] = field(default_factory=list)  # raw
    extract_factor: float = 1.0
    extract_batch_s: float = 0.0  # scaled

    @property
    def timed_s(self) -> float:
        """Scaled seconds of every timed region of the round."""
        return sum(self.scaled.values()) + self.extract_batch_s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of the values are above it
    or equal to it."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100 * len(ordered))))
    return ordered[rank - 1]


def parse_fasta_text(text: str) -> list[tuple[str, str]]:
    """Records of a FASTA file as (id, bases); independent of refpack."""
    records = []
    for block in text.split(">")[1:]:
        header, _, body = block.partition("\n")
        records.append((header.strip(), body.replace("\n", "")))
    return records


class Workload:
    """One workload's inputs on disk, with its expected outputs."""

    def __init__(self, inputs: wl.Inputs, files: wl.Files, seed: int, tally: Tally,
                 speed: HostSpeed | None = None):
        self.inputs = inputs
        self.files = files
        self.tally = tally
        self.speed = speed or HostSpeed()
        self.expected = [(name, wl.ascii_of(seq)) for name, seq in inputs.targets]
        rng = np.random.default_rng([seed, 1])
        lengths = np.array([seq.length for _, seq in inputs.targets])
        records = rng.integers(0, len(lengths), inputs.n_extracts)
        offsets = (rng.random(inputs.n_extracts) * (lengths[records] - wl.EXTRACT_LEN + 1))
        self.extract_plan = list(zip(records.tolist(), offsets.astype(np.int64).tolist()))

    def _cli(self, argv: list[str], r: Round, tracer: Tracer | None) -> str:
        """Run and time one command; returns its standard output."""
        out = io.StringIO()
        span = tracer.root(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with Clock(self.speed) as clock:
                try:
                    with span:
                        status = cli.main([str(a) for a in argv])
                except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                    status = f"{type(exc).__name__}: {exc}"
        if self.tally.record(status == 0, f"refpack {argv[0]}: exit {status}"):
            r.raw[argv[0]], r.scaled[argv[0]] = clock.raw, clock.scaled
        return out.getvalue()

    def run_round(self, tracer: Tracer | None = None) -> Round:
        f = self.files
        r = Round()
        commands = {
            "build-index": ["build-index", "--reference", f.reference, "--k", wl.K,
                            "--out", f.index],
            "compress": ["compress", "--reference", f.reference, "--index", f.index,
                         "--target", f.target, "--out", f.container],
            "decompress": ["decompress", "--container", f.container,
                           "--reference", f.reference, "--out", f.decompressed],
            "shd-filter": ["shd-filter", "--reads", f.reads, "--segments", f.segments, "--clip"],
            "sweep": ["sweep", "--target", f.sweep_target, "--reference", f.sweep_reference,
                      "--k-values", SWEEP_K, "--s-values", SWEEP_S,
                      "--trials", SWEEP_TRIALS, "--threads", SWEEP_THREADS, "--csv", "-"],
        }
        for command, argv in commands.items():
            stdout = self._cli(argv, r, tracer)
            if command == "decompress":
                self.check_decompressed()
                self.extract_batch(r, tracer)
            elif command == "shd-filter":
                self.check_shd(stdout)
            elif command == "sweep":
                self.check_sweep(stdout)
        return r

    def check_decompressed(self) -> None:
        try:
            got = parse_fasta_text(self.files.decompressed.read_text())
        except OSError as exc:
            got = [("", str(exc))]
        self.tally.record(got == self.expected, "decompressed FASTA differs from the target")

    def check_shd(self, tsv: str) -> None:
        rows = [line.split("\t") for line in tsv.splitlines()]
        ok = len(rows) == len(self.inputs.reads) and all(
            len(row) == 4
            and row[0] == read_id
            and row[1] == seg_id
            and (row[3] == "accept" or not identical)
            for row, (read_id, _), (seg_id, _), identical in zip(
                rows, self.inputs.reads, self.inputs.segments, self.inputs.identical
            )
        )
        self.tally.record(ok, "shd-filter rejected an identical pair or misreported pairs")

    def check_sweep(self, text: str) -> None:
        rows = list(csv.DictReader(io.StringIO(text)))
        ok = len(rows) == SWEEP_CELLS and all(
            not row["error"] and float(row["ratio"] or 0) > 0 for row in rows
        )
        self.tally.record(ok, "sweep rows missing or failed")

    def extract_batch(self, r: Round, tracer: Tracer | None) -> None:
        """Random-access reads of EXTRACT_LEN bases from a container and a
        reference that are loaded once, as a reader process holds them."""
        pieces, raw_ms = [], []
        span = tracer.root("extract") if tracer else contextlib.nullcontext()
        gc.collect()  # so that the batch pays only for its own garbage
        with Clock(self.speed) as clock, span:
            try:
                container = container_mod.read_container(self.files.container)
                reference = sequence_mod.load_sequences(self.files.reference)[0].seq
            except Exception as exc:  # noqa: BLE001 - every planned extract fails
                container = exc
            for rec_i, offset in self.extract_plan:
                t0 = perf_counter()
                try:
                    piece = container_mod.extract_range(
                        container, container.records[rec_i], reference, offset, wl.EXTRACT_LEN
                    )
                except Exception as exc:  # noqa: BLE001 - a crash is a failed extract
                    piece = exc
                raw_ms.append((perf_counter() - t0) * 1e3)
                pieces.append(piece)
        r.extract_batch_s = clock.scaled
        r.extract_ms = raw_ms
        r.extract_factor = clock.factor
        for piece, (rec_i, offset) in zip(pieces, self.extract_plan):
            want = self.expected[rec_i][1][offset : offset + wl.EXTRACT_LEN]
            ok = isinstance(piece, sequence_mod.PackedSequence) and piece.to_ascii() == want
            self.tally.record(ok, f"extract {self.expected[rec_i][0]}:{offset} wrong: {piece!r}")


@contextlib.contextmanager
def workspace(root: Path, name: str):
    directory = root / "work" / f"{name}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        yield wl.Files.under(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _setup(name: str, seed: int, scale: float, files: wl.Files,
           speed: HostSpeed) -> tuple[wl.Inputs, Clock]:
    with Clock(speed) as clock:
        inputs = wl.generate(name, seed, scale)
        wl.write_inputs(inputs, files)
    return inputs, clock


def _rounds_until(deadline: float, one_round, at_least: int) -> list:
    """Run rounds while the next one, as long as the last, fits."""
    results = []
    while True:
        start = perf_counter()
        results.append(one_round())
        if len(results) >= at_least and perf_counter() + (perf_counter() - start) > deadline:
            return results


def measure(name: str, seed: int, seconds: float, scale: float, out_root: Path):
    """Untraced run: end-to-end metrics, the same metrics from raw times with
    the median host-speed factor, rounds, tally."""
    tally, speed = Tally(), HostSpeed()
    with workspace(out_root, name) as files:
        # Only the last setup's inputs stay alive, so that peak_rss_mib holds
        # one copy of them.
        setups = [_setup(name, seed, scale, files, speed)[1] for _ in range(SETUP_REPEATS - 1)]
        inputs, clock = _setup(name, seed, scale, files, speed)
        setups.append(clock)
        work = Workload(inputs, files, seed, tally, speed)
        rounds = _rounds_until(perf_counter() + seconds, work.run_round, MIN_ROUNDS)
        bnc_bytes = files.container.stat().st_size if files.container.exists() else 0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def end_to_end(times: str) -> dict[str, float]:
        def median_s(command):
            values = [getattr(r, times)[command] for r in rounds if command in r.raw]
            return statistics.median(values) if values else float("inf")

        def extract_ms(q):
            # The median of the rounds' percentiles, so that one stalled round
            # cannot move it.
            return statistics.median(
                percentile(r.extract_ms, q) * (r.extract_factor if times == "scaled" else 1)
                for r in rounds
            )

        return {
            "setup_s": statistics.median(getattr(c, times) for c in setups),
            "index_build_mbp_per_s": inputs.reference.length / 1e6 / median_s("build-index"),
            "compress_mbp_per_s": inputs.target_bases / 1e6 / median_s("compress"),
            "decompress_mbp_per_s": inputs.target_bases / 1e6 / median_s("decompress"),
            "extract_ms_p50": extract_ms(50),
            "extract_ms_p99": extract_ms(99),
            "bits_per_base": 8 * bnc_bytes / inputs.target_bases,
            "shd_kpairs_per_s": len(inputs.reads) / 1e3 / median_s("shd-filter"),
            "sweep_cells_per_s": SWEEP_CELLS / median_s("sweep"),
            "peak_rss_mib": peak_rss_mib,
        }

    raw = {"metrics": end_to_end("raw"), "factor_median": statistics.median(speed.factors)}
    return end_to_end("scaled"), raw, rounds, tally


def measure_traced(name: str, seed: int, seconds: float, scale: float, out_root: Path):
    """Traced run: pairs of an untraced and a traced round; per-layer metrics
    are medians over the traced rounds."""
    tally = Tally()
    with workspace(out_root, name) as files:
        speed = HostSpeed()
        inputs, _ = _setup(name, seed, scale, files, speed)
        work = Workload(inputs, files, seed, tally, speed)
        last = {}

        def pair():
            plain = work.run_round()
            tracer = last["tracer"] = Tracer()
            with tracer.installed():
                traced = work.run_round(tracer)
            container = container_mod.read_container(files.container)
            layer = layer_metrics(
                tracer,
                bidx_bytes=files.index.stat().st_size,
                group_bytes=sum(rec.region_size - 4 for rec in container.records),
                container_bytes=len(container.data),
            )
            layer["trace.overhead_pct"] = 100 * (traced.timed_s / plain.timed_s - 1)
            return layer

        layers = _rounds_until(perf_counter() + seconds, pair, 1)
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    return metrics, len(layers), tally, last["tracer"]
