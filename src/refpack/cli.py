"""Command-line interface.

Subcommands: build-index, compress, decompress, extract, shd-filter, sweep,
gen-synthetic.  Data goes to stdout (or ``--out``), diagnostics to stderr.

Exit codes:
  0  success
  2  usage, path, format, or range errors
  3  reference checksum mismatch
  4  corrupt compressed stream or container

A config file (``--config PATH``) holds ``key = value`` lines ('#' starts a
comment) supplying defaults for: k, stride, granularity, prefilter, seed.
Explicit flags always win over the config file.  ``sweep`` still accepts
``--threads`` and ignores it: the sweep runs its cells in order.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .bench import DEFAULT_K_VALUES, DEFAULT_S_VALUES, SweepDataset, SweepSpec, run_sweep
from .compress import CompressParams, compress, compression_ratio, encoded_sizes
from .container import (
    DEFAULT_GRANULARITY,
    decompress_records,
    extract_range,
    read_container,
    write_container,
)
from .errors import (
    ChecksumMismatch,
    CorruptContainer,
    CorruptStream,
    FastaParseError,
    RefpackError,
)
from .index import ReferenceIndex, build_index
from .sequence import (
    PackedSequence,
    concat_sequences,
    load_sequences,
    write_2bit_raw,
    write_fasta,
)
from .shd import ShdConfig, filter_stream
from .synth import MutationProfile, mutate, random_reads, random_sequence, spliced_rearrangement

_CONFIG_KEYS = ("k", "stride", "granularity", "prefilter", "seed")

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class UsageError(Exception):
    """Raised for problems that map to exit code 2."""


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(
                f"{path}:{line_no}: unknown config key {key!r} "
                f"(known: {', '.join(_CONFIG_KEYS)})"
            )
        values[key] = value
    return values


def _cfg_int(config: dict[str, str], key: str, default: int) -> int:
    if key not in config:
        return default
    try:
        return int(config[key])
    except ValueError:
        raise UsageError(f"config key {key!r} must be an integer, got {config[key]!r}")


def _cfg_bool(config: dict[str, str], key: str, default: bool) -> bool:
    if key not in config:
        return default
    word = config[key].lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise UsageError(f"config key {key!r} must be true/false, got {config[key]!r}")


def _load_reference(path: str) -> PackedSequence:
    """Load a reference file; multi-record FASTA is concatenated in order."""
    records = load_sequences(path)
    if len(records) > 1:
        _diag(f"note: concatenating {len(records)} reference records from {path}")
    return concat_sequences([rec.seq for rec in records])


def _open_out(path: Optional[str], *, binary: bool):
    if path is None or path == "-":
        return (sys.stdout.buffer if binary else sys.stdout), False
    return open(path, "wb" if binary else "w"), True


# ---------------------------------------------------------------- subcommands


def cmd_build_index(args: argparse.Namespace, config: dict[str, str]) -> int:
    k = args.k if args.k is not None else _cfg_int(config, "k", 64)
    stride = args.stride if args.stride is not None else _cfg_int(config, "stride", 1)
    reference = _load_reference(args.reference)
    index = build_index(reference, k, sampling_stride=stride)
    index.save(args.out)
    occupied = index.occupied
    print(
        f"indexed {occupied} k-mers (k={k}, stride={stride}, "
        f"skipped {index.skipped_keys}); load factor {occupied / index.capacity:.3f}; "
        f"wrote {args.out}"
    )
    return 0


def cmd_compress(args: argparse.Namespace, config: dict[str, str]) -> int:
    reference = _load_reference(args.reference)
    if args.index:
        index = ReferenceIndex.load(args.index)
    else:
        k = args.k if args.k is not None else _cfg_int(config, "k", 64)
        stride = args.stride if args.stride is not None else _cfg_int(config, "stride", 1)
        _diag(f"note: no --index given; building one in memory (k={k}, stride={stride})")
        index = build_index(reference, k, sampling_stride=stride)
    use_prefilter = (
        False if args.no_prefilter else _cfg_bool(config, "prefilter", True)
    )
    granularity = (
        args.granularity
        if args.granularity is not None
        else _cfg_int(config, "granularity", DEFAULT_GRANULARITY)
    )
    params = CompressParams(k=index.k, s=16)
    targets = load_sequences(args.target)
    started = time.perf_counter()
    # Breaking chains at the chunk spacing keeps every chunk-index entry
    # decodable with fresh state. All records go to one ``compress`` call,
    # which is where perfbench's trace counts tokens and probes.
    results = compress(
        [rec.seq for rec in targets], index, reference, params,
        use_prefilter=use_prefilter, break_every_groups=granularity,
    )
    total_bases = sum(result.n_bases for result in results)
    group_bytes = int(encoded_sizes([result.kinds for result in results], params).sum())
    records = [(rec.id, result) for rec, result in zip(targets, results)]
    elapsed = time.perf_counter() - started
    container_bytes = write_container(
        records, params, index.ref_checksum, args.out, granularity=granularity
    )
    ratio = compression_ratio(total_bases, group_bytes)
    print(
        f"compressed {total_bases} bases in {len(records)} record(s) to "
        f"{group_bytes} stream bytes (ratio {ratio:.2f}); "
        f"container {container_bytes} bytes at {args.out} ({elapsed:.2f}s)"
    )
    return 0


def _pick_record(container, record_id: Optional[str]):
    if record_id is not None:
        try:
            return [container.find_record(record_id)]
        except KeyError:
            raise UsageError(f"record {record_id!r} not found in container")
    return list(container.records)


def cmd_decompress(args: argparse.Namespace, config: dict[str, str]) -> int:
    container = read_container(args.container)
    reference = _load_reference(args.reference)
    chosen = _pick_record(container, args.record)
    if args.format == "2bit" and len(chosen) != 1:
        raise UsageError("--format 2bit holds a single sequence; pick one with --record")
    decoded = decompress_records(container, chosen, reference)
    sequences = [(rec.id, seq) for rec, seq in zip(chosen, decoded)]
    out, owned = _open_out(args.out, binary=(args.format == "2bit"))
    try:
        if args.format == "2bit":
            write_2bit_raw(sequences[0][1], out)
        else:
            write_fasta(sequences, out)
    finally:
        if owned:
            out.close()
    total = sum(seq.length for _, seq in sequences)
    _diag(f"decompressed {len(sequences)} record(s), {total} bases")
    return 0


def cmd_extract(args: argparse.Namespace, config: dict[str, str]) -> int:
    container = read_container(args.container)
    reference = _load_reference(args.reference)
    chosen = _pick_record(container, args.record)
    if not chosen:
        raise UsageError("container holds no records")
    piece = extract_range(container, chosen[0], reference, args.offset, args.length)
    out, owned = _open_out(args.out, binary=False)
    try:
        out.write(piece.to_ascii())
        out.write("\n")
    finally:
        if owned:
            out.close()
    return 0


def _clip(seq: PackedSequence, n: int) -> PackedSequence:
    """The first n bases of ``seq``: the low 2n bits of its packed bytes."""
    head = int.from_bytes(seq.data, "little") & ((1 << 2 * n) - 1)
    return PackedSequence(head.to_bytes((n + 3) // 4, "little"), n)


def cmd_shd_filter(args: argparse.Namespace, config: dict[str, str]) -> int:
    reads = load_sequences(args.reads)
    segments = load_sequences(args.segments)
    if len(reads) != len(segments):
        raise UsageError(
            f"pair count mismatch: {len(reads)} reads vs {len(segments)} segments"
        )
    pairs = []
    clipped = 0
    for read, seg in zip(reads, segments):
        a, b = read.seq, seg.seq
        if a.length != b.length:
            if not args.clip:
                raise UsageError(
                    f"length mismatch for {read.id!r}/{seg.id!r} "
                    f"({a.length} vs {b.length}); pass --clip to truncate"
                )
            n = min(a.length, b.length)
            a, b = _clip(a, n), _clip(b, n)
            clipped += 1
        pairs.append((a, b))
    cfg = ShdConfig(
        e=args.max_edits,
        amend_run=0 if args.no_amend else args.amend_run,
        accept_threshold=args.threshold,
    )
    verdicts, summary = filter_stream(
        (a for a, _ in pairs), (b for _, b in pairs), cfg
    )
    sys.stdout.write("".join(
        f"{read.id}\t{seg.id}\t{verdict.ones_count}\t"
        f"{'accept' if verdict.accepted else 'reject'}\n"
        for read, seg, verdict in zip(reads, segments, verdicts)
    ))
    rate = 100.0 * summary.accept_rate
    _diag(
        f"{summary.pairs} pairs, {summary.accepted} accepted ({rate:.1f}%), "
        f"{summary.total_bases} bases in {summary.seconds:.3f}s "
        f"({summary.bases_per_second:,.0f} bases/s)"
        + (f"; clipped {clipped} pair(s)" if clipped else "")
    )
    return 0


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--{what} expects comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"--{what} list is empty")
    return values


def cmd_sweep(args: argparse.Namespace, config: dict[str, str]) -> int:
    datasets = []
    if args.target or args.reference:
        if not (args.target and args.reference):
            raise UsageError("--target and --reference must be given together")
        datasets.append(SweepDataset.from_paths(args.target, args.reference))
    for pair in args.dataset or ():
        if "," not in pair:
            raise UsageError(f"--dataset expects TARGET,REFERENCE, got {pair!r}")
        target_path, reference_path = pair.split(",", 1)
        datasets.append(SweepDataset.from_paths(target_path, reference_path))

    spec = SweepSpec(
        datasets=tuple(datasets),
        k_values=_parse_int_list(args.k_values, "k-values") if args.k_values else DEFAULT_K_VALUES,
        s_values=_parse_int_list(args.s_values, "s-values") if args.s_values else DEFAULT_S_VALUES,
        trials=args.trials,
        index_stride=args.index_stride
        if args.index_stride is not None
        else _cfg_int(config, "stride", 1),
        use_prefilter=False if args.no_prefilter else _cfg_bool(config, "prefilter", True),
    )
    if args.threads is not None:
        _diag("note: --threads is ignored; the sweep runs its cells in order")
    report = run_sweep(spec)
    if args.csv == "-":
        sys.stdout.write(report.to_csv())
    else:
        if args.csv:
            Path(args.csv).write_text(report.to_csv())
            _diag(f"wrote CSV to {args.csv}")
        sys.stdout.write(report.to_table())
    failures = sum(1 for row in report.rows if row.error)
    if failures:
        _diag(f"warning: {failures} sweep row(s) failed; see the error column")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace, config: dict[str, str]) -> int:
    seed = args.seed if args.seed is not None else _cfg_int(config, "seed", 0)
    rng = np.random.default_rng(seed)
    records: list[tuple[str, PackedSequence]]
    if args.reads is not None:
        if not args.source:
            raise UsageError("--reads needs --from SOURCE to sample from")
        source = _load_reference(args.source)
        profile = MutationProfile(args.snp, args.insertion, args.deletion)
        reads = random_reads(
            source, args.reads, args.read_len, profile, rng, rc_fraction=args.rc_fraction
        )
        records = [(f"read{i:05d}", read) for i, read in enumerate(reads)]
    elif args.splice_segments is not None:
        if not args.source:
            raise UsageError("--splice-segments needs --from SOURCE")
        source = _load_reference(args.source)
        records = [
            ("splice0", spliced_rearrangement(source, args.splice_segments, rng,
                                              rc_fraction=args.rc_fraction))
        ]
    elif args.source:
        source_records = load_sequences(args.source)
        profile = MutationProfile(args.snp, args.insertion, args.deletion)
        records = [
            (f"{rec.id}_mut", mutate(rec.seq, profile, rng)) for rec in source_records
        ]
    else:
        if args.length is None:
            raise UsageError("give --length for a random sequence or --from SOURCE")
        records = [("synth0", random_sequence(args.length, rng))]

    out, owned = _open_out(args.out, binary=False)
    try:
        write_fasta(records, out)
    finally:
        if owned:
            out.close()
    total = sum(seq.length for _, seq in records)
    _diag(f"wrote {len(records)} record(s), {total} bases")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value defaults file")

    parser = argparse.ArgumentParser(
        prog="refpack",
        description="Reference-based genomic compression toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "build-index", parents=[common], help="build a reference k-mer index (.bidx)"
    )
    p.add_argument("--reference", required=True, help="reference FASTA or .2bit-raw")
    p.add_argument("--k", type=int, help="k-mer length (default 64)")
    p.add_argument("--stride", type=int, help="indexing stride over the reference (default 1)")
    p.add_argument("--out", required=True, help="output .bidx path")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser(
        "compress", parents=[common], help="compress sequences against a reference (.bnc)"
    )
    p.add_argument("--reference", required=True, help="reference FASTA or .2bit-raw")
    p.add_argument("--index", help="prebuilt .bidx (default: build in memory)")
    p.add_argument("--k", type=int, help="k-mer length when building in memory (default 64)")
    p.add_argument("--stride", type=int, help="index stride when building in memory (default 1)")
    p.add_argument("--target", required=True, help="sequences to compress (FASTA or .2bit-raw)")
    p.add_argument("--out", required=True, help="output .bnc path")
    p.add_argument("--granularity", type=int, help="chunk-index spacing in groups (default 16)")
    p.add_argument("--no-prefilter", action="store_true", help="disable the probe prefilter")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser(
        "decompress", parents=[common], help="decode a container back to sequences"
    )
    p.add_argument("--container", required=True, help="input .bnc path")
    p.add_argument("--reference", required=True, help="the reference it was compressed against")
    p.add_argument("--record", help="decode only this record id")
    p.add_argument("--format", choices=("fasta", "2bit"), default="fasta")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser(
        "extract", parents=[common], help="random-access extraction of a base range"
    )
    p.add_argument("--container", required=True, help="input .bnc path")
    p.add_argument("--reference", required=True, help="the reference it was compressed against")
    p.add_argument("--record", help="record id (default: first record)")
    p.add_argument("--offset", type=int, required=True, help="start, in bases")
    p.add_argument("--length", type=int, required=True, help="number of bases")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "shd-filter", parents=[common], help="pre-alignment filtering of read/segment pairs"
    )
    p.add_argument("--reads", required=True, help="reads FASTA")
    p.add_argument("--segments", required=True, help="reference segments FASTA, pairing by order")
    p.add_argument("--max-edits", type=int, default=5, help="edit budget e (default 5)")
    p.add_argument("--amend-run", type=int, default=2, help="amendable zero-run length (default 2)")
    p.add_argument("--no-amend", action="store_true", help="disable mask amendment")
    p.add_argument("--threshold", type=int, help="acceptance threshold (default: e)")
    p.add_argument("--clip", action="store_true", help="clip unequal pairs to the shorter length")
    p.set_defaults(func=cmd_shd_filter)

    p = sub.add_parser(
        "sweep", parents=[common], help="benchmark compression over a (k, s) grid"
    )
    p.add_argument("--target", help="target path (with --reference)")
    p.add_argument("--reference", help="reference path (with --target)")
    p.add_argument(
        "--dataset", action="append", metavar="TARGET,REFERENCE",
        help="additional dataset pair (repeatable)",
    )
    p.add_argument("--k-values", help="comma-separated k grid (default 16,32,64,128,256)")
    p.add_argument("--s-values", help="comma-separated s grid (default 4,8,16,32,64)")
    p.add_argument("--trials", type=int, default=1, help="trials per cell (default 1)")
    p.add_argument("--index-stride", type=int, help="reference indexing stride (default 1)")
    p.add_argument("--threads", type=int, help="ignored; the sweep runs its cells in order")
    p.add_argument("--no-prefilter", action="store_true", help="disable the probe prefilter")
    p.add_argument("--csv", metavar="PATH", help="write CSV here ('-' for stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "gen-synthetic", parents=[common], help="generate synthetic test sequences"
    )
    p.add_argument("--out", required=True, help="output FASTA path ('-' for stdout)")
    p.add_argument("--length", type=int, help="random sequence length")
    p.add_argument("--from", dest="source", help="derive from this sequence file")
    p.add_argument("--snp", type=float, default=0.0, help="substitution rate")
    p.add_argument("--insertion", type=float, default=0.0, help="insertion rate")
    p.add_argument("--deletion", type=float, default=0.0, help="deletion rate")
    p.add_argument("--reads", type=int, help="emit this many reads sampled from --from")
    p.add_argument("--read-len", type=int, default=1000, help="read length (default 1000)")
    p.add_argument("--rc-fraction", type=float, default=0.0,
                   help="fraction reverse-complemented (reads/splice modes)")
    p.add_argument("--splice-segments", type=int,
                   help="emit one spliced rearrangement of this many segments")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        handler: Callable[[argparse.Namespace, dict[str, str]], int] = args.func
        return handler(args, config)
    except UsageError as exc:
        _diag(f"error: {exc}")
        return 2
    except ChecksumMismatch as exc:
        _diag(f"error: {exc}")
        return 3
    except (CorruptStream, CorruptContainer) as exc:
        _diag(f"error: {exc}")
        return 4
    except (FastaParseError, RefpackError, ValueError) as exc:
        _diag(f"error: {exc}")
        return 2
    except BrokenPipeError:  # pragma: no cover - downstream closed the pipe
        return 0
    except OSError as exc:
        _diag(f"error: {exc}")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
