"""refpack: reference-based genomic compression with k-mer match seeding.

Targets are encoded as grouped tokens — reference matches (either strand),
header-only continuations, and 2-bit verbatim literals — against a
cuckoo-hashed k-mer index of a reference sequence. Containers support
chunk-level random access, and an SHD pre-alignment filter plus a (k, s)
parameter-sweep benchmark round out the toolkit.
"""

from .bench import BenchReport, SweepDataset, SweepRow, SweepSpec, run_sweep
from .compress import (
    CompressParams,
    CompressResult,
    CompressedStream,
    TokenKind,
    compress,
    compress_records,
    compression_ratio,
    encode_groups,
    make_stream,
)
from .container import (
    ChunkIndex,
    Container,
    ContainerRecord,
    decompress_record,
    decompress_records,
    extract_range,
    read_container,
    write_container,
)
from .decompress import decompress
from .errors import (
    ChecksumMismatch,
    CorruptContainer,
    CorruptStream,
    FastaParseError,
    RefpackError,
)
from .index import Orientation, ReferenceIndex, build_index
from .sequence import (
    FastaRecord,
    Kmer,
    PackedSequence,
    pack_bases,
    parse_fasta,
    read_fasta,
    reverse_complement_sequence,
    sequence_checksum,
    write_fasta,
)
from .shd import ShdConfig, ShdVerdict, edit_distance, filter_stream, shd
from .synth import (
    MutationProfile,
    mutate,
    random_reads,
    random_sequence,
    spliced_rearrangement,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ChecksumMismatch",
    "ChunkIndex",
    "CompressParams",
    "CompressResult",
    "CompressedStream",
    "Container",
    "ContainerRecord",
    "CorruptContainer",
    "CorruptStream",
    "FastaParseError",
    "FastaRecord",
    "Kmer",
    "MutationProfile",
    "Orientation",
    "PackedSequence",
    "RefpackError",
    "ReferenceIndex",
    "ShdConfig",
    "ShdVerdict",
    "SweepDataset",
    "SweepRow",
    "SweepSpec",
    "TokenKind",
    "build_index",
    "compress",
    "compress_records",
    "compression_ratio",
    "decompress",
    "decompress_record",
    "decompress_records",
    "edit_distance",
    "encode_groups",
    "extract_range",
    "filter_stream",
    "make_stream",
    "mutate",
    "pack_bases",
    "parse_fasta",
    "random_reads",
    "random_sequence",
    "read_container",
    "read_fasta",
    "reverse_complement_sequence",
    "run_sweep",
    "sequence_checksum",
    "shd",
    "spliced_rearrangement",
    "write_container",
    "write_fasta",
    "__version__",
]
