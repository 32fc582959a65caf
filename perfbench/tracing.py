"""Spans around refpack's public functions, for the traced run only.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``refpack`` module that imported it, and each traced method on its class, and
puts the originals back on exit. A span records its name, start, end, parent
span, operation id and thread. The operation is the benchmark's own root span
around one CLI command or one batch of extracts. A thread with no open span,
such as a sweep pool thread, takes the main thread's innermost open span as
its parent. Spans stay in per-thread buffers until ``spans()`` collects them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from refpack.compress import TokenKind
from refpack.index import QueryStats, ReferenceIndex

SWEEP_ROOT = "cli.sweep"


def _count_parsed(tracer, result, args, kwargs):
    tracer.count("parse_fasta.bases", sum(rec.seq.length for rec in result))


def _count_messages(tracer, result, args, kwargs):
    tracer.count("murmur3_batch.msgs", len(args[0]))


def _count_build(tracer, index, args, kwargs):
    tracer.count("index.skipped_keys", index.skipped_keys)
    tracer.count("index.occupied", index.occupied)
    tracer.count("index.capacity", index.capacity)


def _count_compress(tracer, result, args, kwargs):
    stats = kwargs["stats"]
    for field in ("probes", "prefilter_rejects", "verify_failures", "hits"):
        tracer.count(f"probe.{field}", getattr(stats, field))
    for kind, n in result.kind_counts().items():
        tracer.count(f"tokens.{TokenKind(kind).name}", n)


def _count_extract(tracer, result, args, kwargs):
    tracer.count("extract.decoded", kwargs["_stats"]["decoded_bases"])
    tracer.count("extract.requested", args[4])


def _count_filtered(tracer, result, args, kwargs):
    tracer.count("shd.accepted", result[1].accepted)


# (span name, module, function, observer, (keyword, factory) to inject)
FUNCTIONS = (
    ("sequence.parse_fasta", "refpack.sequence", "parse_fasta", _count_parsed, None),
    ("sequence.checksum", "refpack.sequence", "sequence_checksum", None, None),
    ("sequence.write_fasta", "refpack.sequence", "write_fasta", None, None),
    ("hashing.murmur3_batch", "refpack.hashing", "murmur3_low64_batch", _count_messages, None),
    ("index.build", "refpack.index", "build_index", _count_build, None),
    ("index.window_tables", "refpack.index", "window_probe_tables", None, None),
    ("compress.compress", "refpack.compress", "compress", _count_compress, ("stats", QueryStats)),
    ("compress.encode_groups", "refpack.compress", "encode_groups", None, None),
    ("container.write", "refpack.container", "write_container", None, None),
    ("container.chunk_index", "refpack.container", "build_chunk_index", None, None),
    ("container.read", "refpack.container", "read_container", None, None),
    ("container.extract", "refpack.container", "extract_range", _count_extract, ("_stats", dict)),
    ("decompress.decompress", "refpack.decompress", "decompress", None, None),
    ("decompress.decode_group", "refpack.decompress", "decode_group", None, None),
    ("shd.filter_stream", "refpack.shd", "filter_stream", _count_filtered, None),
    ("shd.shd", "refpack.shd", "shd", None, None),
    ("bench.run_sweep", "refpack.bench", "run_sweep", None, None),
)

# (span name, class, method)
METHODS = (
    ("index.save", ReferenceIndex, "save"),
    ("index.load", ReferenceIndex, "load"),
    ("index.probe", ReferenceIndex, "probe"),
)

CLI_COMMANDS = ("build-index", "compress", "decompress", "shd-filter", "sweep")

# Per-layer metrics in report order. Those in EXACT must repeat exactly for a
# given seed; the rest are timings.
PER_LAYER = (
    ("sequence.parse_fasta.s", "s"),
    ("sequence.parse_fasta.mbp_per_s", "Mbp/s"),
    ("sequence.checksum.calls", "count"),
    ("sequence.checksum.s", "s"),
    ("sequence.write_fasta.s", "s"),
    ("hashing.murmur3_batch.s", "s"),
    ("hashing.murmur3_batch.msgs", "count"),
    ("index.build.self_s", "s"),
    ("index.window_tables.s", "s"),
    ("index.save.s", "s"),
    ("index.load.s", "s"),
    ("index.bidx_bytes", "bytes"),
    ("index.load_factor", "ratio"),
    ("index.skipped_keys", "count"),
    ("index.probe.calls", "count"),
    ("index.probe.s", "s"),
    ("index.probe.hit_ratio", "ratio"),
    ("index.probe.prefilter_reject_ratio", "ratio"),
    ("compress.compress.self_s", "s"),
    ("compress.tokens", "count"),
    ("compress.tokens.verbatim", "count"),
    ("compress.tokens.forward", "count"),
    ("compress.tokens.reverse", "count"),
    ("compress.tokens.continuation", "count"),
    ("compress.encode_groups.calls", "count"),
    ("compress.encode_groups.s", "s"),
    ("container.write.self_s", "s"),
    ("container.chunk_index.s", "s"),
    ("container.read.s", "s"),
    ("container.bytes.groups", "bytes"),
    ("container.bytes.overhead", "bytes"),
    ("container.extract.s", "s"),
    ("container.extract.decoded_per_requested", "ratio"),
    ("decompress.decompress.self_s", "s"),
    ("decompress.decode_group.calls", "count"),
    ("decompress.decode_group.s", "s"),
    ("shd.filter_stream.s", "s"),
    ("shd.shd.calls", "count"),
    ("shd.shd.s", "s"),
    ("shd.accepted", "count"),
    ("bench.run_sweep.s", "s"),
    ("bench.sweep.index_s", "s"),
    ("bench.sweep.cells_s", "s"),
    *((f"cli.{command}.self_s", "s") for command in CLI_COMMANDS),
    ("trace.overhead_pct", "%"),
)
EXACT = frozenset(name for name, unit in PER_LAYER if unit in ("count", "bytes", "ratio"))


class _ThreadSpans:
    """Open-span stack and finished spans of one thread."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[int] = []
        self.columns = {
            "id": array("q"), "parent": array("q"), "name": array("q"),
            "start": array("d"), "end": array("d"), "op": array("q"),
        }

    def add(self, sid, parent, name, start, end, op):
        c = self.columns
        c["id"].append(sid)
        c["parent"].append(parent)
        c["name"].append(name)
        c["start"].append(start)
        c["end"].append(end)
        c["op"].append(op)


class Tracer:
    """Collects spans and counts; create one per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._main = self._spans()
        self._op = 0
        self._op_name = ""
        self._restore: list[tuple[object, str, object]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, value: int) -> None:
        """Add to a counter of the current operation."""
        with self._lock:
            self.counts[(self._op_name, key)] += value

    @contextlib.contextmanager
    def root(self, name: str):
        """The span of one operation; opened by the benchmark itself."""
        name_id = self._name_id(name)
        sid = self._next_id()
        self._op, self._op_name = sid, name
        self._main.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._main.stack.pop()
            self._main.add(sid, 0, name_id, start, end, sid)
            self._op, self._op_name = 0, ""

    def wrap(self, name, fn, observe=None, inject=None):
        name_id = self._name_id(name)
        tracer = self
        main_stack = self._main.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inject is not None and kwargs.get(inject[0]) is None:
                kwargs[inject[0]] = inject[1]()
            spans = tracer._spans()
            stack = spans.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = tracer._next_id()
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.add(sid, parent, name_id, start, end, tracer._op)
            if observe is not None:
                observe(tracer, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        try:
            for name, module, attr, observe, inject in FUNCTIONS:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self.wrap(name, original, observe, inject)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "refpack" or mod_name.startswith("refpack.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            for name, cls, attr in METHODS:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw))
            yield self
        finally:
            while self._restore:
                owner, key, original = self._restore.pop()
                setattr(owner, key, original)

    def _patch(self, owner, key, replacement):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def spans(self) -> dict[str, np.ndarray]:
        """Every finished span as columns, plus the thread that ran it."""
        with self._lock:
            threads = list(self._threads)
        out = {
            key: np.concatenate([np.frombuffer(t.columns[key], dtype=t.columns[key].typecode)
                                 for t in threads])
            for key in threads[0].columns
        }
        out["thread"] = np.concatenate(
            [np.full(len(t.columns["id"]), t.thread, dtype=np.uint64) for t in threads]
        )
        return out


def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children from several threads may overlap; the covered part is the union
    of their intervals, clipped to the parent.
    """
    ids, parents = list(ids), list(parents)
    starts, ends = list(starts), list(ends)
    out = [e - s for s, e in zip(starts, ends)]
    where = {sid: i for i, sid in enumerate(ids)}
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(parents):
        if parent in where:
            children.setdefault(parent, []).append(i)
    for parent, kids in children.items():
        p = where[parent]
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for i in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[i], lo), min(ends[i], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return np.array(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, bidx_bytes: int, group_bytes: int,
                  container_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, except ``trace.overhead_pct``.

    Layer metrics cover every operation but the sweep, so that they add up to
    the end-to-end metrics they explain; the ``bench.*`` metrics cover the
    sweep.
    """
    sp = tracer.spans()
    duration = sp["end"] - sp["start"]
    own = self_times(sp["id"], sp["parent"], sp["start"], sp["end"])
    names = np.array(tracer.names, dtype=object)[sp["name"]]
    sweep_ops = sp["id"][(sp["parent"] == 0) & (names == SWEEP_ROOT)]
    in_sweep = np.isin(sp["op"], sweep_ops)

    def select(name, sweep=False):
        return (names == name) & (in_sweep == sweep)

    def total(name, sweep=False):
        return float(duration[select(name, sweep)].sum())

    def own_total(name, sweep=False):
        return float(own[select(name, sweep)].sum())

    def calls(name):
        return int(select(name).sum())

    def count(key):
        return sum(v for (op, k), v in tracer.counts.items() if k == key and op != SWEEP_ROOT)

    tokens = {kind: count(f"tokens.{kind.name}") for kind in TokenKind}
    m = {
        "sequence.parse_fasta.s": total("sequence.parse_fasta"),
        "sequence.checksum.calls": calls("sequence.checksum"),
        "sequence.checksum.s": total("sequence.checksum"),
        "sequence.write_fasta.s": total("sequence.write_fasta"),
        "hashing.murmur3_batch.s": total("hashing.murmur3_batch"),
        "hashing.murmur3_batch.msgs": count("murmur3_batch.msgs"),
        "index.build.self_s": own_total("index.build"),
        "index.window_tables.s": total("index.window_tables"),
        "index.save.s": total("index.save"),
        "index.load.s": total("index.load"),
        "index.bidx_bytes": bidx_bytes,
        "index.load_factor": _ratio(count("index.occupied"), count("index.capacity")),
        "index.skipped_keys": count("index.skipped_keys"),
        "index.probe.calls": calls("index.probe"),
        "index.probe.s": total("index.probe"),
        "index.probe.hit_ratio": _ratio(count("probe.hits"), calls("index.probe")),
        "index.probe.prefilter_reject_ratio": _ratio(
            count("probe.prefilter_rejects"), count("probe.probes")
        ),
        "compress.compress.self_s": own_total("compress.compress"),
        "compress.tokens": sum(tokens.values()),
        "compress.tokens.verbatim": tokens[TokenKind.VERBATIM],
        "compress.tokens.forward": tokens[TokenKind.FORWARD_MATCH],
        "compress.tokens.reverse": tokens[TokenKind.REVERSE_MATCH],
        "compress.tokens.continuation": tokens[TokenKind.CONTINUATION],
        "compress.encode_groups.calls": calls("compress.encode_groups"),
        "compress.encode_groups.s": total("compress.encode_groups"),
        "container.write.self_s": own_total("container.write"),
        "container.chunk_index.s": total("container.chunk_index"),
        "container.read.s": total("container.read"),
        "container.bytes.groups": group_bytes,
        "container.bytes.overhead": container_bytes - group_bytes,
        "container.extract.s": total("container.extract"),
        "container.extract.decoded_per_requested": _ratio(
            count("extract.decoded"), count("extract.requested")
        ),
        "decompress.decompress.self_s": own_total("decompress.decompress"),
        "decompress.decode_group.calls": calls("decompress.decode_group"),
        "decompress.decode_group.s": total("decompress.decode_group"),
        "shd.filter_stream.s": total("shd.filter_stream"),
        "shd.shd.calls": calls("shd.shd"),
        "shd.shd.s": total("shd.shd"),
        "shd.accepted": count("shd.accepted"),
        "bench.run_sweep.s": total("bench.run_sweep", sweep=True),
        "bench.sweep.index_s": total("index.build", sweep=True),
    }
    m["sequence.parse_fasta.mbp_per_s"] = _ratio(
        count("parse_fasta.bases") / 1e6, m["sequence.parse_fasta.s"]
    )
    m["bench.sweep.cells_s"] = m["bench.run_sweep.s"] - m["bench.sweep.index_s"]
    for command in CLI_COMMANDS:
        root = f"cli.{command}"
        m[f"{root}.self_s"] = own_total(root, sweep=root == SWEEP_ROOT)
    return m
