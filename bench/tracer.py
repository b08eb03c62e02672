"""Outside-in layer tracing for the benchmark.

The tracer replaces the module attributes that semindex's own call sites
look up (``semindex.index.tokenize``, ``semindex.cli.load_index``,
``Index.retrieve`` ...) with wrappers that record spans in memory. A span
is (name, start_ns, end_ns, parent, phase). Self time is a span's
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children nest inside their parent and never overlap.

Work the tracer itself does (counting postings, sampling the GC heap)
runs inside ``trace.bookkeeping`` child spans, so it is charged to no
layer. Nothing in semindex is edited: the patches are undone on exit.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import semindex.cli
import semindex.engine
import semindex.index
import semindex.lexicon

_now = time.perf_counter_ns

LAYERS = ("textnorm", "lexicon", "semantics", "index", "engine", "evalkit", "cli")
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.phase_self_ns: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.query_ms: dict[str, list[float]] = defaultdict(list)
        self.gc_gen2 = 0
        self.gc_pause_ns = 0
        self.tracked_objects = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_no]
        self._gc_start = 0
        self.phase = ""

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, _now(), 0, len(self.spans)])
        self.spans.append(None)  # placeholder keeps span numbers in start order

    def end(self) -> int:
        end = _now()
        name, start, child_ns, span_no = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        self.spans[span_no] = (name, start, end, parent, self.phase)
        if self._stack:
            self._stack[-1][2] += duration
        self.phase_self_ns[self.phase][name] += duration - child_ns
        return duration

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end()
            if after is not None:
                tracer.begin(BOOKKEEPING)
                try:
                    after(tracer, duration, args, kwargs, result)
                finally:
                    tracer.end()
            return result

        return wrapper

    # -- activation ----------------------------------------------------------

    @contextmanager
    def active(self, phase: str):
        """Install every wrapper for the duration of ``phase``."""
        self.phase = phase
        undo = []
        for owner, attr, name, after in _PATCHES:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, original, after))
            undo.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self.phase = ""

    def _on_gc(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._gc_start = _now()
            return
        self.gc_pause_ns += _now() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def sample_heap(self) -> None:
        self.tracked_objects = max(self.tracked_objects, len(gc.get_objects()))

    # -- results -------------------------------------------------------------

    def merge(self, other: dict) -> None:
        """Fold in the exported state of a tracer that ran in a child process."""
        for key, value in other["counts"].items():
            self.counts[key] += value
        for phase, by_name in other["phase_self_ns"].items():
            for name, ns in by_name.items():
                self.phase_self_ns[phase][name] += ns
        for key, values in other["query_ms"].items():
            self.query_ms[key].extend(values)
        self.gc_gen2 += other["gc_gen2"]
        self.gc_pause_ns += other["gc_pause_ns"]
        self.tracked_objects = max(self.tracked_objects, other["tracked_objects"])
        self.missing.extend(m for m in other["missing"] if m not in self.missing)
        offset = len(self.spans)
        for name, start, end, parent, phase in other["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, phase))

    def export(self) -> dict:
        return {
            "counts": dict(self.counts),
            "phase_self_ns": {p: dict(v) for p, v in self.phase_self_ns.items()},
            "query_ms": dict(self.query_ms),
            "gc_gen2": self.gc_gen2,
            "gc_pause_ns": self.gc_pause_ns,
            "tracked_objects": self.tracked_objects,
            "missing": list(self.missing),
            "spans": [s for s in self.spans if s is not None],
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, phase = span
                    fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "phase": phase}) + "\n")

    def layer_shares(self, phase: str, total_ns: int) -> dict[str, float]:
        """Each layer's self time in ``phase`` as a share of ``total_ns``."""
        by_layer = dict.fromkeys(LAYERS, 0)
        for name, ns in self.phase_self_ns.get(phase, {}).items():
            layer = name.split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer] += ns
        shares = {layer: ns / total_ns for layer, ns in by_layer.items()}
        shares["unattributed"] = 1.0 - sum(shares.values())
        return shares

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, with its unit."""
        c = self.counts

        def sec(name: str) -> float:
            return sum(by_name.get(name, 0) for by_name in self.phase_self_ns.values()) / 1e9

        found = c["index.retrieve.found"]
        out: dict[str, tuple[float, str]] = {
            "textnorm.tokenize.calls": (c["textnorm.tokenize.calls"], "count"),
            "textnorm.tokenize.tokens": (c["textnorm.tokenize.tokens"], "count"),
            "textnorm.tokenize.self_s": (sec("textnorm.tokenize"), "s"),
            "engine.query_terms.self_s": (sec("engine.query_terms"), "s"),
            "semantics.semantize.calls": (c["semantics.semantize.calls"], "count"),
            "semantics.semantize.tokens_in": (c["semantics.semantize.tokens_in"], "count"),
            "semantics.semantize.tokens_out": (c["semantics.semantize.tokens_out"], "count"),
            "semantics.semantize.self_s": (sec("semantics.semantize"), "s"),
            "semantics.expand.calls": (c["semantics.expand.calls"], "count"),
            "semantics.expand.terms_in": (c["semantics.expand.terms_in"], "count"),
            "semantics.expand.terms_added": (c["semantics.expand.terms_added"], "count"),
            "semantics.expand.self_s": (sec("semantics.expand"), "s"),
            "lexicon.load_lexicon.self_s": (sec("lexicon.load_lexicon"), "s"),
            "index.read_corpus.self_s": (sec("index.read_corpus"), "s"),
            "engine.read_queries.self_s": (sec("engine.read_queries"), "s"),
            "evalkit.read_qrels.self_s": (sec("evalkit.read_qrels"), "s"),
            "index.build_index.docs": (c["index.build_index.docs"], "count"),
            "index.build_index.postings": (c["index.build_index.postings"], "count"),
            "index.build_index.self_s": (sec("index.build_index"), "s"),
            "index.save.calls": (c["index.save.calls"], "count"),
            "index.save.bytes": (c["index.save.bytes"], "bytes"),
            "index.save.self_s": (sec("index.save"), "s"),
            "index.load_index.calls": (c["index.load_index.calls"], "count"),
            "index.load_index.bytes": (c["index.load_index.bytes"], "bytes"),
            "index.load_index.self_s": (sec("index.load_index"), "s"),
            "index.retrieve.calls": (c["index.retrieve.calls"], "count"),
            "index.retrieve.postings_touched": (c["index.retrieve.postings_touched"], "count"),
            "index.retrieve.found": (found, "count"),
            "index.retrieve.returned": (c["index.retrieve.returned"], "count"),
            "index.retrieve.self_s": (sec("index.retrieve"), "s"),
            "index.retrieve.returned_per_found": (
                c["index.retrieve.returned"] / found if found else 0.0,
                "ratio",
            ),
        }
        for st in ("R0", "R1", "R2", "R3"):
            samples = self.query_ms.get(st)
            out[f"engine.run_query.{st}.p50_ms"] = (
                statistics.median(samples) if samples else 0.0,
                "ms",
            )
        out.update(
            {
                "engine.run_query.self_s": (sec("engine.run_query"), "s"),
                "engine.batch_run.self_s": (sec("engine.batch_run"), "s"),
                "engine.write_run.bytes": (c["engine.write_run.bytes"], "bytes"),
                "engine.write_run.self_s": (sec("engine.write_run"), "s"),
                "engine.read_run.self_s": (sec("engine.read_run"), "s"),
                "evalkit.evaluate_run.self_s": (sec("evalkit.evaluate_run"), "s"),
                "evalkit.compare.self_s": (sec("evalkit.compare"), "s"),
                "evalkit.render.bytes": (c["evalkit.render.bytes"], "bytes"),
                "evalkit.render.self_s": (sec("evalkit.render"), "s"),
                "cli.self_s": (sec("cli.main"), "s"),
                "runtime.gc.gen2_collections": (self.gc_gen2, "count"),
                "runtime.gc.pause_s": (self.gc_pause_ns / 1e9, "s"),
                "runtime.gc.tracked_objects": (self.tracked_objects, "count"),
            }
        )
        return out


# -- what each wrapper counts -------------------------------------------------


def _tokenize(t: Tracer, _ns, args, kwargs, result) -> None:
    t.add("textnorm.tokenize.calls")
    t.add("textnorm.tokenize.tokens", len(result))


def _semantize(t: Tracer, _ns, args, kwargs, result) -> None:
    t.add("semantics.semantize.calls")
    t.add("semantics.semantize.tokens_in", len(args[0]))
    t.add("semantics.semantize.tokens_out", len(result))


def _expand(t: Tracer, _ns, args, kwargs, result) -> None:
    t.add("semantics.expand.calls")
    t.add("semantics.expand.terms_in", len(args[0]))
    t.add("semantics.expand.terms_added", len(result) - len(args[0]))


def _build(t: Tracer, _ns, args, kwargs, index) -> None:
    t.add("index.build_index.docs", index.doc_count)
    t.add("index.build_index.postings", sum(index.document_frequency(term) for term in index.terms()))
    t.sample_heap()


def _save(t: Tracer, _ns, args, kwargs, result) -> None:
    t.add("index.save.calls")
    t.add("index.save.bytes", os.path.getsize(args[1]))


def _load(t: Tracer, _ns, args, kwargs, result) -> None:
    t.add("index.load_index.calls")
    t.add("index.load_index.bytes", os.path.getsize(args[0]))
    t.sample_heap()


def _retrieve(t: Tracer, _ns, args, kwargs, ranked) -> None:
    index, terms = args[0], args[1]
    t.add("index.retrieve.calls")
    t.add("index.retrieve.postings_touched", sum(index.document_frequency(term) for term in terms))
    t.add("index.retrieve.found", ranked.found_count)
    t.add("index.retrieve.returned", len(ranked.entries))


def _run_query(t: Tracer, ns, args, kwargs, result) -> None:
    search_type = args[2] if len(args) > 2 else kwargs["search_type"]
    t.query_ms[search_type.value].append(ns / 1e6)


def _write_run(t: Tracer, _ns, args, kwargs, result) -> None:
    paths = [p for p in (args[1:] + tuple(kwargs.values())) if p is not None]
    t.add("engine.write_run.bytes", sum(os.path.getsize(p) for p in paths))


def _render(t: Tracer, _ns, args, kwargs, text) -> None:
    t.add("evalkit.render.bytes", len(text.encode("utf-8")))


_cli, _engine, _index, _lexicon = semindex.cli, semindex.engine, semindex.index, semindex.lexicon

# (owner, attribute, span name, counter hook). An attribute is patched where
# a call site looks it up, so each entry names the importing module.
_PATCHES = [
    (_index, "tokenize", "textnorm.tokenize", _tokenize),
    (_index, "semantize", "semantics.semantize", _semantize),
    (_engine, "expand", "semantics.expand", _expand),
    (_engine.SearchSystem, "query_terms", "engine.query_terms", None),
    (_engine.SearchSystem, "run_query", "engine.run_query", _run_query),
    (_engine.SearchSystem, "batch_run", "engine.batch_run", None),
    (_lexicon, "load_lexicon", "lexicon.load_lexicon", None),
    (_cli, "load_lexicon", "lexicon.load_lexicon", None),
    (_index, "read_corpus", "index.read_corpus", None),
    (_cli, "read_corpus", "index.read_corpus", None),
    (_engine, "read_queries", "engine.read_queries", None),
    (_cli, "read_queries", "engine.read_queries", None),
    (_cli, "read_qrels", "evalkit.read_qrels", None),
    (_index, "build_index", "index.build_index", _build),
    (_cli, "build_index", "index.build_index", _build),
    (_index.Index, "save", "index.save", _save),
    (_index, "load_index", "index.load_index", _load),
    (_cli, "load_index", "index.load_index", _load),
    (_index.Index, "retrieve", "index.retrieve", _retrieve),
    (_cli, "write_run", "engine.write_run", _write_run),
    (_cli, "read_run", "engine.read_run", None),
    (_cli, "evaluate_run", "evalkit.evaluate_run", None),
    (_cli, "delta_report", "evalkit.compare", None),
    (_cli, "threeway_report", "evalkit.compare", None),
    (_cli, "render_records", "evalkit.render", _render),
    (_cli, "render_summaries", "evalkit.render", _render),
    (_cli, "render_deltas", "evalkit.render", _render),
    (_cli, "render_buckets", "evalkit.render", _render),
    (_cli, "render_threeway", "evalkit.render", _render),
    (_cli, "main", "cli.main", None),
]
