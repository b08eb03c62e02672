"""The benchmark's three workloads and their output checks.

Every workload runs single-process and closed-loop: one caller issues an
operation and waits for its reply before issuing the next. The only
parallelism is ``ingest``'s process pool, sized to the CPUs this process
may run on. Each workload:

1. sets up ``SETUP_REPS`` times and reports the median set-up time;
2. repeats its measured operation until ``seconds`` have passed (and at
   least ``MIN_OPS`` times) and reports the median operation time;
3. runs query sweeps (every query x R0-R3 x depth 10/1000) against the
   indexes it has, for the query latency metrics and the ranking checks
   (for ``search`` these sweeps are the measured operation);
4. in a traced run, repeats the measured operation once more with the
   tracer installed, for the per-layer metrics.

Every end-to-end time is normalized by the machine's speed around the
operation it belongs to (see ``speed.py``); per-layer times are raw.

An operation fails if it raises or if its output fails a check. The checks
need no seed-specific data; the optional ``golden`` hashes pin the exact
bytes for one seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import semindex
import semindex.cli
import semindex.engine
import semindex.index
import semindex.lexicon
from semindex import IndexMode, Query, SearchSystem, SearchType

import gen
from speed import Speedometer
from tracer import Tracer

SETUP_REPS = 3
MIN_OPS = 3
DEPTHS = (10, 1000)
MIN_SWEEPS = 5  # a call's latency is its median over at least this many sweeps
# pipeline and ingest sweep their own indexes for this share of ``seconds``
# after the measured phase. The machine's speed drifts over seconds, so the
# sweeps get a time window of their own, not a fixed number of calls.
PROBE_SHARE = 0.75

SIZES = {
    "pipeline": gen.Size(
        docs=600, doc_tokens=(50, 300), vocab=20000, synsets=3000, queries=100,
        query_tokens=(1, 6), multiword_share=0.3, polysemous_share=0.3,
        phrase_rate=0.04, diacritic_rate=0.25,
    ),
    "search": gen.Size(
        docs=1200, doc_tokens=(50, 300), vocab=20000, synsets=3000, queries=300,
        query_tokens=(1, 6), multiword_share=0.3, polysemous_share=0.3,
        phrase_rate=0.04, diacritic_rate=0.25,
    ),
    "ingest": gen.Size(
        docs=1000, doc_tokens=(100, 600), vocab=20000, synsets=8000, queries=100,
        query_tokens=(1, 6), multiword_share=0.5, polysemous_share=0.3,
        phrase_rate=0.06, diacritic_rate=0.5,
    ),
}

# What each workload is chosen to stress: (description, span names, least
# share of the traced measured operation's time their self time should take).
# A miss is reported, not failed: an optimization may rightly shrink a layer.
STRESS = {
    "pipeline": ("index load", ["index.load_index"], 0.05),
    "search": ("retrieve + engine", ["index.retrieve", "engine.run_query", "engine.query_terms"], 0.5),
    "ingest": ("build + save", ["index.build_index", "index.save"], 0.5),
}

# Every file `semindex pipeline` writes into its report directory.
_REPORT_FILES = (
    [f"semindex.{st}.{ext}" for st in ("R0", "R1", "R2", "R3") for ext in ("run", "found.json", "eval.tsv", "eval.json")]
    + ["summary.tsv", "summary.json", "threeway.tsv", "threeway.json"]
    + [
        f"semindex.R0_vs_semindex.{st}.{kind}.{ext}"
        for st in ("R1", "R2", "R3")
        for kind in ("deltas", "buckets")
        for ext in ("tsv", "json")
    ]
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    size: gen.Size
    golden: dict | None = None  # expected hashes for this seed and size
    workers: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one operation and whether its output passed its checks."""
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _median_setup(ctx: Context, speed: Speedometer, setup):
    """Run ``setup`` SETUP_REPS times (the last one traced in a traced run).

    Returns the last set-up's state and the median normalized set-up time.
    """
    times, state = [], None
    for rep in range(SETUP_REPS):
        state = None  # free the previous repetition's state first
        state, raw, factor = speed.around(lambda: setup(ctx.trace and rep == SETUP_REPS - 1))
        times.append(raw * factor)
    return state, statistics.median(times)


def _repeat(ctx: Context, op) -> None:
    """Call ``op`` until ``ctx.seconds`` have passed, and at least MIN_OPS times."""
    deadline = time.perf_counter() + ctx.seconds
    calls = 0
    while calls < MIN_OPS or time.perf_counter() < deadline:
        op()
        calls += 1


def _peak_rss_mb(include_children: bool = False) -> float:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def _sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.iterdir()):
        if item.is_file():
            h.update(item.name.encode("utf-8") + b"\0")
            h.update(item.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def _percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# -- query sweeps ---------------------------------------------------------------


def _check_ranking(ranked, depth: int) -> str:
    """Problems visible in one ranking alone ('' if none)."""
    entries = ranked.entries
    if len(entries) != min(depth, ranked.found_count):
        return f"{len(entries)} entries for found_count {ranked.found_count} at depth {depth}"
    for rank, entry in enumerate(entries, start=1):
        if entry.rank != rank:
            return f"rank {entry.rank} at position {rank}"
        if rank > 1:
            prev = entries[rank - 2]
            if (-prev.score, prev.doc_id) >= (-entry.score, entry.doc_id):
                return f"entries {rank - 1} and {rank} out of order"
    return ""


class QuerySweeper:
    """Issues every (query x R0-R3 x depth) call in a seeded interleaved order.

    Only the ``run_query`` call is timed, and ``run`` normalizes each
    sweep's latencies by the machine's speed around it. A call's latency is
    its median over the sweeps, so a call that a stall of the machine hit in
    one sweep does not count as slow; the latency percentiles are taken over
    the calls. The first sweep's rankings are
    checked on their own and against each other, then kept as fingerprints
    and digests, not as objects: a few hundred thousand live result objects
    would lengthen every garbage collection the program does. Every later
    sweep must reproduce the first.
    """

    def __init__(self, queries: list[Query], seed: int, outcome: Outcome, speed: Speedometer):
        self.outcome = outcome
        self.speed = speed
        self.queries = queries
        self.calls = [(q, st, d) for q in queries for st in SearchType for d in DEPTHS]
        self.rng = random.Random(seed)
        self.latency_ms: dict[tuple[str, str, int], list[float]] = {}  # normalized, per call and sweep
        self.sweep_s: list[float] = []  # normalized time spent inside run_query, per sweep
        self.raw_sweep_s: list[float] = []  # the same, raw
        self.raw_sweep_wall_s: list[float] = []  # raw, with the checks between calls
        # From the first sweep, by (qid, search type, depth):
        self.found: dict[tuple[str, str, int], int] = {}
        self.fingerprint: dict[tuple[str, str, int], int] = {}
        self.digest: dict[tuple[str, str, int], bytes] = {}  # SHA-256 of the ranking as run-file lines
        self._head: dict[tuple[str, str, int], int] = {}  # fingerprint of a deep ranking's first entries
        self._problem: dict[tuple[str, str, int], str] = {}
        self._ratios: dict[int, list[float]] = {d: [] for d in DEPTHS}

    def sweep(self, system: SearchSystem) -> tuple[int, dict[tuple[str, str, int], int]]:
        """One sweep; returns the ns spent in run_query and each call's ns."""
        order = list(self.calls)
        self.rng.shuffle(order)
        first = not self.fingerprint
        run_query, clock = system.run_query, time.perf_counter_ns
        busy, latency_ns = 0, {}
        for query, st, depth in order:
            key = (query.qid, st.value, depth)
            t0 = clock()
            try:
                ranked = run_query(query, st, depth)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                self.outcome.op(False, f"{key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - t0
            busy += elapsed
            latency_ns[key] = elapsed
            if first:
                self._record(key, ranked)
            else:
                same = (ranked.found_count, hash(tuple(ranked.entries))) == (self.found[key], self.fingerprint[key])
                self.outcome.op(same, f"{key}: ranking differs from the first sweep")
        if first:
            self._check_first()
        return busy, latency_ns

    def _record(self, key: tuple[str, str, int], ranked) -> None:
        qid, _, depth = key
        entries = ranked.entries
        self.found[key] = ranked.found_count
        self.fingerprint[key] = hash(tuple(entries))
        if depth == max(DEPTHS):
            self._head[key] = hash(tuple(entries[: min(DEPTHS)]))
        lines = "".join(f"{e.doc_id} {e.rank} {e.score:.6f}\n" for e in entries)
        self.digest[key] = hashlib.sha256(f"{ranked.found_count}\n{lines}".encode("utf-8")).digest()
        if ranked.found_count:
            self._ratios[depth].append(len(entries) / ranked.found_count)
        problem = _check_ranking(ranked, depth)
        if not problem and ranked.qid != qid:
            problem = f"qid {ranked.qid!r} returned"
        self._problem[key] = problem

    def _check_first(self) -> None:
        shallow, deep = min(DEPTHS), max(DEPTHS)
        for key, problem in self._problem.items():
            qid, st, depth = key
            if not problem and depth == shallow:
                deep_key = (qid, st, deep)
                if deep_key in self.found and (
                    self.found[deep_key] != self.found[key] or self._head[deep_key] != self.fingerprint[key]
                ):
                    problem = f"depth {depth} ranking is not a prefix of depth {deep}"
            if not problem and st == "R2":
                base = self.found.get((qid, "R0", depth), 0)
                if self.found[key] < base:
                    problem = f"R2 found {self.found[key]} < R0 found {base}"
            self.outcome.op(not problem, f"{key}: {problem}")
        self._problem.clear()

    def run(self, system: SearchSystem, seconds: float) -> None:
        """Sweep for ``seconds``, and at least MIN_SWEEPS times."""
        deadline = time.perf_counter() + seconds
        while (
            len(self.sweep_s) < MIN_SWEEPS
            or time.perf_counter() < deadline
        ):
            (busy_ns, latency_ns), raw_s, factor = self.speed.around(lambda: self.sweep(system))
            self.sweep_s.append(busy_ns / 1e9 * factor)
            self.raw_sweep_s.append(busy_ns / 1e9)
            self.raw_sweep_wall_s.append(raw_s)
            for key, ns in latency_ns.items():
                self.latency_ms.setdefault(key, []).append(ns / 1e6 * factor)

    def rankings_sha256(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.digest):
            h.update(f"{key[0]} {key[1]} {key[2]}\n".encode("utf-8") + self.digest[key])
        return h.hexdigest()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for depth in DEPTHS:
            samples = [statistics.median(v) for key, v in self.latency_ms.items() if key[2] == depth]
            out[f"query_d{depth}_p50_ms"] = (statistics.median(samples), "ms")
            out[f"query_d{depth}_p99_ms"] = (_percentile(samples, 99), "ms")
        return out

    def returned_per_found(self, depth: int) -> float:
        ratios = self._ratios[depth]
        return statistics.fmean(ratios) if ratios else 0.0


def _open_system(inputs: gen.Inputs, index_dir: Path):
    """Load both indexes, the lexicon, stoplist and queries as the CLI does."""
    system = SearchSystem(
        plain_index=semindex.index.load_index(index_dir / "plain.idx"),
        semantic_index=semindex.index.load_index(index_dir / "semantic.idx"),
        lexicon=semindex.lexicon.load_lexicon(inputs.lexicon),
        stoplist=semindex.load_stopwords(inputs.stopwords),
    )
    return system, semindex.engine.read_queries(inputs.queries)


def _reload_problem(system: SearchSystem, built: dict) -> str:
    """Every saved index reloads with the doc_count and vocabulary_size it was built with."""
    for mode, index in (("plain", system.plain_index), ("semantic", system.semantic_index)):
        got = (index.doc_count, index.vocabulary_size)
        if got != tuple(built[mode]):
            return f"{mode} index reloaded as {got}, built as {tuple(built[mode])}"
    return ""


def _index_bytes_per_corpus_byte(inputs: gen.Inputs, index_dir: Path) -> float:
    index_bytes = sum((index_dir / f"{mode}.idx").stat().st_size for mode in ("plain", "semantic"))
    return index_bytes / inputs.corpus.stat().st_size


def _input_properties(
    inputs: gen.Inputs, system: SearchSystem, sweeper: QuerySweeper
) -> dict[str, tuple[float, str]]:
    """Measured properties of the generated inputs that later changes cite."""
    total = removed = 0
    for _, text in semindex.read_corpus(inputs.corpus).documents:
        tokens = semindex.remove_stopwords(semindex.tokenize(text), system.stoplist)
        # The tokens of a rewritten concept do not survive semantize (a
        # concept whose surface is already canonical is not rewritten).
        removed += sum((Counter(tokens) - Counter(semindex.semantize(tokens, system.lexicon))).values())
        total += len(tokens)
    expanded, dfs = 0, []
    for query in sweeper.queries:
        terms = semindex.remove_stopwords(semindex.tokenize(query.text), system.stoplist)
        expanded += semindex.expand(terms, system.lexicon) != terms
        dfs.extend(system.plain_index.document_frequency(t) for t in terms)
    return {
        "input.doc_tokens_rewritten_share": (removed / total if total else 0.0, "ratio"),
        "input.queries_expanded_share": (expanded / len(sweeper.queries), "ratio"),
        "input.query_term_df_mean": (statistics.fmean(dfs) if dfs else 0.0, "count"),
        "input.query_term_df_max": (max(dfs, default=0), "count"),
        "input.returned_per_found_d10": (sweeper.returned_per_found(10), "ratio"),
        "input.returned_per_found_d1000": (sweeper.returned_per_found(1000), "ratio"),
    }


def _traced_op(ctx: Context, outcome: Outcome, tracer: Tracer, op, untraced_s: float) -> None:
    """Run ``op`` once with the tracer installed and record the per-layer metrics."""
    start = time.perf_counter_ns()
    with tracer.active("measured"):
        op()
    traced_ns = time.perf_counter_ns() - start
    outcome.layers.update(tracer.per_layer())
    for layer, share in tracer.layer_shares("measured", traced_ns).items():
        outcome.layers[f"share.{layer}"] = (share, "ratio")
    outcome.layers["trace.traced_wall_s"] = (traced_ns / 1e9, "s")
    outcome.layers["trace.overhead_s"] = (traced_ns / 1e9 - untraced_s, "s")
    measured = tracer.phase_self_ns["measured"]
    what, names, floor = STRESS[ctx.workload]
    share = sum(measured.get(name, 0) for name in names) / traced_ns
    verdict = "ok" if share >= floor else "NOT MET"
    outcome.notes.append(f"stress check: {what} = {share:.1%} of traced time (want >= {floor:.0%}): {verdict}")
    if tracer.missing:
        outcome.notes.append("tracer: not found, so not traced: " + ", ".join(sorted(set(tracer.missing))))
    tracer.write_spans(ctx.work.parent / f"spans-{ctx.workload}.jsonl")


def _end_to_end(outcome: Outcome, wall: list[float], raw_wall: list[float], setup_s: float,
                rss_mb: float, index_ratio: float, sweeper: QuerySweeper) -> None:
    outcome.metrics.update(
        {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(wall), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
            "index_bytes_per_corpus_byte": (index_ratio, "ratio"),
        }
    )
    outcome.metrics.update(sweeper.metrics())
    outcome.notes.append(
        f"measured operations: {len(wall)} (normalized median {statistics.median(wall):.3f} s, "
        f"min {min(wall):.3f} s, max {max(wall):.3f} s; raw median {statistics.median(raw_wall):.3f} s); "
        f"query sweeps: {len(sweeper.sweep_s)} of {len(sweeper.calls)} calls"
    )
    factors = sweeper.speed.factors
    outcome.notes.append(
        f"speed factors (reference / calibration kernel time): median {statistics.median(factors):.3f}, "
        f"min {min(factors):.3f}, max {max(factors):.3f}"
    )


def _golden_check(ctx: Context, outcome: Outcome, key: str, actual: str) -> None:
    """Compare a hash with the one recorded for this seed, if there is one."""
    expected = (ctx.golden or {}).get(key)
    if expected is None:
        outcome.notes.append(f"{key} {actual} (none recorded for seed {ctx.seed})")
    elif expected != actual:
        outcome.fail(f"{key} {actual} differs from the recorded {expected}")
    else:
        outcome.notes.append(f"{key} {actual} matches the recorded hash")


def _generate(ctx: Context) -> gen.Inputs:
    shutil.rmtree(ctx.work / "inputs", ignore_errors=True)
    return gen.generate(ctx.seed, ctx.size, ctx.work / "inputs")


# -- pipeline -------------------------------------------------------------------


def run_pipeline(ctx: Context) -> Outcome:
    """`semindex pipeline` end to end on generated files (the paper's experiment)."""
    outcome = Outcome()
    speed = Speedometer()
    inputs, setup_s = _median_setup(ctx, speed, lambda _traced: _generate(ctx))
    out = ctx.work / "out"
    argv = [
        "pipeline",
        "--corpus", str(inputs.corpus),
        "--lexicon", str(inputs.lexicon),
        "--queries", str(inputs.queries),
        "--qrels", str(inputs.qrels),
        "--stopwords", str(inputs.stopwords),
        "--index-dir", str(out / "indexes"),
        "--report-dir", str(out / "reports"),
        "--depth", "1000",
        "--workers", "1",
    ]
    report_hashes: list[str] = []
    wall: list[float] = []
    raw_wall: list[float] = []

    def invoke() -> int:
        with redirect_stdout(io.StringIO()):
            return semindex.cli.main(argv)

    def op() -> None:
        shutil.rmtree(out, ignore_errors=True)
        try:
            code, raw, factor = speed.around(invoke)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            outcome.op(False, f"pipeline raised {type(exc).__name__}: {exc}")
            return
        wall.append(raw * factor)
        raw_wall.append(raw)
        outcome.op(*_check_pipeline_output(code, out / "reports", report_hashes))

    _repeat(ctx, op)
    rss_mb = _peak_rss_mb()
    untraced, untraced_raw = list(wall), list(raw_wall)
    if ctx.trace:
        _traced_op(ctx, outcome, Tracer(), op, statistics.median(untraced_raw))
    if not report_hashes:
        return outcome
    _golden_check(ctx, outcome, "reports_sha256", report_hashes[0])

    indexes = out / "indexes"
    built = {
        mode: tuple(json.loads((indexes / f"{mode}.build.json").read_text(encoding="utf-8"))[key]
                    for key in ("documents_indexed", "vocabulary_size"))
        for mode in ("plain", "semantic")
    }
    system, queries = _open_system(inputs, indexes)
    problem = _reload_problem(system, built)
    if problem:
        outcome.fail(problem)
    sweeper = QuerySweeper(queries, ctx.seed, outcome, speed)
    sweeper.run(system, ctx.seconds * PROBE_SHARE)
    _check_runs_match_sweep(outcome, out / "reports", sweeper)
    _end_to_end(outcome, untraced, untraced_raw, setup_s, rss_mb,
                _index_bytes_per_corpus_byte(inputs, indexes), sweeper)
    if ctx.trace:
        outcome.layers.update(_input_properties(inputs, system, sweeper))
    return outcome


def _check_pipeline_output(code: int, reports: Path, hashes: list[str]) -> tuple[bool, str]:
    if code != 0:
        return False, f"pipeline exited {code}"
    missing = [name for name in _REPORT_FILES if not (reports / name).is_file() or not (reports / name).stat().st_size]
    if missing:
        return False, f"pipeline did not write {missing}"
    found = {
        st: json.loads((reports / f"semindex.{st}.found.json").read_text(encoding="utf-8"))
        for st in ("R0", "R2")
    }
    shrunk = [qid for qid, count in found["R0"].items() if found["R2"].get(qid, -1) < count]
    if shrunk:
        return False, f"R2 found fewer documents than R0 for {shrunk[:5]}"
    digest = _sha256_dir(reports)
    hashes.append(digest)
    if digest != hashes[0]:
        return False, "report bytes differ between pipeline invocations"
    return True, ""


def _check_runs_match_sweep(outcome: Outcome, reports: Path, sweeper: QuerySweeper) -> None:
    """The CLI's depth-1000 run files and sidecars hold what run_query returns."""
    for st in ("R0", "R1", "R2", "R3"):
        lines: dict[str, list[str]] = {}
        for line in (reports / f"semindex.{st}.run").read_text(encoding="utf-8").splitlines():
            qid, _q0, doc_id, rank, score, _tag = line.split()
            lines.setdefault(qid, []).append(f"{doc_id} {rank} {score}\n")
        found = json.loads((reports / f"semindex.{st}.found.json").read_text(encoding="utf-8"))
        for query in sweeper.queries:
            text = f"{found.get(query.qid)}\n" + "".join(lines.get(query.qid, []))
            if hashlib.sha256(text.encode("utf-8")).digest() != sweeper.digest.get((query.qid, st, 1000)):
                outcome.fail(f"{st} run file disagrees with run_query for {query.qid}")


# -- search ---------------------------------------------------------------------


def build_search_indexes(inputs: gen.Inputs, index_dir: Path, traced: bool) -> dict:
    """Child-process half of the search set-up: build and save both indexes."""

    def build() -> dict:
        lex = semindex.lexicon.load_lexicon(inputs.lexicon)
        docs = semindex.index.read_corpus(inputs.corpus).documents
        stop = semindex.load_stopwords(inputs.stopwords)
        built = {}
        for mode, lexicon in (("plain", None), ("semantic", lex)):
            index = semindex.index.build_index(docs, IndexMode(mode), lexicon, stop)
            index.save(index_dir / f"{mode}.idx")
            built[mode] = (index.doc_count, index.vocabulary_size)
        return built

    if not traced:
        return {"built": build()}
    tracer = Tracer()
    with tracer.active("setup"):
        built = build()
    return {"built": built, "trace": tracer.export()}


def _build_in_child(inputs_dir: Path, index_dir: Path, traced: bool) -> dict:
    """Run build_search_indexes in a fresh interpreter and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(Path(semindex.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, __file__, str(inputs_dir), str(index_dir), str(int(traced))],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def run_search(ctx: Context) -> Outcome:
    """Ad-hoc queries against loaded indexes; index building is set-up."""
    outcome = Outcome()
    speed = Speedometer()
    tracer = Tracer()
    index_dir = ctx.work / "indexes"

    def setup(traced: bool):
        inputs = _generate(ctx)
        shutil.rmtree(index_dir, ignore_errors=True)
        index_dir.mkdir(parents=True)
        # The build runs in a child so the parent's heap holds only what
        # loading the indexes creates, as in a search process.
        child = _build_in_child(ctx.work / "inputs", index_dir, traced)
        if traced:
            tracer.merge(child["trace"])
            with tracer.active("setup"):
                system, queries = _open_system(inputs, index_dir)
        else:
            system, queries = _open_system(inputs, index_dir)
        problem = _reload_problem(system, child["built"])
        outcome.op(not problem, problem)  # the build+save+reload operation
        return inputs, system, queries

    (inputs, system, queries), setup_s = _median_setup(ctx, speed, setup)
    sweeper = QuerySweeper(queries, ctx.seed, outcome, speed)
    sweeper.run(system, ctx.seconds)
    rss_mb = _peak_rss_mb()
    _golden_check(ctx, outcome, "rankings_sha256", sweeper.rankings_sha256())
    _end_to_end(outcome, sweeper.sweep_s, sweeper.raw_sweep_s, setup_s, rss_mb,
                _index_bytes_per_corpus_byte(inputs, index_dir), sweeper)
    if ctx.trace:
        untraced = statistics.median(sweeper.raw_sweep_wall_s)
        _traced_op(ctx, outcome, tracer, lambda: sweeper.sweep(system), untraced)
        outcome.layers.update(_input_properties(inputs, system, sweeper))
    return outcome


# -- ingest ---------------------------------------------------------------------


def run_ingest(ctx: Context) -> Outcome:
    """Write side only: load lexicon, read corpus, build both indexes with the pool, save."""
    outcome = Outcome()
    speed = Speedometer()
    inputs, setup_s = _median_setup(ctx, speed, lambda _traced: _generate(ctx))
    out = ctx.work / "indexes"
    out.mkdir(parents=True, exist_ok=True)
    built: dict[str, tuple[int, int]] = {}
    file_hashes: list[str] = []
    wall: list[float] = []
    raw_wall: list[float] = []

    def ingest() -> int:
        lex = semindex.lexicon.load_lexicon(inputs.lexicon)
        docs = semindex.index.read_corpus(inputs.corpus).documents
        stop = semindex.load_stopwords(inputs.stopwords)
        for mode, lexicon in (("plain", None), ("semantic", lex)):
            index = semindex.index.build_index(docs, IndexMode(mode), lexicon, stop, workers=ctx.workers)
            index.save(out / f"{mode}.idx")
            built[mode] = (index.doc_count, index.vocabulary_size)
            del index
        return len(docs)

    def op() -> None:
        try:
            docs, raw, factor = speed.around(ingest)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            outcome.op(False, f"ingest raised {type(exc).__name__}: {exc}")
            return
        wall.append(raw * factor)
        raw_wall.append(raw)
        file_hashes.append(_sha256_dir(out))
        if built["plain"][0] != docs or built["semantic"][0] != docs:
            outcome.op(False, f"indexed {built['plain'][0]}/{built['semantic'][0]} of {docs} documents")
        else:
            outcome.op(file_hashes[-1] == file_hashes[0], "index bytes differ between builds of the same corpus")

    _repeat(ctx, op)
    rss_mb = _peak_rss_mb(include_children=True)
    untraced, untraced_raw = list(wall), list(raw_wall)
    if ctx.trace:
        _traced_op(ctx, outcome, Tracer(), op, statistics.median(untraced_raw))
    if not built:
        return outcome

    system, queries = _open_system(inputs, out)
    problem = _reload_problem(system, built)
    if problem:
        outcome.fail(problem)
    sweeper = QuerySweeper(queries, ctx.seed, outcome, speed)
    sweeper.run(system, ctx.seconds * PROBE_SHARE)
    _end_to_end(outcome, untraced, untraced_raw, setup_s, rss_mb, _index_bytes_per_corpus_byte(inputs, out), sweeper)
    if ctx.trace:
        outcome.layers.update(_input_properties(inputs, system, sweeper))
    return outcome


WORKLOADS = {"pipeline": run_pipeline, "search": run_search, "ingest": run_ingest}


if __name__ == "__main__":
    # The child process of the search set-up: inputs dir, index dir, traced.
    result = build_search_indexes(gen.Inputs.at(Path(sys.argv[1])), Path(sys.argv[2]), sys.argv[3] == "1")
    print(json.dumps(result))
