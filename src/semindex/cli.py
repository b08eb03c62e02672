"""Command-line front end.

Subcommands: ``index``, ``batch``, ``search``, ``eval``, ``compare``, and
``pipeline`` (which chains the whole experiment). Exit codes: 0 success,
1 usage error, 2 data error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from ._util import DataError, atomic_write_text
from .config import _COERCERS, Config, UsageError, load_config, nonempty_path, validate_sanity
from .engine import Query, Run, SearchSystem, SearchType, read_queries, read_run, write_run
from .evalkit import (
    EvalResult,
    delta_report,
    evaluate_run,
    read_qrels,
    render_buckets,
    render_deltas,
    render_records,
    render_summaries,
    render_threeway,
    threeway_report,
)
from .index import CorpusReadResult, Index, IndexMode, build_index, build_indexes, load_index, read_corpus
from .lexicon import Lexicon, load_lexicon
from .textnorm import load_stopwords

logger = logging.getLogger("semindex")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


# -- shared plumbing ----------------------------------------------------------


def _index_path(cfg: Config, mode: IndexMode) -> Path:
    return cfg.index_dir / f"{mode.value}.idx"


def _label(run_path: Path) -> str:
    """The system label of a run file: its name without ``.run``."""
    return run_path.name.removesuffix(".run")


def _found_path(run_path: Path) -> Path:
    """The found-count sidecar of a run file: ``x.run`` -> ``x.found.json``."""
    return run_path.with_name(_label(run_path) + ".found.json")


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as sorted, indented UTF-8 JSON ending in a newline."""
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def _load_stoplist(cfg: Config) -> frozenset[str]:
    if cfg.stopwords is None:
        return frozenset()
    return load_stopwords(cfg.stopwords)


def _require(cfg: Config, key: str, why: str) -> Path:
    value = getattr(cfg, key)
    if value is None:
        raise UsageError(f"--{key} is required {why}")
    return value


def _read_corpus(cfg: Config) -> CorpusReadResult:
    result = read_corpus(_require(cfg, "corpus", "to build an index"))
    for skip in result.skipped:
        logger.warning("corpus line %d skipped: %s", skip.line_no, skip.reason)
    return result


def _save_index(cfg: Config, idx: Index, corpus: CorpusReadResult) -> None:
    """Save ``idx`` with its ``*.build.json``."""
    cfg.index_dir.mkdir(parents=True, exist_ok=True)
    index_path = _index_path(cfg, idx.mode)
    idx.save(index_path)
    report = {
        "mode": idx.mode.value,
        "documents_indexed": idx.doc_count,
        "documents_skipped": len(corpus.skipped),
        "skipped": [{"line": s.line_no, "reason": s.reason} for s in corpus.skipped],
        "vocabulary_size": idx.vocabulary_size,
    }
    _write_json(cfg.index_dir / f"{idx.mode.value}.build.json", report)
    logger.info("wrote %s (%d docs, %d terms)", index_path, idx.doc_count, idx.vocabulary_size)


def _load_system(cfg: Config, st: SearchType) -> SearchSystem:
    lex = Lexicon()
    if st.expands_query:  # without a lexicon, R1 would quietly run as R3 and R2 as R0
        lex = load_lexicon(_require(cfg, "lexicon", f"to expand {st.value} queries"))
    mode = st.index_mode
    path = _index_path(cfg, mode)
    if not path.exists():
        raise FileNotFoundError(
            f"missing index file {path}; build it with 'semindex index --mode {mode.value}'"
        )
    # The index goes in the field of st's mode, where SearchSystem checks its mode.
    return SearchSystem(
        **{f"{mode.value}_index": load_index(path)},
        lexicon=lex,
        stoplist=_load_stoplist(cfg),
        k1=cfg.k1,
        b=cfg.b,
    )


def _write_run_files(cfg: Config, st: SearchType, run: Run) -> tuple[Path, Path]:
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    run_path = cfg.report_dir / f"{cfg.tag}.{st.value}.run"
    found_path = _found_path(run_path)
    write_run(run, run_path, found_path)
    logger.info("wrote %s (%d queries)", run_path, len(run.results))
    return run_path, found_path


def _require_distinct_labels(run_files: list[Path]) -> None:
    """Reports are named by label, so two runs of one label would overwrite each other's."""
    seen: dict[str, Path] = {}
    for run_file in run_files:
        label = _label(run_file)
        if label in seen:
            raise UsageError(f"runs {seen[label]} and {run_file} share the label {label!r}; rename one")
        seen[label] = run_file


def _evaluate(run: Run, qrels, run_path: Path) -> EvalResult:
    """Evaluate ``run`` as the system ``_label(run_path)``."""
    result = evaluate_run(run, qrels, _label(run_path))
    if result.skipped_qids:
        logger.warning(
            "%s: %d queries without relevance judgments skipped: %s",
            result.summary.system,
            len(result.skipped_qids),
            ", ".join(result.skipped_qids),
        )
    return result


def _evaluate_run_file(run_file: Path, qrels) -> EvalResult:
    found_path = _found_path(run_file)
    run = read_run(run_file, found_path if found_path.exists() else None)
    return _evaluate(run, qrels, run_file)


def _write_report(cfg: Config, name: str, render, table) -> str:
    """Write ``<name>.tsv`` and ``<name>.json`` of one report; return the TSV.
    ``render`` is looked up by the caller, so a patched ``render_*`` is used."""
    tsv = render(table, "tsv")
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.report_dir / f"{name}.tsv", tsv)
    atomic_write_text(cfg.report_dir / f"{name}.json", render(table, "json"))
    return tsv


def _write_eval_outputs(cfg: Config, results: list[EvalResult]) -> str:
    for result in results:
        _write_report(cfg, f"{result.summary.system}.eval", render_records, result.records)
    return _write_report(cfg, "summary", render_summaries, [r.summary for r in results])


def _write_comparison(cfg: Config, baseline: EvalResult, treatments: list[EvalResult]) -> str:
    """Delta and bucket reports of each treatment against the baseline, plus
    the three-way report when there are exactly three treatments."""
    stdout_parts = []
    for result in treatments:
        report = delta_report(list(baseline.records), list(result.records))
        prefix = f"{baseline.summary.system}_vs_{result.summary.system}"
        _write_report(cfg, f"{prefix}.deltas", render_deltas, report.records)
        buckets_tsv = _write_report(cfg, f"{prefix}.buckets", render_buckets, report)
        stdout_parts.append(f"== {prefix}\n{buckets_tsv}")

    if len(treatments) == 3:
        labels = tuple(r.summary.system for r in treatments)
        report = threeway_report(*(list(r.records) for r in treatments), labels=labels)
        threeway_tsv = _write_report(cfg, "threeway", render_threeway, report)
        stdout_parts.append(f"== threeway\n{threeway_tsv}")
    return "\n".join(stdout_parts)


# -- subcommands ---------------------------------------------------------------


def cmd_index(cfg: Config, args: argparse.Namespace) -> int:
    mode = IndexMode(args.mode)
    lex = None
    if mode is IndexMode.SEMANTIC:
        lex = load_lexicon(_require(cfg, "lexicon", "for a semantic index"))
    corpus = _read_corpus(cfg)
    idx = build_index(corpus.documents, mode, lex, _load_stoplist(cfg), workers=cfg.workers)
    _save_index(cfg, idx, corpus)
    if args.export_json is not None:
        _write_json(args.export_json, idx.to_jsonable())
    print(
        f"indexed {idx.doc_count} documents ({len(corpus.skipped)} skipped, "
        f"{idx.vocabulary_size} terms) -> {_index_path(cfg, mode)}"
    )
    return EXIT_OK


def cmd_batch(cfg: Config, args: argparse.Namespace) -> int:
    st = SearchType(args.search_type)
    queries_path = _require(cfg, "queries", "to run a batch")
    system = _load_system(cfg, st)
    run = system.batch_run(read_queries(queries_path), st, depth=cfg.depth, tag=cfg.tag)
    run_path, found_path = _write_run_files(cfg, st, run)
    print(f"wrote {run_path} and {found_path}")
    return EXIT_OK


def cmd_search(cfg: Config, args: argparse.Namespace) -> int:
    st = SearchType(args.search_type)
    system = _load_system(cfg, st)
    ranked = system.run_query(Query("q0", args.text), st, depth=cfg.depth)
    for rank, (doc_id, score) in enumerate(zip(ranked.doc_ids, ranked.scores), start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    logger.info("found %d documents", ranked.found_count)
    return EXIT_OK


def cmd_eval(cfg: Config, args: argparse.Namespace) -> int:
    qrels_path = _require(cfg, "qrels", "to evaluate runs")
    _require_distinct_labels(args.runs)
    qrels = read_qrels(qrels_path)
    results = [_evaluate_run_file(run_file, qrels) for run_file in args.runs]
    summary_tsv = _write_eval_outputs(cfg, results)
    print(summary_tsv, end="")
    return EXIT_OK


def cmd_compare(cfg: Config, args: argparse.Namespace) -> int:
    qrels_path = _require(cfg, "qrels", "to compare runs")
    _require_distinct_labels(args.treatments)  # the baseline may share a treatment's label
    qrels = read_qrels(qrels_path)
    baseline = _evaluate_run_file(args.baseline, qrels)
    treatments = [_evaluate_run_file(run_file, qrels) for run_file in args.treatments]
    print(_write_comparison(cfg, baseline, treatments), end="")
    return EXIT_OK


def cmd_pipeline(cfg: Config, args: argparse.Namespace) -> int:
    """Full experiment: both indexes, all four run types, eval, compare.

    The indexes are saved but not reloaded, and each run is evaluated from
    memory after it is written: the files hold exactly what was evaluated.
    """
    for key in ("corpus", "lexicon", "queries", "qrels"):
        _require(cfg, key, "for the pipeline")
    lex = load_lexicon(cfg.lexicon)
    stoplist = _load_stoplist(cfg)
    corpus = _read_corpus(cfg)
    modes = (IndexMode.PLAIN, IndexMode.SEMANTIC)
    plain, semantic = build_indexes(corpus.documents, modes, lex, stoplist, workers=cfg.workers)
    for idx in (plain, semantic):
        _save_index(cfg, idx, corpus)
    del corpus  # the texts are not needed past the builds
    system = SearchSystem(
        plain_index=plain, semantic_index=semantic, lexicon=lex, stoplist=stoplist, k1=cfg.k1, b=cfg.b
    )
    queries = read_queries(cfg.queries)
    qrels = read_qrels(cfg.qrels)

    results = {}
    for st in SearchType:
        run = system.batch_run(queries, st, depth=cfg.depth, tag=cfg.tag)
        run_path, _ = _write_run_files(cfg, st, run)
        results[st] = _evaluate(run, qrels, run_path)
    summary_tsv = _write_eval_outputs(cfg, list(results.values()))
    comparison = _write_comparison(
        cfg, results[SearchType.R0], [results[SearchType.R1], results[SearchType.R2], results[SearchType.R3]]
    )
    print(summary_tsv)
    print(comparison, end="")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=nonempty_path, help="flat key = value config file")
    # One flag per Config field (--index-dir for index_dir), read as its config file value is.
    for f in fields(Config):
        shown = repr(f.default) if isinstance(f.default, str) else f.default
        text = f.metadata["help"] + ("" if f.default is None else f" (default {shown})")
        parser.add_argument("--" + f.name.replace("_", "-"), type=_COERCERS[f.name], help=text)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semindex",
        description="Concept-based semantic indexing and retrieval experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist an inverted index")
    p.add_argument("--mode", choices=[m.value for m in IndexMode], required=True)
    p.add_argument("--export-json", dest="export_json", type=nonempty_path, help="also dump the index as JSON")
    _add_common_options(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("batch", help="run the query set in one search type")
    p.add_argument("--search-type", dest="search_type", choices=[s.value for s in SearchType], required=True)
    _add_common_options(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("search", help="run one ad-hoc query to stdout")
    p.add_argument("--search-type", dest="search_type", choices=[s.value for s in SearchType], default="R0")
    p.add_argument("text", help="query text")
    _add_common_options(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate run files against qrels")
    p.add_argument("runs", nargs="+", type=nonempty_path, help="run files to evaluate")
    _add_common_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="delta/bucket/three-way comparison of runs")
    p.add_argument("baseline", type=nonempty_path, help="baseline run file")
    p.add_argument("treatments", nargs="+", type=nonempty_path, help="treatment run files")
    _add_common_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline", help="index both modes, run R0-R3, evaluate, compare")
    _add_common_options(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def resolve_config(args: argparse.Namespace) -> Config:
    """Config file values, then the flags given (a flag left out is None), then the sanity checks."""
    cfg = load_config(args.config) if args.config else Config()
    flags = {f.name: getattr(args, f.name) for f in fields(Config)}
    cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
    validate_sanity(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except UsageError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except DataError as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
