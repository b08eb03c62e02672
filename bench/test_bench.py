"""Smoke tests for the benchmark harness at a tiny input size.

    python3 -m pytest bench -q

They run all three workloads untraced and traced, check that every metric
named in BENCHMARK.json is produced, and show that the output checks fire
when a ranking or a report is altered.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import semindex  # noqa: E402
import semindex.cli  # noqa: E402
import semindex.engine  # noqa: E402

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

TINY = gen.Size(
    docs=60, doc_tokens=(20, 60), vocab=600, synsets=120, queries=12, query_tokens=(1, 6),
    multiword_share=0.4, polysemous_share=0.3, phrase_rate=0.08, diacritic_rate=0.4,
    stopwords=5, relevant_per_query=(2, 4),
)


def tiny_context(tmp_path: Path, workload: str, trace: bool = False, golden=None) -> workloads.Context:
    return workloads.Context(
        workload=workload, seed=7, seconds=0.0, trace=trace, work=tmp_path / "work",
        size=TINY, golden=golden,
    )


@pytest.fixture(autouse=True)
def fewer_query_sweeps(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_SWEEPS", 2)


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_generator_is_a_function_of_the_seed(tmp_path):
    first = gen.generate(3, TINY, tmp_path / "a")
    again = gen.generate(3, TINY, tmp_path / "b")
    other = gen.generate(4, TINY, tmp_path / "c")
    for field in dataclasses.fields(gen.Inputs):
        name = field.name
        assert getattr(first, name).read_bytes() == getattr(again, name).read_bytes()
    assert first.corpus.read_bytes() != other.corpus.read_bytes()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_measures_every_end_to_end_metric(tmp_path, workload):
    outcome = workloads.WORKLOADS[workload](tiny_context(tmp_path, workload))
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert sorted(outcome.metrics) == sorted(END_TO_END)
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_measures_every_per_layer_metric(tmp_path, workload):
    originals = {
        (owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracer._PATCHES
    }
    outcome = workloads.WORKLOADS[workload](tiny_context(tmp_path, workload, trace=True))
    assert outcome.failed == 0
    assert sorted(outcome.layers) == sorted(PER_LAYER)
    assert outcome.layers["index.save.calls"][0] == 2
    assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
    # Tracing is undone: every patched attribute is the original again.
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.phase = "measured"
    t.begin("engine.run_query")
    t.begin("index.retrieve")
    t.end()
    outer = t.end()
    child = t.spans[1][2] - t.spans[1][1]
    assert t.phase_self_ns["measured"]["engine.run_query"] == outer - child
    assert t.spans[1][3] == 0  # the child's parent is the first span


def test_altered_ranking_fails_the_run(tmp_path, monkeypatch):
    original = semindex.engine.SearchSystem.run_query

    def swapped(self, query, search_type, depth=None):
        ranked = original(self, query, search_type, depth)
        if query.qid == "q0001" and search_type.value == "R1" and len(ranked.entries) > 1:
            first, second, *rest = ranked.entries
            ranked = dataclasses.replace(ranked, entries=(second, first, *rest))
        return ranked

    monkeypatch.setattr(semindex.engine.SearchSystem, "run_query", swapped)
    outcome = workloads.run_search(tiny_context(tmp_path, "search"))
    assert outcome.failed > 0


def test_rankings_hash_mismatch_fails_the_run(tmp_path):
    outcome = workloads.run_search(tiny_context(tmp_path, "search", golden={"rankings_sha256": "0" * 64}))
    assert outcome.failed == 1


def test_altered_report_fails_the_run(tmp_path, monkeypatch):
    assert workloads.run_pipeline(tiny_context(tmp_path / "clean", "pipeline")).failed == 0
    golden = {"reports_sha256": workloads._sha256_dir(tmp_path / "clean" / "work" / "out" / "reports")}
    assert workloads.run_pipeline(tiny_context(tmp_path / "same", "pipeline", golden=golden)).failed == 0

    original = semindex.cli.main

    def altering_main(argv):
        code = original(argv)
        report_dir = Path(argv[argv.index("--report-dir") + 1])
        with open(report_dir / "summary.tsv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        return code

    monkeypatch.setattr(semindex.cli, "main", altering_main)
    outcome = workloads.run_pipeline(tiny_context(tmp_path / "altered", "pipeline", golden=golden))
    assert outcome.failed > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
