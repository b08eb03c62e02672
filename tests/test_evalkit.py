from __future__ import annotations

import io
import json
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semindex import (
    DataError,
    EvalRecord,
    Run,
    RankedList,
    delta_report,
    evaluate_run,
    read_qrels,
    threeway_report,
)
from semindex.evalkit import (
    DEFAULT_PRECISION_CUTOFFS,
    DeltaRecord,
    DeltaReport,
    PrecisionSummary,
    SignBuckets,
    ThreeWayBuckets,
    ThreeWayReport,
    format_percent,
    render_buckets,
    render_deltas,
    render_records,
    render_summaries,
    render_threeway,
    sign_buckets,
)

from helpers import (
    reference_average_precision,
    reference_precision_at_k,
    reference_render_buckets,
    reference_render_deltas,
    reference_render_records,
    reference_render_summaries,
    reference_render_threeway,
)


def make_ranking(doc_ids, qid="q1", found=None) -> RankedList:
    scores = tuple(float(len(doc_ids) - i) for i in range(len(doc_ids)))
    return RankedList(qid, tuple(doc_ids), scores, found_count=found if found is not None else len(doc_ids))


def brute_force_p_at_k(doc_ids, relevant, k) -> float:
    hits = 0
    for position in range(1, k + 1):
        if position <= len(doc_ids) and doc_ids[position - 1] in relevant:
            hits += 1
    return hits / k


def brute_force_ap(doc_ids, relevant) -> float:
    total = 0.0
    for position in range(1, len(doc_ids) + 1):
        if doc_ids[position - 1] in relevant:
            total += brute_force_p_at_k(doc_ids, relevant, position)
    return total / len(relevant)


def evaluate_one(doc_ids, relevant) -> EvalRecord:
    """The evaluate_run record of one ranking of ``doc_ids``."""
    (record,) = evaluate_run(Run("t", (make_ranking(doc_ids),)), {"q1": relevant}, "R0").records
    return record


class TestPrecisionAtK:
    def test_all_relevant(self):
        record = evaluate_one([f"d{i}" for i in range(5)], {f"d{i}" for i in range(5)})
        assert record.p_at[5] == 1.0

    def test_empty_ranking(self):
        assert evaluate_one([], {"d1"}).p_at[10] == 0.0

    def test_divides_by_k_not_length(self):
        assert evaluate_one(["d1", "d2"], {"d1", "d2"}).p_at[10] == 0.2

    def test_matches_oracle_on_random_rankings(self):
        rng = random.Random(99)
        universe = [f"d{i}" for i in range(40)]
        for _ in range(1000):
            doc_ids = rng.sample(universe, rng.randint(0, 20))
            relevant = set(rng.sample(universe, rng.randint(1, 15)))
            record = evaluate_one(doc_ids, relevant)
            for k in (5, 10, 20, 100, 1000):
                assert record.p_at[k] == brute_force_p_at_k(doc_ids, relevant, k)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert evaluate_one(["d1", "d2", "d3"], {"d1", "d2", "d3"}).ap == 1.0

    def test_nothing_relevant_retrieved(self):
        assert evaluate_one(["d1", "d2"], {"d9"}).ap == 0.0

    def test_hand_computed_two_relevant(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
        assert evaluate_one(["d1", "d2", "d3"], {"d1", "d3"}).ap == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0, abs=1e-15
        )

    def test_empty_relevance_set_rejected(self):
        # AP divides by the relevance set's size, so such a query is not scored.
        result = evaluate_run(Run("t", (make_ranking(["d1"]),)), {"q1": set()}, "R0")
        assert result.records == ()
        assert result.skipped_qids == ("q1",)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(41)
        universe = [f"d{i}" for i in range(30)]
        for _ in range(1000):
            doc_ids = rng.sample(universe, rng.randint(0, 25))
            relevant = set(rng.sample(universe, rng.randint(1, 10)))
            got = evaluate_one(doc_ids, relevant).ap
            assert got == pytest.approx(brute_force_ap(doc_ids, relevant), abs=1e-12)


# Rankings of distinct documents: short ones from a small pool, so that hits
# are common, and ones longer than the largest cutoff (1,000).
SHORT_RANKINGS = st.lists(st.integers(0, 40).map("d{}".format), unique=True, max_size=30)
LONG_RANKINGS = st.builds(
    lambda length, seed: random.Random(seed).sample([f"d{i}" for i in range(1400)], length),
    st.integers(1001, 1300),
    st.integers(),
)
RELEVANT_SETS = st.sets((st.integers(0, 40) | st.integers(0, 1400)).map("d{}".format), min_size=1)
JUDGED_RANKINGS = st.lists(st.tuples(SHORT_RANKINGS | LONG_RANKINGS, RELEVANT_SETS), max_size=4)
LONG = [f"d{i}" for i in range(1200)]


class TestEvaluateRunMatchesReference:
    """evaluate_run derives P@k, AP and relevant-found from the ranks of the
    hits; each value equals the per-ranking reference function's bit for bit."""

    @given(judged=JUDGED_RANKINGS)
    @example(judged=[([], {"d1"})])  # empty ranking
    @example(judged=[(["d1", "d2"], {"d9"})])  # no hits
    @example(judged=[(["d1", "d2", "d3"], {"d1", "d2", "d3"})])  # all hits
    @example(judged=[(LONG, set(LONG[::7])), (LONG[::-1], set(LONG))])  # long rankings
    def test_records_equal_the_references(self, judged):
        rankings = [make_ranking(doc_ids, qid=f"q{i}") for i, (doc_ids, _) in enumerate(judged)]
        qrels = {f"q{i}": relevant for i, (_, relevant) in enumerate(judged)}
        records = evaluate_run(Run("t", tuple(rankings)), qrels, "R0").records
        assert len(records) == len(rankings)
        for record, ranked in zip(records, rankings):
            relevant = qrels[record.qid]
            for k in DEFAULT_PRECISION_CUTOFFS:
                assert record.p_at[k] == reference_precision_at_k(ranked, relevant, k)
            assert record.ap == reference_average_precision(ranked, relevant)
            assert record.relevant_found == sum(1 for doc_id in ranked.doc_ids if doc_id in relevant)


class TestEvaluateRun:
    def test_all_empty_rankings(self):
        run = Run("t", tuple(make_ranking([], qid=f"q{i}") for i in range(3)))
        qrels = {f"q{i}": {"d1"} for i in range(3)}
        result = evaluate_run(run, qrels, "R0")
        assert all(r.ap == 0.0 for r in result.records)
        assert all(v == 0.0 for r in result.records for v in r.p_at.values())
        assert result.summary.mean_ap == 0.0
        assert result.summary.median_ap == 0.0

    def test_single_query_hand_values(self):
        run = Run("t", (make_ranking(["d1", "d2", "d3"]),))
        result = evaluate_run(run, {"q1": {"d1", "d3"}}, "R0")
        (record,) = result.records
        assert record.found == 3
        assert record.relevant_found == 2
        assert record.ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert record.p_at[5] == 0.4

    def test_mean_and_median_differ_on_skew(self):
        rankings = (
            make_ranking(["d1"], qid="q1"),
            make_ranking(["d1"], qid="q2"),
            make_ranking(["x"], qid="q3"),
        )
        qrels = {"q1": {"d1"}, "q2": {"d1"}, "q3": {"d1"}}
        result = evaluate_run(Run("t", rankings), qrels, "R0")
        aps = sorted(r.ap for r in result.records)
        assert aps == [0.0, 1.0, 1.0]
        assert result.summary.mean_ap == pytest.approx(2.0 / 3.0)
        assert result.summary.median_ap == 1.0

    def test_missing_qrels_listed_and_excluded(self):
        run = Run("t", (make_ranking(["d1"], qid="q1"), make_ranking(["d1"], qid="q2")))
        result = evaluate_run(run, {"q1": {"d1"}}, "R0")
        assert [r.qid for r in result.records] == ["q1"]
        assert result.skipped_qids == ("q2",)

    def test_empty_relevance_set_excluded(self):
        run = Run("t", (make_ranking(["d1"], qid="q1"),))
        result = evaluate_run(run, {"q1": set()}, "R0")
        assert result.records == ()
        assert result.skipped_qids == ("q1",)

    def test_found_uses_pre_truncation_count(self):
        run = Run("t", (make_ranking(["d1"], found=500),))
        result = evaluate_run(run, {"q1": {"d1"}}, "R0")
        assert result.records[0].found == 500

    def test_relevant_found_bounded(self):
        rng = random.Random(13)
        universe = [f"d{i}" for i in range(20)]
        for _ in range(50):
            doc_ids = rng.sample(universe, rng.randint(0, 15))
            relevant = set(rng.sample(universe, rng.randint(1, 8)))
            run = Run("t", (make_ranking(doc_ids),))
            (record,) = evaluate_run(run, {"q1": relevant}, "R0").records
            assert record.relevant_found <= record.found
            assert record.relevant_found <= len(relevant)


LABELS_R = ("R1", "R2", "R3")


def record(qid, found, relevant):
    return EvalRecord(qid=qid, found=found, relevant_found=relevant, p_at={}, ap=0.0)


# Reference per-query counts: (found, relevant-found) per configuration.
REFERENCE_COUNTS = {
    "1": {"R0": (405, 164), "R1": (11588, 6287), "R2": (518, 329), "R3": (8937, 6092)},
    "2": {"R0": (674, 272), "R1": (9332, 5071), "R2": (2579, 1630), "R3": (1914, 1265)},
    "3": {"R0": (366, 96), "R1": (4237, 2225), "R2": (3560, 2163), "R3": (357, 95)},
    "4": {"R0": (3539, 361), "R1": (17687, 10985), "R2": (9825, 5564), "R3": (3781, 2438)},
    "49": {"R0": (681, 423), "R1": (6652, 3161), "R2": (4860, 1414), "R3": (663, 423)},
    "50": {"R0": (1578, 1129), "R1": (6163, 5267), "R2": (1938, 1154), "R3": (3077, 1451)},
    "70": {"R0": (170, 50), "R1": (7176, 3071), "R2": (573, 297), "R3": (155, 49)},
}


def reference_records(system):
    return [record(qid, *row[system]) for qid, row in REFERENCE_COUNTS.items()]


def pct_fields(rendered_json: str, metric: str) -> list[float]:
    """The ``*_pct`` values a JSON bucket or three-way report prints for
    ``metric``, in bucket order."""
    entry = json.loads(rendered_json)[metric]
    return [value for key, value in entry.items() if key.endswith("_pct")]


class TestDeltaReport:
    def test_reference_counts_reproduce_exact_deltas(self):
        report = delta_report(reference_records("R0"), reference_records("R1"))
        by_qid = {r.qid: r for r in report.records}
        assert by_qid["1"].found_delta == 11183
        assert by_qid["1"].relevant_delta == 6123

    def test_identical_inputs_give_zero_deltas(self):
        before = reference_records("R0")
        report = delta_report(before, reference_records("R0"))
        assert all(r.found_delta == 0 and r.relevant_delta == 0 for r in report.records)
        assert report.found.zero == len(before)
        assert report.found.negative == 0
        assert report.found.positive == 0
        assert pct_fields(render_buckets(report, "json"), "found") == [0.0, 100.0, 0.0]

    def test_planted_sign_pattern(self):
        # 0 negative, 9 zero, 61 positive out of 70
        before = [record(f"q{i}", 100, 50) for i in range(70)]
        after = []
        for i in range(70):
            delta = 0 if i < 9 else 5
            after.append(record(f"q{i}", 100 + delta, 50))
        report = delta_report(before, after)
        assert report.found.negative == 0
        assert report.found.zero == 9
        assert report.found.positive == 61
        assert pct_fields(render_buckets(report, "json"), "found") == [0.0, 12.86, 87.14]
        assert format_percent(9, 70) == "12.86"
        assert format_percent(61, 70) == "87.14"

    def test_qid_mismatch_rejected(self):
        with pytest.raises(DataError, match="q2"):
            delta_report([record("q1", 1, 1)], [record("q2", 1, 1)])

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_repeated_qid_rejected(self, side):
        records = {"before": [record("q1", 1, 1)], "after": [record("q1", 2, 1)]}
        records[side] = [record("q1", 1, 1), record("q1", 3, 1)]
        with pytest.raises(DataError, match=rf"^{side}: duplicate qid 'q1'$"):
            delta_report(records["before"], records["after"])

    def test_record_order_follows_before(self):
        before = [record("b", 1, 1), record("a", 2, 2)]
        after = [record("a", 3, 3), record("b", 4, 4)]
        report = delta_report(before, after)
        assert [r.qid for r in report.records] == ["b", "a"]

    def test_bucket_percentages_sum_to_100(self):
        rng = random.Random(5)
        before = [record(f"q{i}", rng.randint(0, 50), rng.randint(0, 20)) for i in range(37)]
        after = [record(f"q{i}", rng.randint(0, 50), rng.randint(0, 20)) for i in range(37)]
        report = delta_report(before, after)
        rendered = render_buckets(report, "json")
        for metric in ("found", "relevant"):
            assert getattr(report, metric).total == 37
            # Each of the three percentages is rounded to 2 decimals.
            assert abs(sum(pct_fields(rendered, metric)) - 100.0) <= 0.01 + 1e-9

    def test_buckets_match_independent_filter(self):
        rng = random.Random(17)
        before = [record(f"q{i}", rng.randint(0, 9), rng.randint(0, 5)) for i in range(60)]
        after = [record(f"q{i}", rng.randint(0, 9), rng.randint(0, 5)) for i in range(60)]
        report = delta_report(before, after)
        deltas = [r.found_delta for r in report.records]
        assert report.found == sign_buckets(deltas)
        assert report.found.negative == sum(1 for d in deltas if d < 0)
        assert report.found.zero == sum(1 for d in deltas if d == 0)
        assert report.found.positive == sum(1 for d in deltas if d > 0)


class TestThreeWayReport:
    def test_all_systems_identical(self):
        records = [record(f"q{i}", 10, 5) for i in range(4)]
        report = threeway_report(records, list(records), list(records), LABELS_R)
        assert report.found.all_equal == 4
        assert report.found.wins == (0, 0, 0)
        assert report.found.partial_tie == 0
        assert pct_fields(render_threeway(report, "json"), "found")[3] == 100.0

    def test_planted_winners_and_partial_tie(self):
        r1 = [record("q1", 10, 9), record("q2", 10, 9), record("q3", 5, 4)]
        r2 = [record("q1", 3, 2), record("q2", 4, 3), record("q3", 5, 4)]
        r3 = [record("q1", 2, 1), record("q2", 3, 2), record("q3", 1, 1)]
        report = threeway_report(r1, r2, r3, LABELS_R)
        assert report.found.wins == (2, 0, 0)
        assert report.found.all_equal == 0
        assert report.found.partial_tie == 1
        pct = pct_fields(render_threeway(report, "json"), "found")
        assert pct == [66.67, 0.0, 0.0, 0.0, 33.33]

    def test_dominant_system_wins_most_queries(self):
        # first system strictly largest on most queries
        rng = random.Random(3)
        r1, r2, r3 = [], [], []
        for i in range(70):
            base = rng.randint(100, 500)
            r1.append(record(f"q{i}", base + 1000, base + 500))
            r2.append(record(f"q{i}", base + rng.randint(0, 100), base))
            r3.append(record(f"q{i}", base - rng.randint(0, 50), base - 10))
        report = threeway_report(r1, r2, r3, LABELS_R)
        pct = pct_fields(render_threeway(report, "json"), "found")
        assert pct[0] > max(pct[1], pct[2])
        assert pct[0] > 50.0

    def test_qid_mismatch_rejected(self):
        with pytest.raises(DataError, match=re.escape("query sets differ on qids ['q1', 'qX']")):
            threeway_report([record("q1", 1, 1)], [record("q1", 1, 1)], [record("qX", 1, 1)], LABELS_R)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_repeated_qid_rejected(self, position):
        systems = [[record("q1", 1, 1), record("q2", 1, 1)] for _ in LABELS_R]
        systems[position].append(record("q1", 2, 1))
        with pytest.raises(DataError, match=rf"^{LABELS_R[position]}: duplicate qid 'q1'$"):
            threeway_report(*systems, LABELS_R)

    def test_repeated_labels_rejected(self):
        # Two "x" systems would share one x_wins bucket, and a win would be lost.
        first, second, third = [record("q1", 3, 1)], [record("q1", 2, 1)], [record("q1", 1, 0)]
        with pytest.raises(DataError, match="not distinct"):
            threeway_report(first, second, third, labels=("x", "x", "y"))

    def test_five_buckets_partition_queries(self):
        rng = random.Random(8)
        systems = [
            [record(f"q{i}", rng.randint(0, 4), rng.randint(0, 3)) for i in range(50)]
            for _ in range(3)
        ]
        report = threeway_report(*systems, LABELS_R)
        rendered = render_threeway(report, "json")
        for metric in ("found", "relevant"):
            assert getattr(report, metric).total == 50
            # Each of the five percentages is rounded to 2 decimals.
            assert abs(sum(pct_fields(rendered, metric)) - 100.0) <= 0.025 + 1e-9


class TestReadQrels:
    def test_parse(self):
        qrels = read_qrels(io.StringIO("q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 1\n"))
        assert qrels == {"q1": {"d1"}, "q2": {"d3"}}

    def test_bad_field_count(self):
        with pytest.raises(DataError, match="line 1"):
            read_qrels(io.StringIO("q1 d1 1\n"))

    def test_bad_relevance_value(self):
        with pytest.raises(DataError, match="relevance"):
            read_qrels(io.StringIO("q1 0 d1 2\n"))

    # The later judgment of a pair used to win silently when it was 1, the
    # relevant one when it came first.
    @pytest.mark.parametrize("rels", [("1", "0"), ("0", "1"), ("1", "1")])
    def test_pair_judged_twice_rejected(self, rels):
        text = f"q1 0 d1 {rels[0]}\nq1 0 d2 1\nq1 1 d1 {rels[1]}\n"
        message = r"^input stream: line 3: document 'd1' judged twice for query 'q1' \(first seen on line 1\)$"
        with pytest.raises(DataError, match=message):
            read_qrels(io.StringIO(text))

    def test_all_zero_judgments_leave_empty_set(self):
        qrels = read_qrels(io.StringIO("q1 0 d1 0\n"))
        assert qrels == {"q1": set()}


class TestRendering:
    def test_empty_records_tsv_is_header_only(self):
        out = render_records([], "tsv")
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("qid\tfound")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_records([], "xml")

    @pytest.mark.parametrize(
        "render", [render_records, render_summaries, render_deltas, render_buckets, render_threeway]
    )
    def test_unknown_format_is_checked_before_the_input_is_read(self, render):
        with pytest.raises(ValueError, match="unknown report format"):
            render([], "xml")

    def test_deterministic(self):
        records = reference_records("R1")
        assert render_records(records, "tsv") == render_records(records, "tsv")
        report = delta_report(reference_records("R0"), reference_records("R1"))
        assert render_deltas(report.records, "json") == render_deltas(report.records, "json")

    def test_records_json_round_trip(self):
        run = Run("t", (make_ranking(["d1", "d2", "d3"]),))
        result = evaluate_run(run, {"q1": {"d1", "d3"}}, "R0")
        parsed = json.loads(render_records(result.records, "json"))
        assert len(parsed) == 1
        row = parsed[0]
        original = result.records[0]
        assert row["qid"] == original.qid
        assert row["found"] == original.found
        assert row["relevant_found"] == original.relevant_found
        assert row["ap"] == original.ap
        assert {int(k): v for k, v in row["p_at"].items()} == original.p_at

    def test_records_tsv_round_trip(self):
        run = Run("t", (make_ranking(["d1", "d2", "d3"]),))
        result = evaluate_run(run, {"q1": {"d1", "d3"}}, "R0")
        out = render_records(result.records, "tsv")
        header, row = out.splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        original = result.records[0]
        assert cells["qid"] == original.qid
        assert int(cells["found"]) == original.found
        assert float(cells["ap"]) == original.ap
        assert float(cells["p@5"]) == original.p_at[5]

    def test_deltas_round_trip(self):
        report = delta_report(reference_records("R0"), reference_records("R3"))
        parsed = json.loads(render_deltas(report.records, "json"))
        by_qid = {row["qid"]: row for row in parsed}
        assert by_qid["70"]["found_delta"] == -15
        assert by_qid["70"]["relevant_delta"] == -1
        out = render_deltas(report.records, "tsv")
        header, *rows = out.splitlines()
        for row, original in zip(rows, report.records):
            cells = dict(zip(header.split("\t"), row.split("\t")))
            assert cells["qid"] == original.qid
            assert int(cells["found_delta"]) == original.found_delta
            assert int(cells["relevant_delta"]) == original.relevant_delta

    def test_buckets_rendering(self):
        before = [record(f"q{i}", 100, 50) for i in range(70)]
        after = [record(f"q{i}", 100 + (0 if i < 9 else 5), 50) for i in range(70)]
        report = delta_report(before, after)
        tsv = render_buckets(report, "tsv")
        assert "found\tdelta=0\t9\t12.86" in tsv
        assert "found\tdelta>0\t61\t87.14" in tsv
        parsed = json.loads(render_buckets(report, "json"))
        assert parsed["found"]["zero"] == 9
        assert parsed["found"]["positive_pct"] == 87.14

    def test_summaries_rendering(self):
        run = Run("t", (make_ranking(["d1"]),))
        result = evaluate_run(run, {"q1": {"d1"}}, "R0")
        tsv = render_summaries([result.summary], "tsv")
        assert tsv.splitlines()[0].startswith("system\tmean_ap\tmedian_ap")
        parsed = json.loads(render_summaries([result.summary], "json"))
        assert parsed[0]["system"] == "R0"
        assert parsed[0]["mean_ap"] == result.summary.mean_ap

    def test_threeway_rendering(self):
        records = [record(f"q{i}", 10, 5) for i in range(4)]
        report = threeway_report(records, list(records), list(records), LABELS_R)
        tsv = render_threeway(report, "tsv")
        assert "found\tall_equal\t4\t100.00" in tsv
        parsed = json.loads(render_threeway(report, "json"))
        assert parsed["found"]["all_equal"] == 4
        assert parsed["labels"] == ["R1", "R2", "R3"]


# -- renderers against the hand-written reference renderers -----------------

NAMES = st.sampled_from(["q1", "ق١", "سؤال-٢", "semindex.R1", ""]) | st.text(max_size=6)
FLOATS = st.sampled_from([0.0, 1 / 3, 1e-7, 0.5, 1.0]) | st.floats()
COUNTS = st.sampled_from([0, 1, 3, 7]) | st.integers(min_value=0, max_value=10**6)
BY_CUTOFF = st.dictionaries(
    st.sampled_from(DEFAULT_PRECISION_CUTOFFS) | st.integers(min_value=1, max_value=2000), FLOATS, max_size=6
)
EVAL_RECORDS = st.lists(
    st.builds(EvalRecord, qid=NAMES, found=COUNTS, relevant_found=COUNTS, p_at=BY_CUTOFF, ap=FLOATS),
    max_size=5,
)
SUMMARIES = st.lists(
    st.builds(
        PrecisionSummary,
        system=NAMES,
        mean_ap=FLOATS,
        median_ap=FLOATS,
        mean_p_at=BY_CUTOFF,
        query_count=COUNTS,
    ),
    max_size=4,
)
DELTA_RECORDS = st.lists(
    st.builds(
        DeltaRecord,
        qid=NAMES,
        found_before=COUNTS,
        found_after=COUNTS,
        relevant_before=COUNTS,
        relevant_after=COUNTS,
    ),
    max_size=5,
)
SIGN_BUCKETS = st.builds(SignBuckets, COUNTS, COUNTS, COUNTS)
BUCKET_REPORTS = st.builds(DeltaReport, DELTA_RECORDS.map(tuple), SIGN_BUCKETS, SIGN_BUCKETS)
LABELS = st.sampled_from([("R1", "R2", "R3"), ("semindex.R1", "semindex.R2", "semindex.R3"), ("أ", "ب", "ج")]) | st.tuples(
    NAMES, NAMES, NAMES
)


def _threeway_buckets(labels):
    return st.builds(ThreeWayBuckets, st.just(labels), st.tuples(COUNTS, COUNTS, COUNTS), COUNTS, COUNTS)


THREEWAY_REPORTS = LABELS.flatmap(
    lambda labels: st.builds(ThreeWayReport, _threeway_buckets(labels), _threeway_buckets(labels))
)
FORMATS = pytest.mark.parametrize("fmt", ["tsv", "json"])


class TestRenderersMatchReference:
    """Each renderer writes the same bytes as the hand-written one it replaced."""

    @FORMATS
    @given(records=EVAL_RECORDS)
    def test_records(self, fmt, records):
        assert render_records(records, fmt) == reference_render_records(records, fmt)

    @FORMATS
    @given(summaries=SUMMARIES)
    def test_summaries(self, fmt, summaries):
        assert render_summaries(summaries, fmt) == reference_render_summaries(summaries, fmt)

    @FORMATS
    @given(records=DELTA_RECORDS)
    def test_deltas(self, fmt, records):
        assert render_deltas(records, fmt) == reference_render_deltas(records, fmt)

    @FORMATS
    @given(report=BUCKET_REPORTS)
    def test_buckets(self, fmt, report):
        assert render_buckets(report, fmt) == reference_render_buckets(report, fmt)

    @FORMATS
    @given(report=THREEWAY_REPORTS)
    def test_threeway(self, fmt, report):
        assert render_threeway(report, fmt) == reference_render_threeway(report, fmt)
