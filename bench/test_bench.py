"""Self-tests of the benchmark's own arithmetic and reference answers.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from layers import LAYER_UNITS  # noqa: E402
from oracle import expected_scoreboard, percentile, tail_supported  # noqa: E402
from spans import END, PARENT, RID, START, Tracer, merge, self_times  # noqa: E402
from workloads import E2E_UNITS  # noqa: E402

from flagless import ledger  # noqa: E402
from flagless.competition import compute_scoreboard  # noqa: E402
from flagless.validator import CompetitionHost, ValidationVerdict  # noqa: E402


def _span(start, end, parent=-1):
    return ["s", None, start, end, parent, None]


class TestScorer:
    def test_ranks_by_points_then_earlier_last_solve_then_id(self):
        rows = expected_scoreboard(
            ["b", "a", "c", "d"],
            {"x": 100, "y": 200},
            [("a", "x", 5), ("b", "y", 6), ("c", "y", 4), ("a", "y", 9)],
        )
        assert [(r["team_id"], r["points"], r["last_solve_index"]) for r in rows] == [
            ("a", 300, 9), ("c", 200, 4), ("b", 200, 6), ("d", 0, None),
        ]
        assert [r["rank"] for r in rows] == [1, 2, 3, 4]
        assert rows[0]["solves"] == 2

    def test_only_the_first_solve_of_a_pair_counts(self):
        rows = expected_scoreboard(["a"], {"x": 100}, [("a", "x", 7), ("a", "x", 3)])
        assert rows == [
            {"last_solve_index": 3, "points": 100, "rank": 1, "solves": 1, "team_id": "a"}
        ]

    def test_matches_flagless_on_a_generated_ledger(self):
        comp = gen.build(5)
        chain = ledger.load_chain(comp.ledger_bytes(30))
        served = [r.to_json_dict() for r in compute_scoreboard(ledger.replay(chain), chain)]
        assert served == expected_scoreboard(comp.team_ids, comp.points, comp.solves)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(20, 0, -1))
        assert percentile(values, 95) == 19
        assert percentile(values, 50) == 10
        assert percentile(values, 100) == 20
        assert percentile([7.0], 95) == 7.0

    def test_tail_needs_ten_samples_beyond(self):
        assert tail_supported(200, 95)
        assert not tail_supported(199, 95)
        assert tail_supported(20, 50)


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            _span(0.0, 10.0),
            _span(1.0, 3.0, 0),
            _span(2.0, 5.0, 0),  # overlaps the previous child
            _span(8.0, 12.0, 0),  # runs past its parent's end
            _span(1.5, 2.5, 1),  # grandchild: covered already by its parent
        ]
        assert self_times(spans) == [4.0, 1.0, 3.0, 4.0, 1.0]

    def test_tracer_nests_inherits_request_id_and_merges_threads(self, tmp_path):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)

        def outer():
            return tracer.span("outer", inner, 1, rid="r1")

        assert outer() == 2
        worker = threading.Thread(target=outer)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        out = tmp_path / "spans.json"
        tracer.dump(str(out))
        spans = json.loads(out.read_text())
        assert [(s[0], s[RID], s[PARENT]) for s in spans] == [
            ("outer", "r1", -1), ("inner", "r1", 0), ("outer", "r1", -1), ("inner", "r1", 2),
        ]
        assert all(s[START] <= s[END] for s in spans)
        assert [s[PARENT] for s in merge(spans, spans)][4:] == [-1, 4, -1, 6]


class TestGenerator:
    def test_same_seed_same_bytes(self):
        assert gen.build(3).ledger_bytes(4) == gen.build(3).ledger_bytes(4)
        assert gen.build(3).ledger_bytes(4) != gen.build(4).ledger_bytes(4)

    def test_expected_outcomes_match_the_validator(self):
        comp = gen.build(6)
        host = CompetitionHost(ledger.load_chain(comp.ledger_bytes(gen.EARLY_SOLVES)))
        for req in gen.pool(comp, gen.EARLY_SOLVES, 40, "t", gen.RUSH_BLOCK):
            changeset = ledger.Changeset.from_json_dict(json.loads(req.body))
            result = host.apply(changeset)
            if req.status == 201:
                assert not isinstance(result, ValidationVerdict), req
            else:
                assert result.code.name == req.code, req


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
