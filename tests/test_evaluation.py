from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from kgagent.evaluation import (
    DatasetRecord,
    EvalReport,
    QuestionOutcome,
    load_dataset,
    normalize_answer,
    report_to_json,
    run_eval,
    score_hit,
)
from kgagent.kg import InputError

from conftest import (
    GOETHE_QUESTION,
    GOETHE_SCRIPT,
    GOETHE_TRIPLES,
    GOETHE_LABELS,
    TOKYO_QUESTION,
    TOKYO_SCRIPT,
    TOKYO_TRIPLES,
    TOKYO_LABELS,
    ConstantEmbedder,
    make_kg,
    make_providers,
    make_routed_providers,
    save_dataset,
    write_lines,
)


class TestLoadDataset:
    def test_empty_stream(self, tmp_path):
        assert load_dataset(write_lines(tmp_path / "d.jsonl", [])) == []

    def test_single_record(self, tmp_path):
        line = json.dumps(
            {"question": "q?", "entities": ["Q1"], "answers": ["a"]}
        )
        records = load_dataset(write_lines(tmp_path / "d.jsonl", [line]))
        assert records == [DatasetRecord("q?", ["Q1"], ["a"])]

    def test_malformed_record_reports_line(self, tmp_path):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        with pytest.raises(InputError) as excinfo:
            load_dataset(write_lines(tmp_path / "d.jsonl", [good, "{broken"]))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "entities, answers",
        [(["Q1"], "Tokyo"), ("Q1", ["Tokyo"]), (["Q1"], ["Tokyo", 5]), ([["Q1"]], ["Tokyo"])],
    )
    def test_fields_must_be_arrays_of_strings(self, tmp_path, entities, answers):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        bad = json.dumps({"question": "q?", "entities": entities, "answers": answers})
        with pytest.raises(InputError, match="array of strings") as excinfo:
            load_dataset(write_lines(tmp_path / "d.jsonl", [good, bad]))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "question, message",
        [(5, "question must be a JSON string"), (["q"], "question must be a JSON string"),
         (None, "question must be a JSON string"), ("", "question must be non-empty")],
    )
    def test_question_must_be_a_non_empty_string(self, tmp_path, question, message):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        bad = json.dumps({"question": question, "entities": ["Q1"], "answers": ["a"]})
        with pytest.raises(InputError, match=message) as excinfo:
            load_dataset(write_lines(tmp_path / "d.jsonl", [good, bad]))
        assert excinfo.value.line_number == 2

    def test_entities_must_be_non_empty(self, tmp_path):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        bad = json.dumps({"question": "q?", "entities": [], "answers": ["a"]})
        with pytest.raises(InputError, match="line 2: .*entities must be non-empty") as excinfo:
            load_dataset(write_lines(tmp_path / "d.jsonl", [good, bad]))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize(
        "record, message",
        [({"question": "q?", "entities": ["Q1"]}, "missing field 'answers'"),
         ({"question": "q?", "answers": ["a"]}, "missing field 'entities'"),
         ({"entities": ["Q1"], "answers": ["a"]}, "missing field 'question'"),
         ([1], "a dataset record must be a JSON object, got list"),
         ("x", "a dataset record must be a JSON object, got str"),
         (None, "a dataset record must be a JSON object, got null"),
         (5, "a dataset record must be a JSON object, got int"),
         # no graph id is empty, so an empty seed could name no entity
         ({"question": "q?", "entities": [""], "answers": ["B"]},
          "entities must not hold an empty id"),
         ({"question": "q?", "entities": ["Q1", ""], "answers": ["B"]},
          "entities must not hold an empty id")],
    )
    def test_missing_field_is_error(self, tmp_path, record, message):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        path = write_lines(tmp_path / "d.jsonl", [good, json.dumps(record)])
        with pytest.raises(InputError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}: line 2: bad dataset record: {message}"

    def test_empty_answers_rejected(self, tmp_path):
        record = json.dumps({"question": "q?", "entities": ["Q1"], "answers": []})
        with pytest.raises(InputError):
            load_dataset(write_lines(tmp_path / "d.jsonl", [record]))

    @pytest.mark.parametrize("as_source", [Path, str], ids=["path", "str"])
    def test_a_line_that_is_not_utf8(self, tmp_path, as_source):
        good = json.dumps({"question": "q?", "entities": ["Q1"], "answers": ["a"]})
        path = tmp_path / "d.jsonl"
        path.write_bytes(good.encode() + b'\n{"question": "\xff"}\n')
        with pytest.raises(InputError) as excinfo:
            load_dataset(as_source(path))
        assert str(excinfo.value) == f"{path}: line 2: not valid UTF-8"
        assert excinfo.value.line_number == 2

    def test_fifty_record_round_trip(self, tmp_path):
        rng = random.Random(13)
        records = [
            DatasetRecord(
                question=f"question {i} with ünicode?",
                seed_entities=[f"Q{rng.randrange(100)}" for _ in range(rng.randrange(1, 4))],
                gold_answers=[f"answer {rng.randrange(50)}"],
            )
            for i in range(50)
        ]
        path = tmp_path / "dataset.jsonl"
        save_dataset(records, path)
        assert load_dataset(path) == records


class TestScoreHit:
    def test_exact_match(self):
        assert score_hit(["Shinjuku"], {"Shinjuku"}) == 1

    def test_empty_prediction_misses(self):
        assert score_hit([], {"Yukon"}) == 0

    def test_normalization(self):
        assert score_hit(["  YUKON "], {"Yukon"}) == 1
        assert score_hit(["two  words"], {"Two Words"}) == 1

    def test_any_match_in_lists(self):
        assert score_hit(["Canada", "Yukon"], {"Yukon"}) == 1
        assert score_hit(["Canada"], {"Yukon", "Canada"}) == 1

    def test_strict_mode(self):
        assert score_hit(["YUKON"], {"Yukon"}, mode="strict") == 0
        assert score_hit(["Yukon"], {"Yukon"}, mode="strict") == 1

    def test_duplicate_gold_entries_harmless(self):
        assert score_hit(["a"], ["a", "a", "b"]) == score_hit(["a"], ["a", "b"]) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            score_hit(["a"], ["a"], mode="fuzzy")

    def test_normalize_answer(self):
        assert normalize_answer("  Two\t Words ") == "two words"


def _merged_fixture():
    kg = make_kg(TOKYO_TRIPLES + GOETHE_TRIPLES, {**TOKYO_LABELS, **GOETHE_LABELS})
    records = [
        DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"]),
        DatasetRecord(GOETHE_QUESTION, ["Q5879"], ["Offenbach am Main"]),
        DatasetRecord("Unanswerable question?", ["Q1490"], ["nope"]),
    ]
    scripts = {
        TOKYO_QUESTION: TOKYO_SCRIPT,
        GOETHE_QUESTION: GOETHE_SCRIPT,
        "Unanswerable question?": [
            ("substring", "Candidate EntityIDs: Q1490", "Action: Answer"),
            ("substring", "reference memory", "wrong answer"),
        ],
    }
    return kg, records, scripts


def _accuracy(report) -> float:
    """The report's accuracy, once no question in it has failed."""
    assert [outcome.error for outcome in report.outcomes] == [None] * report.total
    return report.accuracy


class TestRunEval:
    def test_empty_dataset_flagged(self, tokyo_kg):
        report = run_eval([], tokyo_kg, make_providers(TOKYO_SCRIPT))
        assert report.total == 0
        assert report.accuracy == 0.0
        assert report.note == "empty dataset"

    def test_two_of_three_hit(self):
        kg, records, scripts = _merged_fixture()
        report = run_eval(records, kg, make_routed_providers(scripts))
        assert report.total == 3
        assert report.hits == 2
        assert report.accuracy == pytest.approx(2 / 3)
        assert [outcome.hit for outcome in report.outcomes] == [1, 1, 0]

    def test_accuracy_invariant_under_permutation(self):
        kg, records, scripts = _merged_fixture()
        baseline = _accuracy(run_eval(records, kg, make_routed_providers(scripts)))
        assert baseline == 2 / 3
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert _accuracy(run_eval(shuffled, kg, make_routed_providers(scripts))) == baseline

    def test_accuracy_invariant_under_workers(self):
        kg, records, scripts = _merged_fixture()
        accuracies = {
            _accuracy(run_eval(records, kg, make_routed_providers(scripts), workers=workers))
            for workers in (1, 4, 8)
        }
        assert accuracies == {2 / 3}

    def test_errors_recorded_as_misses(self, tokyo_kg):
        records = [
            DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"]),
            DatasetRecord("no script for this", ["Q1490"], ["x"]),
        ]

        providers = make_routed_providers({TOKYO_QUESTION: TOKYO_SCRIPT})
        report = run_eval(records, tokyo_kg, providers)
        assert report.hits == 1
        assert report.outcomes[1].error is not None
        assert report.outcomes[1].hit == 0

    def test_traces_and_report_persisted(self, tmp_path):
        kg, records, scripts = _merged_fixture()
        report = run_eval(records, kg, make_routed_providers(scripts), out_dir=tmp_path)
        assert (tmp_path / "report.json").exists()
        for index in range(3):
            assert (tmp_path / "traces" / f"q{index:05d}.json").exists()
        reloaded = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert reloaded["accuracy"] == report.accuracy

    def test_timing_percentiles_present(self):
        kg, records, scripts = _merged_fixture()
        report = run_eval(records, kg, make_routed_providers(scripts))
        assert {"wall_seconds", "mean", "p50", "p90", "p99", "max"} <= set(report.timing)


class TestMalformedProviderBody:
    def test_run_eval_records_error_and_writes_partial_trace(self, tokyo_kg, tmp_path):
        from kgagent.agent import Providers
        from kgagent.embedding import DeterministicEmbedder
        from kgagent.llm import HttpChatConfig, HttpChatProvider

        class EmptyBodySession:
            def __init__(self) -> None:
                self.calls = 0

            def post(self, url, json=None, headers=None, timeout=None):
                self.calls += 1

                class Response:
                    status_code = 200
                    text = "{}"

                    @staticmethod
                    def json() -> dict:
                        return {}

                return Response()

        session = EmptyBodySession()
        providers = Providers(
            llm=HttpChatProvider(
                HttpChatConfig("http://fake", "model-x", backoff=0.0), session=session
            ),
            embedder=DeterministicEmbedder(seed=7, dimension=32),
        )
        records = [DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"])]
        report = run_eval(records, tokyo_kg, providers, out_dir=tmp_path)
        outcome = report.outcomes[0]
        assert outcome.hit == 0
        assert "malformed completion body" in outcome.error
        assert session.calls == 1
        trace = json.loads((tmp_path / "traces" / "q00000.json").read_text(encoding="utf-8"))
        assert trace["question"] == TOKYO_QUESTION
        assert "malformed completion body" in trace["error"]


    def test_rejected_embedding_is_one_request_with_partial_trace(self, tokyo_kg, tmp_path):
        from kgagent.agent import Providers
        from kgagent.embedding import HttpEmbedder

        class UnauthorizedSession:
            def __init__(self) -> None:
                self.calls = 0

            def post(self, url, json=None, headers=None, timeout=None):
                self.calls += 1

                class Response:
                    status_code = 401
                    text = "invalid api key"

                return Response()

        session = UnauthorizedSession()
        providers = Providers(
            llm=make_providers(TOKYO_SCRIPT).llm,
            embedder=HttpEmbedder("http://fake", "embed-x", session=session),
        )
        records = [DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"])]
        outcome = run_eval(records, tokyo_kg, providers, out_dir=tmp_path).outcomes[0]
        assert outcome.hit == 0
        assert "embedding rejected with status 401" in outcome.error
        assert session.calls == 1
        trace = json.loads((tmp_path / "traces" / "q00000.json").read_text(encoding="utf-8"))
        assert trace["question"] == TOKYO_QUESTION
        assert "embedding rejected with status 401" in trace["error"]

class TestOutcomes:
    @pytest.mark.parametrize(
        "value, message", [(0.0, "zero-norm vector"), (float("nan"), "component beyond 2**500")]
    )
    def test_degenerate_embedding_keeps_partial_trace(self, tokyo_kg, tmp_path, value, message):
        from kgagent.agent import Providers

        providers = Providers(
            llm=make_providers(TOKYO_SCRIPT).llm, embedder=ConstantEmbedder(value)
        )
        records = [DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"])]
        outcome = run_eval(records, tokyo_kg, providers, out_dir=tmp_path).outcomes[0]
        assert (outcome.hit, outcome.answers, outcome.halted_by) == (0, [], None)
        assert message in outcome.error
        trace = json.loads((tmp_path / "traces" / "q00000.json").read_text(encoding="utf-8"))
        assert message in trace["error"]

    def test_unknown_match_mode_is_a_miss_with_its_trace(self, tokyo_kg, tmp_path):
        records = [DatasetRecord(TOKYO_QUESTION, ["Q1490"], ["Shinjuku"])]
        report = run_eval(
            records, tokyo_kg, make_providers(TOKYO_SCRIPT), out_dir=tmp_path,
            match_mode="fuzzy",
        )
        outcome = report.outcomes[0]
        assert (outcome.hit, outcome.answers, outcome.halted_by) == (0, [], None)
        assert outcome.error == "ValueError: unknown match mode 'fuzzy'"
        trace = json.loads((tmp_path / "traces" / "q00000.json").read_text(encoding="utf-8"))
        assert trace["answers"] == ["Shinjuku"]
        assert trace["halted_by"] == "answer_action"

    def test_report_bytes_pinned(self):
        report = EvalReport(
            total=2,
            hits=1,
            accuracy=0.5,
            outcomes=[
                QuestionOutcome(
                    0, "Where?", 1, ["Shinjuku"], ["shinjuku"], "answer_action", None,
                    0.1234567891,
                ),
                QuestionOutcome(1, "Who?", 0, [], ["x"], None, "LLMProviderError: down", 2.0),
            ],
            timing={"wall_seconds": 2.1234567, "p50": 0.5},
        )
        payload = report_to_json(report)
        # SHA-256 recorded from the field-by-field to_dict serialisation
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
            "554369b24975e3381764da413e9176f2483fca48bf218ec86c666a289575be0c"
        )
        assert '"elapsed": 0.123457' in payload
