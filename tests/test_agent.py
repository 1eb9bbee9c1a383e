from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, replace
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgagent import agent
from kgagent.agent import (
    AgentConfig,
    AgentError,
    AgentTrace,
    Providers,
    _label_substituter,
    render_case,
    run,
    trace_to_json,
)
from kgagent.embedding import DeterministicEmbedder
from kgagent.llm import CompletionRequest, ScriptedProvider
from kgagent.reflection import STRATEGIES, ReflectionParams

from conftest import (
    GOETHE_QUESTION,
    GOETHE_SCRIPT,
    LONDON_QUESTION,
    LONDON_SCRIPT,
    TOKYO_QUESTION,
    TOKYO_SCRIPT,
    TOKYO_TRIPLES,
    ConstantEmbedder,
    edge_set,
    make_kg,
    make_providers,
)


class TestGoetheFlow:
    def test_figure_flow_two_explorations_then_answer(self, goethe_kg):
        result = run(GOETHE_QUESTION, ["Q5879"], goethe_kg, make_providers(GOETHE_SCRIPT))
        assert result.answers == ["Offenbach am Main"]
        assert result.halted_by == "answer_action"
        actions = [record.action for record in result.trace.iterations]
        assert actions == ["GetNeighbor(Q5879)", "GetNeighbor(Q61597)", "Answer"]

    def test_memory_is_single_two_link_chain(self, goethe_kg):
        result = run(GOETHE_QUESTION, ["Q5879"], goethe_kg, make_providers(GOETHE_SCRIPT))
        final_memory = result.trace.iterations[-1].memory_snapshot
        assert final_memory == [
            [("Q5879", "P451", "Q61597"), ("Q61597", "P19", "Q3042")]
        ]

    def test_entity_handoff_follows_reflection(self, goethe_kg):
        result = run(GOETHE_QUESTION, ["Q5879"], goethe_kg, make_providers(GOETHE_SCRIPT))
        records = result.trace.iterations
        assert records[0].entities == ["Q5879"]
        assert records[1].entities == ["Q61597"]  # tail of the reflected triple
        assert records[2].entities == ["Q3042"]


class TestTokyoFlow:
    def test_answer_and_memory(self, tokyo_kg):
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        assert result.answers == ["Shinjuku"]
        assert result.halted_by == "answer_action"
        memory_triples = [
            triple
            for path in result.trace.iterations[-1].memory_snapshot
            for triple in path
        ]
        assert memory_triples == [
            ("Q1490", "P31", "Q50337"),
            ("Q1490", "P36", "Q192724"),
            ("Q1490", "P36", "Q17"),
        ]

    def test_render_case_contains_action_and_answer(self, tokyo_kg):
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        text = render_case(result.trace, tokyo_kg)
        assert "GetNeighbor" in text
        assert "Shinjuku" in text
        assert "Q1490" not in text  # ids are replaced by labels

    def test_render_case_deterministic(self, tokyo_kg):
        first = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        second = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        assert render_case(first.trace, tokyo_kg) == render_case(second.trace, tokyo_kg)


class TestLondonFlow:
    def test_answers_contain_yukon(self, london_kg):
        result = run(
            LONDON_QUESTION, ["Q1164538", "Q208143"], london_kg, make_providers(LONDON_SCRIPT)
        )
        assert result.halted_by == "answer_action"
        assert "Yukon" in result.answers
        assert result.answers == ["Canada", "Yukon"]


class TestPathDiscoveryFlow:
    def test_get_path_outcome_feeds_reflection_and_memory(self):
        kg = make_kg([("A", "r", "B"), ("B", "s", "C"), ("A", "t", "Z")])
        script = [
            ("substring", "Candidate EntityIDs: A, C", "Action: GetPath\nEntity_id: A, C"),
            ("substring", "select related triples", "A,r,B\nB,s,C"),
            ("substring", "Candidate EntityIDs: B, C", "Action: Answer"),
            ("substring", "reference memory", "C"),
        ]
        result = run("how do A and C connect?", ["A", "C"], kg, make_providers(script))
        record = result.trace.iterations[0]
        assert record.action == "GetPath(A, C)"
        assert record.outcome_count == 2  # the A->B->C chain, deduplicated
        assert record.memory_snapshot == [[("A", "r", "B"), ("B", "s", "C")]]
        assert result.answers == ["C"]


RING_SCRIPT = [
    ("substring", "Candidate EntityIDs: A", "Action: GetNeighbor\nEntity_id: A"),
    ("substring", "Candidate EntityIDs: B", "Action: GetNeighbor\nEntity_id: B"),
    ("substring", "Candidate EntityIDs: C", "Action: GetNeighbor\nEntity_id: C"),
    ("substring", "(A, r, B) from last action step", "A,r,B"),
    ("substring", "(B, r, C) from last action step", "B,r,C"),
    ("substring", "(C, r, A) from last action step", "C,r,A"),
    ("substring", "reference memory", "no answer"),
]


class TestIterationCap:
    def test_always_get_neighbor_halts_at_cap(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")])
        providers = make_providers(RING_SCRIPT, sequential=False)
        result = run("loop forever", ["A"], kg, providers)
        assert result.halted_by == "iteration_cap"
        assert len(result.trace.iterations) == 8
        assert result.trace.answer_prompt is not None  # forced answer fired
        memory = result.trace.iterations[-1].memory_snapshot
        assert sum(len(path) for path in memory) <= 8 * 15

    def test_iteration_indices_contiguous(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")])
        result = run("loop", ["A"], kg, make_providers(RING_SCRIPT, sequential=False))
        assert [record.index for record in result.trace.iterations] == list(range(1, 9))


GENERATED_FACT_SCRIPT = [
    ("substring", "Candidate EntityIDs: Q1490", "Action: GetNeighbor\nEntity_id: Q1490"),
    ("substring", "factual statements", "Tokyo is the capital of Japan"),
    ("substring", "Candidate EntityIDs: Q1490", "Action: Answer"),
    ("substring", "reference memory", "Tokyo"),
]


# explores Tokyo once, then answers: for strategies that reflect without the model
EXPLORE_THEN_ANSWER_SCRIPT = [
    ("substring", "Candidate EntityIDs: Q1490", "Action: GetNeighbor\nEntity_id: Q1490"),
    ("substring", "Candidate EntityIDs:", "Action: Answer"),
    ("substring", "reference memory", "Shinjuku"),
]


class TestStrategies:
    def test_no_observation_skips_observe(self, tokyo_kg):
        script = [
            ("substring", "Candidate EntityIDs: Q1490",
             "Action: GetNeighbor\nEntity_id: Q1490"),
            ("substring", "select related triples", "Q1490,P36,Q192724"),
            ("substring", "Candidate EntityIDs: Q192724", "Action: Answer"),
            ("substring", "reference memory", "Shinjuku"),
        ]
        config = AgentConfig(reflection=ReflectionParams(strategy="no_observation"))
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(script), config)
        assert result.answers == ["Shinjuku"]
        for record in result.trace.iterations:
            assert record.observation == []
            assert "Observation:" not in record.action_prompt
        assert "observation" not in (result.trace.iterations[0].reflection_prompt or "").casefold()

    def test_similarity_strategy_reflects_without_llm(self, tokyo_kg):
        config = AgentConfig(reflection=ReflectionParams(strategy="similarity"))
        providers = make_providers(EXPLORE_THEN_ANSWER_SCRIPT)
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers, config)
        record = result.trace.iterations[0]
        assert record.reflection_prompt is None
        assert set(record.reflected) == set(tokyo_kg.get_neighbors("Q1490"))

    def test_random_strategy_is_seed_deterministic(self, tokyo_kg):
        config = AgentConfig(
            reflection=ReflectionParams(strategy="random"), random_seed=5
        )
        script = EXPLORE_THEN_ANSWER_SCRIPT
        first = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(script), config)
        second = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(script), config)
        assert first.trace.iterations[0].reflected == second.trace.iterations[0].reflected

    def test_random_strategy_draws_from_seed_zero_by_default(self, tokyo_kg):
        config = AgentConfig(reflection=ReflectionParams(strategy="random"))
        providers = make_providers(EXPLORE_THEN_ANSWER_SCRIPT)
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers, config)
        outcome = tokyo_kg.get_neighbors("Q1490")
        assert result.trace.iterations[0].reflected == Random(0).sample(outcome, len(outcome))

    def test_generated_fact_keeps_entities_and_collects_facts(self, tokyo_kg):
        config = AgentConfig(reflection=ReflectionParams(strategy="generated_fact"))
        providers = make_providers(GENERATED_FACT_SCRIPT)
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers, config)
        records = result.trace.iterations
        assert records[0].facts == ["Tokyo is the capital of Japan"]
        assert records[1].entities == ["Q1490"]  # unchanged: facts have no tails
        assert records[0].memory_snapshot == []  # free text never enters path memory
        assert "Tokyo is the capital of Japan" in result.trace.answer_prompt


class TestNextEntities:
    def test_kept_tails_deduplicated_in_first_seen_order(self):
        kg = make_kg([
            ("S", "e", "A"), ("S", "e", "B"), ("S", "e", "C"),
            ("A", "r", "X"), ("B", "r", "X"), ("C", "r", "Y"),
            ("X", "e", "G"), ("Y", "e", "G"),
        ])
        script = [
            ("substring", "Candidate EntityIDs: S, G", "Action: GetPath\nEntity_id: S, G"),
            ("substring", "select related triples", "A,r,X\nB,r,X\nC,r,Y"),
            ("substring", "Candidate EntityIDs: X, Y", "Action: Answer"),
            ("substring", "reference memory", "G"),
        ]
        result = run("how does S reach G?", ["S", "G"], kg, make_providers(script))
        records = result.trace.iterations
        assert records[0].reflected == [
            ("A", "r", "X"), ("B", "r", "X"), ("C", "r", "Y")
        ]
        assert records[1].entities == ["X", "Y"]


class TestEmptyReflection:
    def test_keeps_previous_entities(self, tokyo_kg):
        script = [
            ("substring", "Candidate EntityIDs: Q1490",
             "Action: GetNeighbor\nEntity_id: Q1490"),
            ("substring", "select related triples", "no valid triples here"),
            ("substring", "Candidate EntityIDs: Q1490", "Action: Answer"),
            ("substring", "reference memory", "Shinjuku"),
        ]
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(script))
        records = result.trace.iterations
        assert records[0].reflected == []
        assert records[1].entities == ["Q1490"]


class TestErrors:
    def test_provider_error_carries_partial_trace(self, tokyo_kg):
        providers = Providers(
            llm=ScriptedProvider([]),  # exhausted immediately
            embedder=DeterministicEmbedder(seed=7, dimension=32),
        )
        with pytest.raises(AgentError) as excinfo:
            run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers)
        assert excinfo.value.trace.error is not None
        assert excinfo.value.trace.question == TOKYO_QUESTION

    def test_requires_seed_entities(self, tokyo_kg):
        with pytest.raises(ValueError):
            run(TOKYO_QUESTION, [], tokyo_kg, make_providers(TOKYO_SCRIPT))

    def test_timeout_raises_agent_error(self, tokyo_kg):
        config = AgentConfig(question_timeout=0.0000001)
        import time

        time.sleep(0.001)
        with pytest.raises(AgentError, match="timed out"):
            run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT), config)

    def test_a_zero_timeout_sets_no_deadline(self, tokyo_kg, monkeypatch):
        clock = iter(range(0, 10**9, 1000))  # each reading 1000 s after the last
        monkeypatch.setattr(agent, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        config = AgentConfig(question_timeout=0)
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT), config)
        assert result.answers == ["Shinjuku"]

    def test_a_timed_out_question_says_why_in_its_trace(self, tokyo_kg, monkeypatch):
        clock = iter([0, 0, 1000])  # the default 300 s deadline passes after iteration 1
        monkeypatch.setattr(agent, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        with pytest.raises(AgentError) as excinfo:
            run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        trace = excinfo.value.trace
        assert str(excinfo.value) == trace.error == "question timed out after 300s"
        assert (len(trace.iterations), trace.halted_by) == (1, None)
        assert render_case(trace, tokyo_kg).endswith("\nError: question timed out after 300s\n")


class TestTraceAndConfig:
    def test_trace_json_stable_across_runs(self, tokyo_kg):
        first = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        second = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        assert trace_to_json(first.trace) == trace_to_json(second.trace)

    def test_render_case_empty_trace(self, tokyo_kg):
        assert render_case(AgentTrace(question="", seed_entities=[]), tokyo_kg) == ""

    @pytest.mark.parametrize(
        "name, minimum",
        [("max_iterations", 1), ("path_max_len", 1), ("max_tokens", 1),
         ("action_retries", 0), ("neighbor_limit", 0)],
    )
    def test_a_count_at_its_minimum_builds(self, name, minimum):
        assert getattr(AgentConfig(**{name: minimum}), name) == minimum

    def test_config_round_trip(self):
        config = AgentConfig(max_iterations=4, random_seed=9)
        assert AgentConfig.from_dict(asdict(config)) == config

    def test_defaults_pinned(self):
        config = AgentConfig()
        assert config.max_iterations == 8
        assert config.observation.depth_limit == 3
        assert config.observation.top_n == 50
        assert config.observation.refine_percent == 10.0
        assert config.reflection.k_max == 15
        assert config.path_max_len == 3
        assert config.temperature == 0.4
        assert config.max_tokens == 500

    def test_the_readme_config_block_is_the_default_config(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```json\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        assert AgentConfig.from_dict(json.loads(block)) == AgentConfig()


class RecordingProvider:
    """Answers from a script and records each request's step and sampling settings."""

    STEPS = {
        "Action History": "action",
        "You queried some candidate triples": "reflection",
        "factual statements": "facts",
        "reference memory": "answer",
    }

    def __init__(self, script: list[tuple[str, str, str]]) -> None:
        self.script = make_providers(script).llm
        self.requests: list[tuple[str, float, int]] = []

    def complete(self, request: CompletionRequest) -> str:
        (step,) = [name for marker, name in self.STEPS.items() if marker in request.text()]
        self.requests.append((step, request.temperature, request.max_tokens))
        return self.script.complete(request)


class TestSamplingSettings:
    """run sends its config's temperature and max_tokens on every model request."""

    @pytest.mark.parametrize(
        "strategy, script, steps",
        [
            ("oda", TOKYO_SCRIPT, {"action", "reflection", "answer"}),
            ("generated_fact", GENERATED_FACT_SCRIPT, {"action", "facts", "answer"}),
        ],
    )
    @pytest.mark.parametrize(
        "config, expected",
        [
            (AgentConfig(temperature=0.7, max_tokens=32), (0.7, 32)),
            (AgentConfig(), (0.4, 500)),
        ],
    )
    def test_every_request_carries_the_config(
        self, tokyo_kg, strategy, script, steps, config, expected
    ):
        provider = RecordingProvider(script)
        config = replace(config, reflection=ReflectionParams(strategy=strategy))
        providers = Providers(llm=provider, embedder=DeterministicEmbedder(seed=7, dimension=32))
        run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers, config)
        assert {step for step, _, _ in provider.requests} == steps
        assert {(t, m) for _, t, m in provider.requests} == {expected}


class CountingEmbedder(DeterministicEmbedder):
    """Records every text the agent asks to embed."""

    def __init__(self) -> None:
        super().__init__(seed=7, dimension=32)
        self.calls: list[str] = []

    def embed(self, text: str):
        self.calls.append(text)
        return super().embed(text)


class TestEmbeddingCalls:
    """Without a cache, a run embeds the question and each distinct text once."""

    SIMILARITY_SCRIPT = [
        ("substring", "Candidate EntityIDs: Q1490", "Action: GetNeighbor\nEntity_id: Q1490"),
        ("substring", "Candidate EntityIDs:", "Action: Answer"),
        ("substring", "reference memory", "Shinjuku"),
    ]

    @staticmethod
    def _run(kg, script, strategy):
        from conftest import make_script_provider

        embedder = CountingEmbedder()
        providers = Providers(
            llm=make_script_provider(script, sequential=strategy != "similarity"),
            embedder=embedder,
        )
        config = AgentConfig(reflection=ReflectionParams(strategy=strategy))
        result = run(TOKYO_QUESTION, ["Q1490"], kg, providers, config)
        return result, embedder.calls

    @staticmethod
    def _texts(kg, triples):
        return {f"{kg.label_of(t[1])} {kg.label_of(t[2])}" for t in triples}

    @pytest.mark.parametrize("strategy", ["oda", "similarity"])
    def test_one_call_per_distinct_text(self, tokyo_kg, strategy):
        script = TOKYO_SCRIPT if strategy == "oda" else self.SIMILARITY_SCRIPT
        result, calls = self._run(tokyo_kg, script, strategy)
        assert len(result.trace.iterations) == 2  # observe runs twice
        assert calls[0] == TOKYO_QUESTION
        assert len(calls) == len(set(calls))
        # the walk from Q1490 reaches every triple of the fixture graph
        assert set(calls[1:]) == self._texts(tokyo_kg, edge_set(tokyo_kg))

    def test_no_observation_never_embeds(self, tokyo_kg):
        script = [
            ("substring", "Candidate EntityIDs: Q1490", "Action: GetNeighbor\nEntity_id: Q1490"),
            ("substring", "select related triples", "Q1490,P36,Q192724"),
            ("substring", "Candidate EntityIDs: Q192724", "Action: Answer"),
            ("substring", "reference memory", "Shinjuku"),
        ]
        result, calls = self._run(tokyo_kg, script, "no_observation")
        assert result.answers == ["Shinjuku"]
        assert calls == []


class CountingEmbeddingSession:
    """/embeddings server backed by a DeterministicEmbedder; counts requests
    and texts."""

    def __init__(self) -> None:
        self.embedder = DeterministicEmbedder(seed=7, dimension=32)
        self.inputs: list[str] = []
        self.requests = 0

    def post(self, url, json=None, headers=None, timeout=None):
        batch = json["input"]
        self.requests += 1
        self.inputs += batch
        data = [
            {"index": i, "embedding": list(self.embedder.embed(text))}
            for i, text in enumerate(batch)
        ]

        class Response:
            status_code = 200

            @staticmethod
            def json():
                return {"data": data}

        return Response()


class TestHttpEmbedderRun:
    """Over HttpEmbedder, a run makes at most one request per scoring call
    and gives the trace bytes of the DeterministicEmbedder run."""

    @pytest.mark.parametrize("strategy", ["oda", "similarity"])
    def test_same_trace_bytes_one_request_per_scoring_call(
        self, tokyo_kg, monkeypatch, strategy
    ):
        from kgagent.embedding import EmbeddingCache, HttpEmbedder, QuestionScorer

        script = TOKYO_SCRIPT if strategy == "oda" else TestEmbeddingCalls.SIMILARITY_SCRIPT
        config = AgentConfig(reflection=ReflectionParams(strategy=strategy))
        embedder = CountingEmbedder()  # the session's vectors, one text per call
        local = Providers(
            llm=make_providers(script, sequential=strategy != "similarity").llm,
            embedder=embedder,
        )
        expected = trace_to_json(run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, local, config).trace)

        scoring_calls = []
        score_many = QuestionScorer.score_many

        def counted(self, texts):
            scoring_calls.append(len(texts))
            return score_many(self, texts)

        monkeypatch.setattr(QuestionScorer, "score_many", counted)
        session = CountingEmbeddingSession()
        remote = Providers(
            llm=make_providers(script, sequential=strategy != "similarity").llm,
            embedder=HttpEmbedder("http://fake", "embed-x", session=session),
            cache=EmbeddingCache(),
        )
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, remote, config)
        assert trace_to_json(result.trace) == expected
        # one request for the question, then at most one per score_many call
        assert 1 < session.requests <= 1 + len(scoring_calls)
        assert session.requests < len(session.inputs)
        assert session.inputs == embedder.calls  # each distinct text once, same order


def _regex_substitute_labels(text: str, labels: dict[str, str]) -> str:
    """The former rendering: one alternation over all ids, longest first."""
    if not labels:
        return text
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(i) for i in sorted(labels, key=len, reverse=True)) + r")\b"
    )
    return pattern.sub(lambda match: labels[match.group(1)], text)


# Ids as the loaders accept them (non-empty, no tab or newline): Freebase-style
# mids, prefixes of one another, punctuation at either edge, non-ASCII letters
# and digits.
SPECIAL_IDS = ["m.0abc", "m.0ab", "Q1", "Q10", "Q1490", "P31", "(Q1", "Q1)", ".x", "x.",
               "-", "é", "Ωμ", "٣٤", "Q٣", "a b", "_", "m.0abc."]
_ID_CHARS = st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",))
_IDS = st.sets(
    st.one_of(st.sampled_from(SPECIAL_IDS), st.text(_ID_CHARS, min_size=1, max_size=6)),
    max_size=10,
)
_FILLER = st.text(st.sampled_from(" ,.()-_:é٣Qm0abc1"), max_size=4)


class TestLabelSubstitution:
    @settings(max_examples=400, deadline=None)
    @given(ids=_IDS, data=st.data())
    def test_equals_the_regex_alternation(self, ids, data):
        labels = {identifier: f"<{n}>" for n, identifier in enumerate(sorted(ids))}
        pool = sorted(ids) + SPECIAL_IDS
        pieces = data.draw(st.lists(st.one_of(st.sampled_from(pool), _FILLER), max_size=12))
        text = "".join(pieces)
        assert _label_substituter(labels)(text) == _regex_substitute_labels(text, labels)

    def test_longest_id_and_word_bounds(self):
        labels = {"Q1": "one", "Q10": "ten", "m.0abc": "Mid", "m.0": "short"}
        substitute = _label_substituter(labels)
        assert substitute("Q10 Q1 Q100 m.0abc m.0abcd") == "ten one Q100 Mid m.0abcd"
        assert substitute("Q1,Q10.m.0abc") == "one,ten.Mid"

    def test_empty_label_map_returns_text_unchanged(self, tokyo_kg):
        text = "Action: GetNeighbor\nEntity_id: Q1490, m.0abc"
        assert _label_substituter({})(text) == text
        result = run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        rendered = render_case(result.trace, make_kg(TOKYO_TRIPLES, {}))
        assert "Executed: GetNeighbor(Q1490)" in rendered
        assert result.trace.iterations[0].action_response in rendered

    @pytest.mark.parametrize(
        "kg_fixture, question, seeds, script",
        [
            ("tokyo_kg", TOKYO_QUESTION, ["Q1490"], TOKYO_SCRIPT),
            ("goethe_kg", GOETHE_QUESTION, ["Q5879"], GOETHE_SCRIPT),
            ("london_kg", LONDON_QUESTION, ["Q1164538", "Q208143"], LONDON_SCRIPT),
        ],
    )
    def test_render_case_equals_the_regex_rendering(
        self, request, monkeypatch, kg_fixture, question, seeds, script
    ):
        kg = request.getfixturevalue(kg_fixture)
        result = run(question, seeds, kg, make_providers(script))
        rendered = render_case(result.trace, kg)
        monkeypatch.setattr(
            agent, "_label_substituter",
            lambda labels: lambda text: _regex_substitute_labels(text, labels),
        )
        assert rendered == render_case(result.trace, kg)


class TestPartialTraces:
    """A failed step leaves the trace as it stood before that step."""

    @staticmethod
    def _failed_run(question, seeds, kg, providers) -> AgentTrace:
        with pytest.raises(AgentError) as excinfo:
            run(question, seeds, kg, providers)
        trace = excinfo.value.trace
        assert trace.error == str(excinfo.value)
        return trace

    @staticmethod
    def _assert_unanswered(trace: AgentTrace) -> None:
        assert trace.answer_prompt is None
        assert trace.answer_response is None
        assert trace.answers == []
        assert trace.halted_by is None

    def test_failed_answer_after_answer_action_keeps_every_iteration(self, tokyo_kg):
        providers = make_providers(TOKYO_SCRIPT[:-1])  # no answer entry
        trace = self._failed_run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers)
        assert [record.action for record in trace.iterations] == [
            "GetNeighbor(Q1490)", "Answer",
        ]
        assert trace.iterations[-1].memory_snapshot != []
        self._assert_unanswered(trace)

    def test_render_case_of_a_failed_run_shows_its_iterations_and_error(self, tokyo_kg):
        providers = make_providers(TOKYO_SCRIPT[:-1])  # no answer entry
        trace = self._failed_run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers)
        lines = render_case(trace, tokyo_kg).splitlines()
        assert [line for line in lines if line.startswith("--- Iteration")] == [
            "--- Iteration 1 ---", "--- Iteration 2 ---",
        ]
        assert lines[-1] == f"Error: {trace.error}"
        assert not any(line.startswith("Answer:") for line in lines)

    def test_failed_answer_at_iteration_cap_keeps_every_iteration(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")])
        providers = make_providers(RING_SCRIPT[:-1], sequential=False)
        trace = self._failed_run("loop", ["A"], kg, providers)
        assert [record.index for record in trace.iterations] == list(range(1, 9))
        self._assert_unanswered(trace)

    def test_failed_reflection_omits_its_iteration(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")])
        script = [RING_SCRIPT[0], RING_SCRIPT[1], RING_SCRIPT[3]]  # no reflection on B
        trace = self._failed_run("loop", ["A"], kg, make_providers(script, sequential=False))
        assert [record.action for record in trace.iterations] == ["GetNeighbor(A)"]
        assert trace.iterations[0].reflected == [("A", "r", "B")]
        assert "no script entry matches" in trace.error
        self._assert_unanswered(trace)

    @pytest.mark.parametrize(
        "value, message", [(0.0, "zero-norm vector"), (float("nan"), "component beyond 2**500")]
    )
    def test_degenerate_embedding_is_agent_error(self, tokyo_kg, value, message):
        providers = Providers(
            llm=make_providers(TOKYO_SCRIPT).llm, embedder=ConstantEmbedder(value)
        )
        trace = self._failed_run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers)
        assert message in trace.error
        assert trace.iterations == []

    @pytest.mark.parametrize(
        "question_vector, text_vector",
        [([1e200, 1e200], [1e200, -1e200]), ([1e200, 1e200], [1e200, 1e200]),
         ([1.0, 0.0], [1e200, -1e200])],
        ids=["opposite-signs", "same-signs", "text-only"],
    )
    def test_an_embedding_too_large_to_score_is_agent_error(
        self, tokyo_kg, question_vector, text_vector
    ):
        """Scored unchecked, these replies would make fsum meet inf - inf or
        give a NaN score."""
        from kgagent.embedding import HttpEmbedder

        class Session:
            def post(self, url, json=None, headers=None, timeout=None):
                data = [
                    {"index": i, "embedding": question_vector if text == TOKYO_QUESTION
                     else text_vector}
                    for i, text in enumerate(json["input"])
                ]

                class Response:
                    status_code = 200

                    @staticmethod
                    def json():
                        return {"data": data}

                return Response()

        embedder = HttpEmbedder("http://fake", "embed-x", session=Session())
        providers = Providers(llm=make_providers(TOKYO_SCRIPT).llm, embedder=embedder)
        trace = self._failed_run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, providers)
        assert "component beyond 2**500" in trace.error
        assert trace.iterations == []


PINNED_TRIPLES = [
    ("A", "r", "B"), ("A", "t", "D"), ("B", "s", "C"), ("C", "u", "E"), ("D", "v", "C"),
]
PINNED_LABELS = {"A": "Alpha", "B": "Beta", "C": "Gamma", "D": "Delta", "r": "rel r"}
# first matching entry answers; E has no out-edges, so GetNeighbor(E) yields nothing
PINNED_SCRIPT = [
    ("substring", "select related triples", "A,r,B\nB,s,C\nC,u,E"),
    ("substring", "factual statements", "A is linked to B\nB is linked to C"),
    ("substring", "reference memory", "Gamma"),
    ("substring", "Candidate EntityIDs: A", "Action: GetNeighbor\nEntity_id: A"),
    ("substring", "Candidate EntityIDs: B", "Action: GetNeighbor\nEntity_id: B"),
    ("substring", "Candidate EntityIDs: C", "Action: GetNeighbor\nEntity_id: C"),
    ("substring", "Candidate EntityIDs: E", "Action: GetNeighbor\nEntity_id: E"),
    ("substring", "Candidate EntityIDs:", "Action: Answer"),
]
# SHA-256 of trace_to_json, recorded before run() was restructured
PINNED_TRACE_DIGESTS = {
    "oda": "f5f8bfb32421d666b50df4b9c8a2c796a91fe91c5c8c12dc0d815686522183dd",
    "similarity": "a32dad3d7cfd5b32e18e7cbf9c524239531996034dc877a4454e8df559d1a120",
    "random": "a42898a1304d25327c68b079649187bcd004eb3cd42bb9a07a471546521049fb",
    "generated_fact": "dd2166668c627e4796136cac09db02121ef0af319686f8022a92147f5f319e26",
    "no_observation": "cc9c21c2194c00a2cc5ec2f8845e6db0bc0711b6887173c4b427b273b9c1a6d5",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trace_bytes_pinned_per_strategy(strategy):
    config = AgentConfig(
        max_iterations=5, reflection=ReflectionParams(strategy=strategy), random_seed=5
    )
    result = run(
        "Which entity does Alpha reach in two hops?", ["A"],
        make_kg(PINNED_TRIPLES, PINNED_LABELS),
        make_providers(PINNED_SCRIPT, sequential=False), config,
    )
    digest = hashlib.sha256(trace_to_json(result.trace).encode("utf-8")).hexdigest()
    assert digest == PINNED_TRACE_DIGESTS[strategy]
