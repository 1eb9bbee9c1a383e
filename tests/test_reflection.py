from __future__ import annotations

import random

import pytest

from kgagent.action import NeighborExploration, execute_action
from kgagent.embedding import EmbeddingCache, QuestionScorer, cosine
from kgagent.kg import Triple
from kgagent.llm import ScriptedProvider, ScriptEntry
from kgagent.memory import Memory
from kgagent.observation import ObservationParams, ObservationSubgraph, observe
from kgagent.reflection import (
    ReflectionParams,
    build_reflection_prompt,
    parse_reflected,
    reflect_generated_fact,
    reflect_random,
    reflect_similarity,
)

from conftest import TOKYO_QUESTION, complete_with, edge_set, make_kg, random_kg
from test_observation import RecordingEmbedder

TOKYO_CANDIDATES = [
    ("Q1490", "P31", "Q50337"),
    ("Q1490", "P36", "Q192724"),
    ("Q1490", "P36", "Q17"),
]


class TestBuildReflectionPrompt:
    def test_tokyo_candidates_rendered_with_labels(self, tokyo_kg, embedder):
        scorer = QuestionScorer(TOKYO_QUESTION, embedder, EmbeddingCache())
        observation = observe(tokyo_kg, scorer, ["Q1490"], ObservationParams(), None)
        prompt = build_reflection_prompt(
            TOKYO_QUESTION, TOKYO_CANDIDATES, tokyo_kg, observation, Memory(), k_max=15
        )
        assert "(Tokyo, capital, Shinjuku)" in prompt
        assert "Q192724: Shinjuku" in prompt
        assert "entityID,relationID,entityID" in prompt
        assert "You can select less than 15 triples" in prompt

    def test_empty_observation_omits_slot_entirely(self, tokyo_kg):
        prompt = build_reflection_prompt(
            TOKYO_QUESTION, TOKYO_CANDIDATES, tokyo_kg, ObservationSubgraph(), Memory(),
            k_max=15,
        )
        assert "observation" not in prompt.casefold()

    def test_slot_names_in_values_render_verbatim(self):
        kg = make_kg([("A", "r", "B")], labels={"B": "see [Question] here"})
        memory = Memory(facts=["a fact"])
        prompt = build_reflection_prompt(
            "Where is [Memory]?", [("A", "r", "B")], kg, ObservationSubgraph(), memory, k_max=15
        )
        assert "triples (A, r, see [Question] here) from" in prompt
        assert "labels: A: A, r: r, B: see [Question] here from" in prompt
        assert "question: Where is [Memory]?." in prompt
        assert "memory: a fact." in prompt

    def test_requires_candidates(self, tokyo_kg):
        with pytest.raises(ValueError):
            build_reflection_prompt(
                TOKYO_QUESTION, [], tokyo_kg, ObservationSubgraph(), Memory(), k_max=15
            )

    def test_golden_render(self, tokyo_kg, embedder, datadir):
        scorer = QuestionScorer(TOKYO_QUESTION, embedder, EmbeddingCache())
        observation = observe(tokyo_kg, scorer, ["Q1490"], ObservationParams(), None)
        prompt = build_reflection_prompt(
            TOKYO_QUESTION, TOKYO_CANDIDATES, tokyo_kg, observation, Memory(), k_max=15
        )
        golden = (datadir / "golden" / "reflection_prompt_tokyo.txt").read_text(
            encoding="utf-8"
        )
        assert prompt == golden


class TestParseReflected:
    def test_candidate_triads_kept_in_order(self):
        params = ReflectionParams()
        response = "Q1490,P31,Q50337\nQ1490,P36,Q192724"
        result = parse_reflected(response, TOKYO_CANDIDATES, params)
        assert result == [TOKYO_CANDIDATES[0], TOKYO_CANDIDATES[1]]

    def test_hallucinated_triple_dropped(self):
        response = "Q1490,P31,Q50337\nQ9999,P1,Q8888"
        result = parse_reflected(response, TOKYO_CANDIDATES, ReflectionParams())
        assert result == [TOKYO_CANDIDATES[0]]

    def test_truncation_to_k_max(self):
        candidates = [(f"Q{i}", "P1", f"Q{i + 100}") for i in range(20)]
        response = "\n".join(f"Q{i},P1,Q{i + 100}" for i in range(20))
        result = parse_reflected(response, candidates, ReflectionParams(k_max=15))
        assert len(result) == 15
        assert result == candidates[:15]

    def test_kept_triples_are_plain_tuples_like_the_graph_s_edges(self):
        # memory then holds one kind of triple whatever kind the candidates are
        result = parse_reflected("Q1490,P31,Q50337", TOKYO_CANDIDATES, ReflectionParams())
        assert result == [TOKYO_CANDIDATES[0]]
        assert [type(triple) for triple in result] == [tuple]

    def test_parenthesized_tuples(self):
        response = "Triples: (Q1490, P31, Q50337), (Q1490, P36, Q192724)"
        result = parse_reflected(response, TOKYO_CANDIDATES, ReflectionParams())
        assert len(result) == 2

    def test_zero_valid_triples_is_empty_signal(self):
        result = parse_reflected("nothing useful", TOKYO_CANDIDATES, ReflectionParams())
        assert result == []

    def test_repeats_keep_first_position(self):
        response = "Q1490,P36,Q17\nQ1490,P31,Q50337\nQ1490,P36,Q17"
        result = parse_reflected(response, TOKYO_CANDIDATES, ReflectionParams())
        assert result == [TOKYO_CANDIDATES[2], TOKYO_CANDIDATES[0]]

    def test_each_dropped_triad_is_logged(self, caplog):
        response = "Q9999,P1,Q8888\nQ1490,P31,Q50337\nQ1490,P31,Q50337\nQ9999,P1,Q8888"
        with caplog.at_level("INFO", logger="kgagent.reflection"):
            result = parse_reflected(response, TOKYO_CANDIDATES, ReflectionParams())
        assert result == [TOKYO_CANDIDATES[0]]
        assert caplog.messages == [
            "dropping reflected triple not in candidates: Q9999\tP1\tQ8888"
        ] * 2


class TestReflectSimilarity:
    def test_under_cap_keeps_all_sorted(self, tokyo_kg, embedder):
        scorer = QuestionScorer(TOKYO_QUESTION, embedder, EmbeddingCache())
        result = reflect_similarity(TOKYO_CANDIDATES, tokyo_kg, ReflectionParams(), scorer)
        assert set(result) == set(TOKYO_CANDIDATES)
        question_vector = embedder.embed(TOKYO_QUESTION)

        def score(t: Triple) -> float:
            return cosine(
                question_vector,
                embedder.embed(f"{tokyo_kg.label_of(t[1])} {tokyo_kg.label_of(t[2])}"),
            )

        scores = [score(t) for t in result]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_oracle(self, embedder):
        rng = random.Random(101)
        kg = random_kg(rng, n_entities=12, n_triples=80)
        candidates = sorted(edge_set(kg))[:40]
        rng.shuffle(candidates)
        params = ReflectionParams(k_max=15)
        result = reflect_similarity(
            candidates, kg, params, QuestionScorer("some question", embedder, EmbeddingCache())
        )
        question_vector = embedder.embed("some question")
        expected = sorted(
            candidates,
            key=lambda t: (
                -cosine(question_vector, embedder.embed(f"{t[1]} {t[2]}")),
                t,
            ),
        )[:15]
        assert result == expected

    def test_equal_scores_break_lexicographically(self, embedder):
        # identical relation+tail text means identical score
        candidates = [("B", "P1", "X"), ("A", "P1", "X")]
        scorer = QuestionScorer("q", embedder, EmbeddingCache())
        result = reflect_similarity(candidates, make_kg([]), ReflectionParams(), scorer)
        assert result == [("A", "P1", "X"), ("B", "P1", "X")]

    @pytest.mark.parametrize("neighbor_limit", [None, 4])
    def test_a_get_neighbor_outcome_keeps_observations_ranking(self, embedder, neighbor_limit):
        rng = random.Random(107)
        kg = random_kg(rng, n_entities=15, n_triples=120)
        scorer = QuestionScorer("one ranking", embedder, EmbeddingCache())
        params = ObservationParams(depth_limit=3, top_n=6, refine_percent=50.0)
        observe(kg, scorer, ["Q0", "Q1"], params, neighbor_limit)
        assert len(scorer.ranked) > 2
        for entity, ranking in scorer.ranked.items():
            outcome = execute_action(
                kg, NeighborExploration(entity), path_max_len=3, neighbor_limit=neighbor_limit
            )
            kept = reflect_similarity(outcome, kg, ReflectionParams(k_max=3), scorer)
            assert kept == [triple for _, triple in ranking[:3]]

    def test_empty_candidates(self, embedder):
        scorer = QuestionScorer("q", embedder, EmbeddingCache())
        result = reflect_similarity([], make_kg([]), ReflectionParams(), scorer)
        assert result == []

    def test_empty_candidates_send_no_text(self):
        provider = RecordingEmbedder()
        scorer = QuestionScorer("q", provider, EmbeddingCache())
        result = reflect_similarity([], make_kg([]), ReflectionParams(), scorer)
        assert result == []
        assert provider.requests == []  # not even the question


class TestReflectRandom:
    def test_under_cap_keeps_all(self):
        candidates = [(f"Q{i}", "P", "T") for i in range(5)]
        result = reflect_random(candidates, ReflectionParams(k_max=15), random.Random(3))
        assert set(result) == set(candidates)

    def test_fixed_seed_reproducible(self):
        candidates = [(f"Q{i}", "P", f"T{i}") for i in range(30)]
        first = reflect_random(candidates, ReflectionParams(k_max=10), random.Random(12))
        second = reflect_random(candidates, ReflectionParams(k_max=10), random.Random(12))
        assert first == second

    def test_sample_without_replacement(self):
        candidates = [(f"Q{i}", "P", f"T{i}") for i in range(30)]
        result = reflect_random(candidates, ReflectionParams(k_max=10), random.Random(5))
        assert len(result) == 10
        assert len(set(result)) == 10


class TestReflectGeneratedFact:
    def test_fact_stored_verbatim(self):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "factual statements", "Tokyo is the capital of Japan")]
        )
        facts = reflect_generated_fact(TOKYO_QUESTION, ReflectionParams(), complete_with(provider))
        assert facts == ["Tokyo is the capital of Japan"]

    def test_empty_response_empty_facts(self):
        provider = ScriptedProvider([ScriptEntry("substring", "", "")], sequential=False)
        assert reflect_generated_fact("q", ReflectionParams(), complete_with(provider)) == []

    def test_k_max_enforced(self):
        response = "\n".join(f"fact {i}" for i in range(20))
        provider = ScriptedProvider([ScriptEntry("substring", "", response)], sequential=False)
        facts = reflect_generated_fact("q", ReflectionParams(k_max=15), complete_with(provider))
        assert len(facts) == 15

    def test_bullets_and_numbering_stripped(self):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "", "- first\n2. second\n* third")], sequential=False
        )
        facts = reflect_generated_fact("q", ReflectionParams(), complete_with(provider))
        assert facts == ["first", "second", "third"]


def test_params_validation():
    assert ReflectionParams(k_max=1).k_max == 1
    with pytest.raises(ValueError):
        ReflectionParams(k_max=0)
    with pytest.raises(ValueError):
        ReflectionParams(strategy="alchemy")
