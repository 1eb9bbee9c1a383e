from __future__ import annotations

import random

import pytest

from kgagent.action import (
    ActionError,
    Answer,
    NeighborExploration,
    PathDiscovery,
    build_action_prompt,
    build_answer_prompt,
    choose_action,
    execute_action,
    fill_template,
    parse_action,
    parse_answer,
    render_action,
)
from kgagent.embedding import EmbeddingCache, QuestionScorer
from kgagent.kg import dump_triples
from kgagent.llm import ScriptedProvider, ScriptEntry
from kgagent.memory import Memory, integrate
from kgagent.observation import ObservationParams, ObservationSubgraph, observe

from conftest import (
    TOKYO_QUESTION, complete_with, edge_set, edges, load_lines, make_kg, random_kg,
)
from test_kg import dfs_paths_oracle


@pytest.fixture
def tokyo_observation(tokyo_kg, embedder):
    scorer = QuestionScorer(TOKYO_QUESTION, embedder, EmbeddingCache())
    return observe(tokyo_kg, scorer, ["Q1490"], ObservationParams(), None)


class TestBuildActionPrompt:
    def test_tokyo_inputs_present(self, tokyo_kg, tokyo_observation):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation, tokyo_kg, []
        )
        assert "Q1490" in prompt
        assert "Q1490: Tokyo" in prompt
        assert TOKYO_QUESTION in prompt
        assert "GetNeighbor(entityID: str)" in prompt
        assert "GetPath(entityID1: str, entityID2: str)" in prompt
        assert "(Tokyo, capital, Shinjuku)" in prompt

    def test_single_candidate_adds_constraint(self, tokyo_kg, tokyo_observation):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation, tokyo_kg, []
        )
        assert "If there are less than 2 entityIDs available" in prompt

    def test_two_candidates_omit_constraint(self, tokyo_kg, tokyo_observation):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490", "Q17"], tokyo_observation, tokyo_kg,
            [],
        )
        assert "If there are less than 2 entityIDs available" not in prompt

    def test_empty_memory_slot_filled(self, tokyo_kg, tokyo_observation):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation, tokyo_kg, []
        )
        assert "Memory: \n" in prompt
        assert "[Memory]" not in prompt
        assert "[Question]" not in prompt

    def test_empty_observation_line_omitted(self, tokyo_kg):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], ObservationSubgraph(), tokyo_kg,
            [],
        )
        assert "Observation:" not in prompt

    def test_history_rendered(self, tokyo_kg, tokyo_observation):
        history = [NeighborExploration("Q1490")]
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation, tokyo_kg, history
        )
        assert "GetNeighbor(Q1490)" in prompt

    def test_facts_follow_paths_in_memory_slot(self, tokyo_kg, tokyo_observation):
        memory = integrate(Memory(), [("Q1490", "P36", "Q192724")])
        memory.facts += ["Tokyo is the capital of Japan", "Shinjuku is a ward"]
        prompt = build_action_prompt(
            TOKYO_QUESTION, memory, ["Q1490"], tokyo_observation, tokyo_kg, []
        )
        assert (
            "Memory: (Tokyo, capital, Shinjuku)\n"
            "Tokyo is the capital of Japan\nShinjuku is a ward\n"
            "Candidate EntityIDs: Q1490"
        ) in prompt

    def test_requires_candidates(self, tokyo_kg, tokyo_observation):
        with pytest.raises(ValueError):
            build_action_prompt(
                TOKYO_QUESTION, Memory(), [], tokyo_observation, tokyo_kg, []
            )

    def test_golden_render(self, tokyo_kg, tokyo_observation, datadir):
        prompt = build_action_prompt(
            TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation, tokyo_kg, []
        )
        golden = (datadir / "golden" / "action_prompt_tokyo_iter1.txt").read_text(
            encoding="utf-8"
        )
        assert prompt == golden


class TestParseAction:
    def test_get_neighbor_by_id(self):
        response = "Thought: look around.\nAction: GetNeighbor\nEntity_id: Q1490"
        assert parse_action(response, ["Q1490"], {}) == NeighborExploration("Q1490")

    def test_get_neighbor_by_label_case_insensitive(self):
        response = "Action: GetNeighbor\nEntity_id: tokyo"
        action = parse_action(response, ["Q1490"], labels={"Q1490": "Tokyo"})
        assert action == NeighborExploration("Q1490")

    def test_answer(self):
        assert parse_action("Action: Answer", ["Q1490"], {}) == Answer()

    def test_unknown_verb(self):
        with pytest.raises(ActionError, match="unknown action verb 'Teleport'"):
            parse_action("Action: Teleport", ["Q1"], {})

    def test_missing_action_line(self):
        with pytest.raises(ActionError, match="response contains no 'Action:' line"):
            parse_action("Thought: no action here", ["Q1"], {})

    def test_entity_outside_candidates(self):
        with pytest.raises(ActionError, match="entity 'Q999' is not among the candidate"):
            parse_action("Action: GetNeighbor\nEntity_id: Q999", ["Q1"], {})

    def test_get_path_two_lines(self):
        response = "Action: GetPath\nEntity_id1: Q1\nEntity_id2: Q2"
        assert parse_action(response, ["Q1", "Q2"], {}) == PathDiscovery("Q1", "Q2")

    def test_get_path_comma_separated(self):
        response = "Action: GetPath\nEntity_id: Q1, Q2"
        assert parse_action(response, ["Q1", "Q2"], {}) == PathDiscovery("Q1", "Q2")

    def test_get_path_single_candidate_rejected(self):
        with pytest.raises(ActionError, match="GetPath requires at least 2 candidate entities"):
            parse_action("Action: GetPath\nEntity_id: Q1, Q1", ["Q1"], {})

    def test_get_path_identical_entities_rejected(self):
        with pytest.raises(ActionError, match="path discovery needs two distinct entities"):
            parse_action("Action: GetPath\nEntity_id: Q1, Q1", ["Q1", "Q2"], {})

    def test_quoted_and_bracketed_tokens(self):
        response = "Action: GetNeighbor\nEntity_id: 'Q1490'."
        assert parse_action(response, ["Q1490"], {}) == NeighborExploration("Q1490")

    def test_total_and_exact_on_all_fixture_transcripts(self):
        from conftest import FIXTURE_ACTION_TURNS

        parsed = [
            parse_action(response, candidates, labels=labels)
            for response, candidates, labels in FIXTURE_ACTION_TURNS
        ]
        assert [render_action(action) for action in parsed] == [
            "GetNeighbor(Q1490)",
            "Answer",
            "GetNeighbor(Q5879)",
            "GetNeighbor(Q61597)",
            "Answer",
            "GetNeighbor(Q1164538)",
            "GetNeighbor(Q208143)",
            "Answer",
        ]


class TestExecuteAction:
    def test_leaf_entity_empty_outcome(self):
        kg = make_kg([("A", "r", "B")])
        outcome = execute_action(kg, NeighborExploration("B"), path_max_len=3, neighbor_limit=None)
        assert outcome == []

    def test_path_single_edge(self):
        kg = make_kg([("A", "r", "B")])
        outcome = execute_action(kg, PathDiscovery("A", "B"), path_max_len=3, neighbor_limit=None)
        assert outcome == [("A", "r", "B")]

    def test_answer_not_executable(self):
        with pytest.raises(ValueError):
            execute_action(make_kg([]), Answer(), path_max_len=3, neighbor_limit=None)

    def test_neighbor_limit_applies(self):
        kg = make_kg([("A", "r", f"B{i}") for i in range(10)])
        outcome = execute_action(kg, NeighborExploration("A"), path_max_len=3, neighbor_limit=4)
        assert len(outcome) == 4

    def test_outcome_matches_oracles_on_random_graph(self):
        rng = random.Random(53)
        kg = random_kg(rng, n_entities=10, n_triples=45)
        for entity in list(kg.adjacency)[:5]:
            action = NeighborExploration(entity)
            assert execute_action(kg, action, path_max_len=3, neighbor_limit=None) == [
                t for t in edges(kg) if t[0] == entity
            ]
        entities = sorted({t[0] for t in edge_set(kg)})
        searches = [(kg, entities[0], entities[1]), (kg, entities[2], entities[0])]
        for _ in range(60):
            small = random_kg(rng, n_entities=7, n_triples=rng.randrange(0, 28), n_relations=3)
            entity = f"Q{rng.randrange(7)}"
            small = load_lines([
                *dump_triples(small),
                f"{entity}\tP0\t{entity}",  # a self-loop
                f"{entity}\tP1\tQ0",  # parallel relations to one tail
                f"{entity}\tP2\tQ0",
            ])
            start, goal = (f"Q{i}" for i in rng.sample(range(7), 2))  # PathDiscovery's rule
            searches.append((small, start, goal))
        # the reflection prompt and the trace list the outcome in this first-seen order
        for graph, e1, e2 in searches:
            for max_len in range(1, 6):
                expected_paths = dfs_paths_oracle(graph, e1, e2, max_len)
                expected = list(dict.fromkeys(t for path in expected_paths for t in path))
                action = PathDiscovery(e1, e2)
                outcome = execute_action(graph, action, path_max_len=max_len, neighbor_limit=None)
                assert outcome == expected

    def test_outcome_subset_of_kg(self):
        rng = random.Random(59)
        kg = random_kg(rng, n_entities=8, n_triples=30)
        action = NeighborExploration("Q0")
        outcome = execute_action(kg, action, path_max_len=3, neighbor_limit=None)
        assert set(outcome) <= edge_set(kg)


class TestAnswerPrompt:
    def test_contains_memory_and_question(self, tokyo_kg):
        memory = integrate(Memory(), [("Q1490", "P36", "Q192724")])
        prompt = build_answer_prompt(TOKYO_QUESTION, memory, tokyo_kg)
        assert "(Tokyo, capital, Shinjuku)" in prompt
        assert TOKYO_QUESTION in prompt
        assert "one answer or a list of answer" in prompt

    def test_facts_lane_appended(self, tokyo_kg):
        prompt = build_answer_prompt(
            TOKYO_QUESTION, Memory(facts=["Tokyo is the capital of Japan"]), tokyo_kg
        )
        assert "Tokyo is the capital of Japan" in prompt

    def test_unknown_slot_names_are_left_as_they_are(self):
        assert fill_template("[Question] [Unknown] [", {"Question": "q"}) == "q [Unknown] ["

    def test_slot_names_in_values_render_verbatim(self):
        kg = make_kg([("A", "r", "B")], labels={"B": "see [Question] here"})
        memory = integrate(Memory(), [("A", "r", "B")])
        prompt = build_answer_prompt("Where is [Memory]?", memory, kg)
        assert "memory: (A, r, see [Question] here). You" in prompt
        assert "asked to answer the question: Where is [Memory]?." in prompt


class TestParseAnswer:
    def test_single_answer(self):
        assert parse_answer("Shinjuku") == ["Shinjuku"]

    def test_bracketed_list(self):
        assert parse_answer("[Canada, Yukon]") == ["Canada", "Yukon"]

    def test_bracketed_individual_items(self):
        assert parse_answer("[Canada],[Yukon]") == ["Canada", "Yukon"]

    def test_trimming(self):
        assert parse_answer("  true \n") == ["true"]

    def test_empty_response(self):
        assert parse_answer("") == []
        assert parse_answer("  \n ") == []

    def test_answer_label_stripped(self):
        assert parse_answer("Answer: Shinjuku") == ["Shinjuku"]

    def test_newline_separated(self):
        assert parse_answer("Canada\nYukon\n") == ["Canada", "Yukon"]

    def test_outer_brackets_go_before_quotes(self):
        # the space after "[" stops each piece's own bracket and quote strips,
        # so only the outer bracket strip gets Paris out of '[ "Paris"'
        assert parse_answer('Answer: [ "Paris", "Lyon" ]') == ["Paris", "Lyon"]


class TestChooseAction:
    def test_valid_first_try(self, tokyo_kg, tokyo_observation):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "Candidate EntityIDs: Q1490",
                         "Action: GetNeighbor\nEntity_id: Q1490")]
        )
        action, attempts, fallback = choose_action(
            complete_with(provider), TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation,
            tokyo_kg, [], max_retries=2,
        )
        assert action == NeighborExploration("Q1490")
        assert len(attempts) == 1
        assert not fallback

    def test_repeated_action_triggers_reprompt(self, tokyo_kg, tokyo_observation):
        history = [NeighborExploration("Q1490")]
        provider = ScriptedProvider(
            [
                ScriptEntry("substring", "Candidate EntityIDs",
                            "Action: GetNeighbor\nEntity_id: Q1490"),
                ScriptEntry("substring", "already executed",
                            "Action: GetNeighbor\nEntity_id: Q17"),
            ]
        )
        action, attempts, fallback = choose_action(
            complete_with(provider), TOKYO_QUESTION, Memory(), ["Q1490", "Q17"], tokyo_observation,
            tokyo_kg, history, max_retries=2,
        )
        assert action == NeighborExploration("Q17")
        assert len(attempts) == 2
        assert not fallback

    def test_invalid_output_reprompted_then_fallback(self, tokyo_kg, tokyo_observation):
        provider = ScriptedProvider(
            [ScriptEntry("substring", "", "Action: Teleport")], sequential=False
        )
        action, attempts, fallback = choose_action(
            complete_with(provider), TOKYO_QUESTION, Memory(), ["Q1490"], tokyo_observation,
            tokyo_kg, [], max_retries=2,
        )
        assert fallback
        assert action == NeighborExploration("Q1490")
        assert len(attempts) == 3
        assert "previous response was invalid" in attempts[1].prompt


def test_render_action_shapes():
    assert render_action(NeighborExploration("Q1")) == "GetNeighbor(Q1)"
    assert render_action(PathDiscovery("Q1", "Q2")) == "GetPath(Q1, Q2)"
    assert render_action(Answer()) == "Answer"
