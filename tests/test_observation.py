from __future__ import annotations

import random
from math import ceil, fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgagent.embedding import DeterministicEmbedder, EmbeddingCache, QuestionScorer, cosine
from kgagent.kg import KnowledgeGraph, Triple, extract_khop_subgraph
from kgagent.observation import (
    ObservationParams,
    ObservationSubgraph,
    ScoredTriple,
    observe,
    rank_scored_triples,
    render_observation,
)

from kgagent.agent import AgentConfig, run

from conftest import (
    TOKYO_QUESTION, TOKYO_SCRIPT, edge_set, edges, make_kg, make_providers, random_kg,
)


def brute_force_observe(
    kg: KnowledgeGraph,
    question: str,
    seeds: list[str],
    depth_limit: int,
    top_n: int,
    refine_percent: float,
    provider: DeterministicEmbedder,
) -> list[tuple[tuple[str, str, str], float, int, str]]:
    """Level-by-level replay of the select/refine rule, independent of observe().

    Materializes every depth exhaustively: scores all frontier out-edges,
    sorts, takes the configured top slice, appends new triples, and promotes
    the tails of the refined slice.
    """
    question_vector = provider.embed(question)

    def score(triple: Triple) -> float:
        label = lambda i: kg.labels.get(i, i)
        return cosine(
            question_vector, provider.embed(f"{label(triple[1])} {label(triple[2])}")
        )

    refine_count = max(1, ceil(refine_percent / 100.0 * top_n))
    output: list[tuple[tuple[str, str, str], float, int, str]] = []
    present: set[Triple] = set()
    for seed in dict.fromkeys(seeds):
        frontier = [seed]
        visited = {seed}
        for depth in range(depth_limit):
            candidates = []
            for entity in frontier:
                candidates.extend(edges(kg, entity))
            if not candidates:
                break
            ranked = sorted(
                ((score(t), t) for t in candidates),
                key=lambda pair: (-pair[0], pair[1]),
            )
            selected = ranked[:top_n]
            for value, triple in selected:
                if triple not in present:
                    present.add(triple)
                    output.append((triple, value, depth, seed))
            tails = []
            for _, triple in selected[:refine_count]:
                if triple[2] not in tails:
                    tails.append(triple[2])
            frontier = [t for t in tails if t not in visited]
            visited.update(frontier)
            if not frontier:
                break
    return output


def entries_as_tuples(subgraph: ObservationSubgraph):
    return [
        (entry.triple, entry.score, entry.depth, entry.seed)
        for entry in subgraph.entries
    ]


class TestObserveBasics:
    def test_seed_without_edges_yields_empty_subgraph(self, embedder):
        kg = make_kg([("A", "r", "B")])
        result = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), ["B"], ObservationParams(), None
        )
        assert result.entries == []

    def test_unknown_seed_contributes_nothing(self, embedder):
        kg = make_kg([("A", "r", "B")])
        scorer = QuestionScorer("q", embedder, EmbeddingCache())
        result = observe(kg, scorer, ["Zmissing", "A"], ObservationParams(), None)
        assert [entry.triple for entry in result.entries] == [("A", "r", "B")]

    def test_star_graph_top_n_selection(self, embedder):
        kg = make_kg([("S", f"r{i}", f"T{i}") for i in range(7)])
        params = ObservationParams(depth_limit=1, top_n=5, refine_percent=20.0)
        result = observe(
            kg, QuestionScorer("which tee", embedder, EmbeddingCache()), ["S"], params, None
        )
        # oracle: score all 7 candidates exhaustively, sort, take 5
        question_vector = embedder.embed("which tee")
        ranked = sorted(
            (
                (cosine(question_vector, embedder.embed(f"r{i} T{i}")), f"r{i}")
                for i in range(7)
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )
        expected = [relation for _, relation in ranked[:5]]
        assert [entry.triple[1] for entry in result.entries] == expected
        assert all(entry.depth == 0 for entry in result.entries)

    def test_chain_is_fully_covered_under_caps(self, embedder):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "D")])
        result = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), ["A"], ObservationParams(), None
        )
        assert {entry.triple for entry in result.entries} == edge_set(kg)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationParams(depth_limit=0)
        with pytest.raises(ValueError):
            ObservationParams(top_n=0)
        with pytest.raises(ValueError):
            ObservationParams(refine_percent=0)
        with pytest.raises(ValueError):
            ObservationParams(refine_percent=101)

    def test_refine_count_rounds_up(self):
        assert ObservationParams(refine_percent=10, top_n=50).refine_count == 5
        assert ObservationParams(refine_percent=10, top_n=1).refine_count == 1
        assert ObservationParams(refine_percent=34, top_n=10).refine_count == 4
        assert ObservationParams(refine_percent=0.5, top_n=50).refine_count == 1


class TestObserveOracle:
    def test_matches_brute_force_on_random_graphs(self, embedder):
        rng = random.Random(61)
        for _ in range(20):
            kg = random_kg(rng, n_entities=24, n_triples=300)
            seeds = [f"Q{rng.randrange(24)}" for _ in range(rng.randrange(1, 4))]
            params = ObservationParams(depth_limit=3, top_n=50, refine_percent=10.0)
            result = observe(
                kg, QuestionScorer("some question", embedder, EmbeddingCache()), seeds, params,
                None,
            )
            expected = brute_force_observe(
                kg, "some question", seeds, 3, 50, 10.0, embedder
            )
            assert entries_as_tuples(result) == expected

    def test_small_caps_exercise_refinement(self, embedder):
        rng = random.Random(67)
        for _ in range(20):
            kg = random_kg(rng, n_entities=15, n_triples=120)
            seeds = [f"Q{rng.randrange(15)}"]
            params = ObservationParams(depth_limit=3, top_n=4, refine_percent=30.0)
            result = observe(
                kg, QuestionScorer("another question", embedder, EmbeddingCache()), seeds, params,
                None,
            )
            expected = brute_force_observe(
                kg, "another question", seeds, 3, 4, 30.0, embedder
            )
            assert entries_as_tuples(result) == expected


class RecordingEmbedder(DeterministicEmbedder):
    """Records every text sent to the provider, one list per call."""

    def __init__(self) -> None:
        super().__init__(seed=11, dimension=16)
        self.requests: list[list[str]] = []

    def embed(self, text: str):
        self.requests.append([text])
        return super().embed(text)

    def embed_many(self, texts):
        self.requests.append(list(texts))
        return [super(RecordingEmbedder, self).embed(text) for text in texts]


class TestRankedOncePerQuestion:
    @staticmethod
    def _counting_neighbors(kg, monkeypatch):
        calls: list[str] = []
        get_neighbors = kg.get_neighbors

        def counted(entity, *args, **kwargs):
            calls.append(entity)
            return get_neighbors(entity, *args, **kwargs)

        monkeypatch.setattr(kg, "get_neighbors", counted)
        return calls

    def test_second_observe_sends_no_text_and_ranks_no_entity(self, monkeypatch):
        rng = random.Random(71)
        kg = random_kg(rng, n_entities=24, n_triples=300)
        provider = RecordingEmbedder()
        scorer = QuestionScorer("a question", provider, EmbeddingCache())
        params = ObservationParams(depth_limit=3, top_n=6, refine_percent=50.0)
        neighbors = self._counting_neighbors(kg, monkeypatch)
        first = observe(kg, scorer, ["Q1", "Q2"], params, None)
        assert len(neighbors) == len(set(neighbors))  # each entity fetched once
        requests = list(provider.requests)
        # one request for the question, then at most one per turn
        assert len(requests) <= 1 + len(first.turns)
        neighbors.clear()
        second = observe(kg, scorer, ["Q1", "Q2"], params, None)
        assert provider.requests == requests
        assert neighbors == []
        assert second.entries == first.entries and second.turns == first.turns

    def test_candidate_count_is_the_frontier_out_degree(self, embedder):
        rng = random.Random(73)
        kg = random_kg(rng, n_entities=20, n_triples=160)
        params = ObservationParams(depth_limit=3, top_n=5, refine_percent=60.0)
        result = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), ["Q0", "Q5"], params, None
        )
        frontier: dict[str, list[str]] = {}
        for turn in result.turns:
            current = frontier.get(turn.seed, [turn.seed]) if turn.depth else [turn.seed]
            assert turn.candidate_count == sum(len(kg.get_neighbors(e)) for e in current)
            frontier[turn.seed] = turn.frontier

    def test_rankings_shared_across_calls_match_brute_force(self, embedder):
        rng = random.Random(79)
        for _ in range(10):
            kg = random_kg(rng, n_entities=18, n_triples=200)
            scorer = QuestionScorer("shared", embedder, EmbeddingCache())
            for _ in range(3):
                seeds = [f"Q{rng.randrange(18)}" for _ in range(rng.randrange(1, 4))]
                params = ObservationParams(depth_limit=3, top_n=rng.randrange(1, 12))
                result = observe(kg, scorer, seeds, params, None)
                expected = brute_force_observe(
                    kg, "shared", seeds, 3, params.top_n, 10.0, embedder
                )
                assert entries_as_tuples(result) == expected


class TestObserveProperties:
    def test_triple_count_bound(self, embedder):
        rng = random.Random(71)
        kg = random_kg(rng, n_entities=20, n_triples=250)
        seeds = ["Q0", "Q1", "Q2"]
        params = ObservationParams(depth_limit=3, top_n=10, refine_percent=50.0)
        result = observe(kg, QuestionScorer("q", embedder, EmbeddingCache()), seeds, params, None)
        assert len(result.entries) <= len(seeds) * params.depth_limit * params.top_n

    def test_frontier_provenance_single_seed(self, embedder):
        rng = random.Random(73)
        for _ in range(10):
            kg = random_kg(rng, n_entities=18, n_triples=150)
            params = ObservationParams(depth_limit=3, top_n=8, refine_percent=25.0)
            result = observe(
                kg, QuestionScorer("q", embedder, EmbeddingCache()), ["Q0"], params, None
            )
            refine = params.refine_count
            by_depth: dict[int, list[ScoredTriple]] = {}
            for entry in result.entries:
                by_depth.setdefault(entry.depth, []).append(entry)
            for depth, entries in by_depth.items():
                if depth == 0:
                    continue
                allowed = {e.triple[2] for e in by_depth.get(depth - 1, [])[:refine]}
                for entry in entries:
                    assert entry.triple[0] in allowed

    def test_deterministic_byte_for_byte(self, embedder):
        rng = random.Random(79)
        kg = random_kg(rng, n_entities=20, n_triples=200)
        params = ObservationParams()
        first = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), ["Q0", "Q5"], params, None
        )
        second = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), ["Q0", "Q5"], params, None
        )
        assert first.turns == second.turns
        assert entries_as_tuples(first) == entries_as_tuples(second)

    def test_full_percent_covers_khop(self, embedder):
        rng = random.Random(83)
        for _ in range(10):
            kg = random_kg(rng, n_entities=20, n_triples=100)
            seeds = ["Q0", "Q1"]
            params = ObservationParams(
                depth_limit=3, top_n=len(edge_set(kg)) + 1, refine_percent=100.0
            )
            result = observe(
                kg, QuestionScorer("q", embedder, EmbeddingCache()), seeds, params, None
            )
            expected = edge_set(extract_khop_subgraph(kg, seeds, 3))
            assert {entry.triple for entry in result.entries} == expected

    def test_depth_zero_prefix_monotone_in_n(self, embedder):
        rng = random.Random(89)
        kg = random_kg(rng, n_entities=12, n_triples=120)
        seeds = ["Q0", "Q1"]
        small = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), seeds,
            ObservationParams(depth_limit=1, top_n=5), None,
        )
        large = observe(
            kg, QuestionScorer("q", embedder, EmbeddingCache()), seeds,
            ObservationParams(depth_limit=1, top_n=9), None,
        )
        assert {e.triple for e in small.entries} <= {e.triple for e in large.entries}


class TestNeighborLimit:
    def test_a_hub_past_the_limit_scores_its_first_edges_in_load_order(self, embedder):
        limit = 5
        order = random.Random(11).sample(range(limit + 7), limit + 7)  # load order is not sorted
        kg = make_kg([("H", f"P{i % 3}", f"T{i}") for i in order])
        scored: list[str] = []

        class SpyScorer(QuestionScorer):
            def score_many(self, texts):
                scored.extend(texts)
                return super().score_many(texts)

        params = ObservationParams(depth_limit=1, top_n=limit + 7)
        scorer = SpyScorer("q", embedder, EmbeddingCache())
        result = observe(kg, scorer, ["H"], params, neighbor_limit=limit)
        first = kg.get_neighbors("H")[:limit]
        assert [turn.candidate_count for turn in result.turns] == [limit]
        assert scored == [f"{t[1]} {t[2]}" for t in first]
        assert {entry.triple for entry in result.entries} == set(first)

    def test_run_passes_the_agent_neighbor_limit(self, tokyo_kg):
        result = run(
            TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT, sequential=False),
            AgentConfig(max_iterations=1, neighbor_limit=2),
        )
        entries = result.trace.iterations[0].observation
        assert entries and all(
            entry.triple in tokyo_kg.get_neighbors(entry.triple[0])[:2] for entry in entries
        )
        assert any(len(tokyo_kg.get_neighbors(entry.triple[0])) > 2 for entry in entries)


class TestConcurrency:
    def test_parallel_observe_calls_share_one_cache(self, embedder):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(97)
        kg = random_kg(rng, n_entities=20, n_triples=200)
        cache = EmbeddingCache()
        params = ObservationParams()

        def worker(_: int):
            scorer = QuestionScorer("shared question", embedder, cache)
            result = observe(kg, scorer, ["Q0", "Q3"], params, None)
            return entries_as_tuples(result)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = list(pool.map(worker, range(16)))
        assert all(output == outputs[0] for output in outputs)
        assert len(cache) > 0


class TestRendering:
    def test_render_uses_labels(self, tokyo_kg, embedder):
        scorer = QuestionScorer("q", embedder, EmbeddingCache())
        result = observe(tokyo_kg, scorer, ["Q1490"], ObservationParams(), None)
        text = render_observation(result, tokyo_kg)
        assert "(Tokyo, capital, Shinjuku)" in text


class StubScorer:
    """score_many from a text -> score table; records each call's texts."""

    def __init__(self, scores: dict[str, float]) -> None:
        self.scores = scores
        self.calls: list[list[str]] = []

    def score_many(self, texts):
        self.calls.append(list(texts))
        return [self.scores[text] for text in texts]


class TestRankScoredTriples:
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_ties_break_on_the_lexicographic_triple(self, first, second):
        # "p x" and "p y" score 0.0 and -0.0 (equal scores of either sign)
        scorer = StubScorer({"p x": first, "p y": second, "q z": 0.5, "r w": 0.5, "q v": -0.25})
        group = [("B", "q", "v"), ("C", "r", "w"), ("B", "p", "y"), ("A", "p", "x"),
                 ("A", "q", "z")]
        (ranking,) = rank_scored_triples([group], make_kg([]), scorer)
        expected = [(-0.5, ("A", "q", "z")), (-0.5, ("C", "r", "w")),
                    (-first, ("A", "p", "x")), (-second, ("B", "p", "y")),
                    (0.25, ("B", "q", "v"))]
        assert repr(ranking) == repr(expected)  # repr tells 0.0 from -0.0

    def test_groups_are_ranked_independently(self):
        rng = random.Random(103)
        texts = [f"P{r} Q{t}" for r in range(3) for t in range(4)]
        scores = {text: rng.choice([0.5, -0.25, 0.0, -0.0, 1.0]) for text in texts}
        kg = make_kg([])
        for _ in range(30):
            groups = [
                [(f"Q{rng.randrange(4)}", f"P{rng.randrange(3)}", f"Q{rng.randrange(4)}")
                 for _ in range(rng.randrange(0, 12))]
                for _ in range(rng.randrange(0, 5))
            ]
            ranked = rank_scored_triples(groups, kg, StubScorer(scores))
            assert ranked == [
                rank_scored_triples([group], kg, StubScorer(scores))[0] for group in groups
            ]
            for group, ranking in zip(groups, ranked):
                expected = sorted(group, key=lambda t: (-scores[f"{t[1]} {t[2]}"], t))
                assert [triple for _, triple in ranking] == expected

    def test_one_score_many_call_over_every_group_in_order(self):
        kg = make_kg([], {"p": "rel", "Y": "why"})
        groups = [[("A", "p", "X"), ("A", "q", "Y")], [], [("B", "p", "X"), ("B", "q", "Z")]]
        scorer = StubScorer({"rel X": 0.1, "q why": 0.2, "q Z": 0.3})
        rank_scored_triples(groups, kg, scorer)
        assert scorer.calls == [["rel X", "q why", "rel X", "q Z"]]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_group_ranks_the_same_in_any_order(self, data):
        """For every vector that embed_texts lets through, so every score is
        a number: a NaN score would leave the sort ordering by position."""
        component = st.floats(-(2.0**500), 2.0**500)  # the bound, NaN and inf excluded
        vector = st.tuples(component, component, component).filter(
            lambda v: fsum(x * x for x in v) > 0  # cosine refuses a zero norm
        )
        texts = ["question", "p x", "p y", "r z"]
        vectors = data.draw(st.fixed_dictionaries(dict.fromkeys(texts, vector)))
        triples = [(head, *text.split()) for head in "AB" for text in texts[1:]]
        group = data.draw(st.lists(st.sampled_from(triples), unique=True))
        reordered = data.draw(st.permutations(group))

        class TableEmbedder:
            def embed(self, text):
                return vectors[text]

        def ranking(group):
            scorer = QuestionScorer("question", TableEmbedder(), EmbeddingCache())
            return rank_scored_triples([group], make_kg([]), scorer)[0]

        assert ranking(reordered) == ranking(group)
