"""Acceptance suite: one test per criterion, pinned tolerances, no network.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

from __future__ import annotations

import random
import time
from math import fsum

import pytest
from scipy.stats import chisquare

from kgagent.agent import run, trace_to_json
from kgagent.embedding import (
    DeterministicEmbedder, EmbeddingCache, QuestionScorer, cosine, score_candidate,
)
from kgagent.evaluation import DatasetRecord, run_eval, score_hit
from kgagent.kg import extract_khop_subgraph, load_triples
from kgagent.memory import Memory, integrate, render_memory
from kgagent.observation import ObservationParams, observe
from kgagent.reflection import ReflectionParams, parse_reflected, reflect_random, reflect_similarity

from conftest import (
    GOETHE_LABELS,
    GOETHE_QUESTION,
    GOETHE_SCRIPT,
    LONDON_LABELS,
    LONDON_QUESTION,
    LONDON_SCRIPT,
    LONDON_TRIPLES,
    TOKYO_LABELS,
    TOKYO_QUESTION,
    TOKYO_SCRIPT,
    TOKYO_TRIPLES,
    GOETHE_TRIPLES,
    edge_set,
    make_kg,
    make_providers,
    make_routed_providers,
    random_kg,
)
from test_agent import RING_SCRIPT
from test_kg import bfs_levels_oracle, dfs_paths_oracle
from test_memory import is_chained, random_stream, replay_oracle
from test_observation import brute_force_observe, entries_as_tuples


def test_c01_observation_oracle_equivalence():
    """200 random KGs: observe(D=3, N=50, P=10) equals the level-by-level oracle."""
    rng = random.Random(2024)
    embedder = DeterministicEmbedder(seed=5, dimension=24)
    started = time.monotonic()
    for trial in range(200):
        kg = random_kg(
            rng,
            n_entities=rng.randrange(10, 60),
            n_triples=rng.randrange(20, 501),
            n_relations=8,
        )
        seeds = [f"Q{rng.randrange(60)}" for _ in range(rng.randrange(1, 4))]
        question = f"question number {trial}"
        params = ObservationParams(depth_limit=3, top_n=50, refine_percent=10.0)
        result = observe(
            kg, QuestionScorer(question, embedder, EmbeddingCache()), seeds, params, None
        )
        expected = brute_force_observe(kg, question, seeds, 3, 50, 10.0, embedder)
        assert entries_as_tuples(result) == expected  # order and content
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"observation equivalence took {elapsed:.1f}s"


def test_c02_coverage_cross_check():
    """P=100 with uncapped N makes observe cover exactly the k-hop closure."""
    rng = random.Random(2025)
    embedder = DeterministicEmbedder(seed=5, dimension=16)
    for trial in range(50):
        kg = random_kg(rng, n_entities=rng.randrange(8, 40), n_triples=rng.randrange(10, 200))
        seeds = [f"Q{rng.randrange(40)}" for _ in range(rng.randrange(1, 4))]
        params = ObservationParams(
            depth_limit=3, top_n=len(edge_set(kg)) + 1, refine_percent=100.0
        )
        result = observe(
            kg, QuestionScorer(f"q{trial}", embedder, EmbeddingCache()), seeds, params, None
        )
        assert {e.triple for e in result.entries} == edge_set(extract_khop_subgraph(kg, seeds, 3))


def test_c03_cosine_properties():
    """Self-similarity and scale invariance within 1e-9 over 10^4 pairs; argsort stability."""
    rng = random.Random(77)
    for _ in range(10_000):
        a = tuple(rng.uniform(-10, 10) for _ in range(8))
        b = tuple(rng.uniform(-10, 10) for _ in range(8))
        if fsum(x * x for x in a) == 0 or fsum(x * x for x in b) == 0:
            continue
        assert abs(cosine(a, a) - 1.0) < 1e-9
        alpha, beta = rng.uniform(1e-3, 1e3), rng.uniform(1e-3, 1e3)
        scaled = cosine(tuple(alpha * x for x in a), tuple(beta * x for x in b))
        assert abs(scaled - cosine(a, b)) < 1e-9

    embedder = DeterministicEmbedder(seed=9, dimension=16)
    question_vector = embedder.embed("a question about rankings")
    labels = [(f"relation {i}", f"tail {i}") for i in range(30)]
    scores = [score_candidate(question_vector, r, t, embedder, EmbeddingCache()) for r, t in labels]
    for alpha in (0.001, 0.5, 7.0, 4096.0):
        scaled_vector = tuple(alpha * x for x in question_vector)
        scaled_scores = [
            score_candidate(scaled_vector, r, t, embedder, EmbeddingCache()) for r, t in labels
        ]
        argsort = sorted(range(30), key=lambda i: -scores[i])
        scaled_argsort = sorted(range(30), key=lambda i: -scaled_scores[i])
        assert argsort == scaled_argsort


def test_c04_memory_replay():
    """500 random streams match the sequential-rule oracle; chaining always holds."""
    rng = random.Random(404)
    for _ in range(500):
        stream = random_stream(rng, rng.randrange(1, 45))
        memory = Memory()
        for triple in stream:
            integrate(memory, [triple])
            assert all(map(is_chained, memory.paths))
        assert memory.paths == replay_oracle(stream)

    # the worked two-triple chain: both reflected triples join one path
    kg = make_kg([], GOETHE_LABELS)
    memory = integrate(
        Memory(),
        [("Q5879", "P451", "Q61597"), ("Q61597", "P19", "Q3042")],
    )
    assert len(memory.paths) == 1
    assert render_memory(memory, kg) == (
        "(Johann Wolfgang von Goethe, unmarried Partner, Lili Schöneman)"
        " -> (Lili Schöneman, place of birth, Offenbach am Main)"
    )


def test_c05_golden_end_to_end_traces(datadir):
    """Scripted replays are bit-identical across runs and match frozen goldens."""
    tokyo_kg = make_kg(TOKYO_TRIPLES, TOKYO_LABELS)
    runs = [
        run(TOKYO_QUESTION, ["Q1490"], tokyo_kg, make_providers(TOKYO_SCRIPT))
        for _ in range(2)
    ]
    assert runs[0].answers == ["Shinjuku"]
    assert runs[0].halted_by == "answer_action"
    memory_triples = [
        t for path in runs[0].trace.iterations[-1].memory_snapshot for t in path
    ]
    assert memory_triples == [
        ("Q1490", "P31", "Q50337"),
        ("Q1490", "P36", "Q192724"),
        ("Q1490", "P36", "Q17"),
    ]
    texts = [trace_to_json(r.trace) for r in runs]
    assert texts[0] == texts[1]
    golden = (datadir / "golden" / "trace_tokyo.json").read_text(encoding="utf-8")
    assert texts[0] == golden

    london_kg = make_kg(LONDON_TRIPLES, LONDON_LABELS)
    runs = [
        run(LONDON_QUESTION, ["Q1164538", "Q208143"], london_kg, make_providers(LONDON_SCRIPT))
        for _ in range(2)
    ]
    assert "Yukon" in runs[0].answers
    texts = [trace_to_json(r.trace) for r in runs]
    assert texts[0] == texts[1]
    golden = (datadir / "golden" / "trace_london.json").read_text(encoding="utf-8")
    assert texts[0] == golden


def test_c06_loop_bounds():
    """An always-GetNeighbor provider halts at exactly 8 iterations with the forced answer."""
    kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")])
    providers = make_providers(RING_SCRIPT, sequential=False)
    result = run("loop forever", ["A"], kg, providers)
    assert result.halted_by == "iteration_cap"
    assert len(result.trace.iterations) == 8
    memory_size = sum(len(path) for path in result.trace.iterations[-1].memory_snapshot)
    assert memory_size <= 8 * 15 == 120
    assert result.trace.answer_prompt is not None
    assert result.trace.answer_response == "no answer"


def test_c07_path_discovery_oracle():
    """find_paths equals exhaustive simple-path DFS on 100 random graphs."""
    rng = random.Random(707)
    started = time.monotonic()
    for _ in range(100):
        kg = random_kg(rng, n_entities=15, n_triples=rng.randrange(5, 60))
        entities = sorted({t[0] for t in edge_set(kg)} | {t[2] for t in edge_set(kg)})
        e1, e2 = rng.choice(entities), rng.choice(entities)
        found = kg.find_paths(e1, e2, 3)
        expected = dfs_paths_oracle(kg, e1, e2, 3)
        assert {tuple(p) for p in found} == {
            tuple(p) for p in expected
        }
        assert found == expected  # ordering is deterministic too
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"path discovery oracle took {elapsed:.1f}s"


def test_c08_reflection_strategies():
    """Similarity matches the top-K oracle; random passes chi-square; hallucinations drop."""
    rng = random.Random(808)
    embedder = DeterministicEmbedder(seed=3, dimension=16)
    for trial in range(100):
        kg = random_kg(rng, n_entities=12, n_triples=rng.randrange(5, 80))
        candidates = sorted(edge_set(kg))
        rng.shuffle(candidates)
        params = ReflectionParams(k_max=15)
        result = reflect_similarity(
            candidates, kg, params, QuestionScorer(f"q{trial}", embedder, EmbeddingCache())
        )
        question_vector = embedder.embed(f"q{trial}")
        expected = sorted(
            candidates,
            key=lambda t: (
                -cosine(question_vector, embedder.embed(f"{t[1]} {t[2]}")),
                t,
            ),
        )[:15]
        assert result == expected

    # chi-square uniformity of the first sampled candidate over 10^4 seeded draws
    candidates = [(f"Q{i}", "P", f"T{i}") for i in range(10)]
    counts = [0] * 10
    for seed in range(10_000):
        first = reflect_random(candidates, ReflectionParams(k_max=3), random.Random(seed))[0]
        counts[int(first[0][1:])] += 1
    statistic, p_value = chisquare(counts)
    assert p_value > 0.01, f"chi-square p={p_value:.5f} (statistic {statistic:.2f})"

    # injected non-candidate triads are all dropped
    pool = [(f"Q{i}", "P1", f"Q{i + 100}") for i in range(10)]
    injected = [(f"X{i}", "P9", f"Y{i}") for i in range(10)]
    response_lines = []
    for real, fake in zip(pool, injected):
        response_lines.append(",".join(real))
        response_lines.append(",".join(fake))
    result = parse_reflected("\n".join(response_lines), pool, ReflectionParams())
    assert result == pool
    assert not set(injected) & set(result)


HAND_SCORED_CASES = [
    # (predicted, gold, expected) scored by hand against the normalization rule
    (["Shinjuku"], {"Shinjuku"}, 1),
    ([], {"Yukon"}, 0),
    (["  YUKON "], {"Yukon"}, 1),
    (["yukon"], {"Yukon"}, 1),
    (["Yu kon"], {"Yukon"}, 0),
    (["Canada", "Yukon"], {"Yukon"}, 1),
    (["Canada"], {"Yukon"}, 0),
    (["Offenbach am Main"], {"Offenbach am Main"}, 1),
    (["offenbach  am  main"], {"Offenbach am Main"}, 1),
    (["Offenbach"], {"Offenbach am Main"}, 0),
    (["true"], {"true"}, 1),
    (["True"], {"true"}, 1),
    (["false"], {"true"}, 0),
    (["42"], {"42"}, 1),
    (["42.0"], {"42"}, 0),
    (["1984"], {"1984", "Animal Farm"}, 1),
    (["Animal farm"], {"1984", "Animal Farm"}, 1),
    (["Brave New World"], {"1984", "Animal Farm"}, 0),
    (["Tokyo", "Kyoto"], {"Kyoto"}, 1),
    (["Tokyo", "Kyoto"], {"Osaka"}, 0),
    ([" shinjuku\t"], {"Shinjuku"}, 1),
    (["SHINJUKU WARD"], {"Shinjuku"}, 0),
    (["João"], {"joão"}, 1),
    (["STRASSE"], {"strasse"}, 1),
    ([""], {"anything"}, 0),
    (["a", "b", "c"], {"c"}, 1),
    (["a,b"], {"a"}, 0),
    (["New  York   City"], {"new york city"}, 1),
    (["Q1490"], {"Tokyo"}, 0),
    (["2024-01-01"], {"2024-01-01"}, 1),
]


def test_c09_metric_hand_scored_table():
    """score_hit agrees with all 30 hand-scored cases; accuracy invariant to order/workers."""
    assert len(HAND_SCORED_CASES) == 30
    disagreements = [
        (predicted, gold, expected)
        for predicted, gold, expected in HAND_SCORED_CASES
        if score_hit(predicted, gold) != expected
    ]
    assert disagreements == []

    kg = make_kg(
        TOKYO_TRIPLES + GOETHE_TRIPLES, {**TOKYO_LABELS, **GOETHE_LABELS}
    )
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
            ("substring", "reference memory", "wrong"),
        ],
    }

    accuracies = set()
    for workers in (1, 4, 8):
        for order_seed in (None, 1, 2):
            ordered = list(records)
            if order_seed is not None:
                random.Random(order_seed).shuffle(ordered)
            providers = make_routed_providers(scripts)
            accuracies.add(run_eval(ordered, kg, providers, workers=workers).accuracy)
    assert accuracies == {2 / 3}


def _write_synthetic_dump(path, n_triples: int, n_entities: int, seed: int) -> None:
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        chunk: list[str] = []
        for i in range(n_triples):
            chunk.append(
                f"Q{rng.randrange(n_entities)}\tP{rng.randrange(50)}\tQ{rng.randrange(n_entities)}"
            )
            if len(chunk) == 100_000:
                handle.write("\n".join(chunk) + "\n")
                chunk = []
        if chunk:
            handle.write("\n".join(chunk) + "\n")


def test_c10_subgraph_etl_scale(tmp_path):
    """3-hop subgraph from a 1M-triple dump with 100 seeds in < 60 s, BFS-correct."""
    dump = tmp_path / "dump.tsv"
    _write_synthetic_dump(dump, n_triples=1_000_000, n_entities=200_000, seed=10)

    started = time.monotonic()
    kg = load_triples(dump)
    seeds = [f"Q{i * 97}" for i in range(100)]
    subgraph = extract_khop_subgraph(kg, seeds, 3)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"ETL took {elapsed:.1f}s"
    assert len(subgraph) > 0

    # correctness spot-check against the naive closure oracle on a 10k sample
    sample = tmp_path / "sample.tsv"
    rng = random.Random(11)
    with open(sample, "w", encoding="utf-8", newline="\n") as handle:
        for _ in range(10_000):
            handle.write(f"Q{rng.randrange(2_000)}\tP{rng.randrange(20)}\tQ{rng.randrange(2_000)}\n")
    small = load_triples(sample)
    small_seeds = [f"Q{i}" for i in range(0, 100, 7)]
    assert edge_set(extract_khop_subgraph(small, small_seeds, 3)) == bfs_levels_oracle(
        small, small_seeds, 3
    )
