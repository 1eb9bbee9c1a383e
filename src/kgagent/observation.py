"""Recursive update/refine observation over the knowledge graph.

Each seed entity is walked independently for up to depth_limit turns. A
turn collects the out-edges of the current frontier (at most neighbor_limit
per entity, in load order), scores every candidate against the question
embedding, appends the top_n best (skipping triples the subgraph already
holds), and promotes the tails of the top refine_percent of that selection
to the next frontier, never revisiting an entity for the same seed. The
selection is ranked before deduplication so that seeds stay independent.

Scores come from a QuestionScorer: the question is embedded once per agent
run, and each distinct "relation tail" text is scored once per question, so
repeated turns and observe calls reuse the same floats bit for bit. Each
entity's out-edges are ranked once per question too, by rank_scored_triples
(the ranking similarity reflection uses); a turn merges its frontier's
rankings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from math import ceil
from typing import Iterable, Sequence

from .embedding import QuestionScorer, combined_text
from .kg import EntityId, KnowledgeGraph, Triple


def check_count(name: str, value: object, minimum: int | None) -> None:
    """Raise ValueError unless value is an int (not a bool) of at least
    minimum; None means no minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_not_bool(name: str, value: object) -> None:
    """Raise ValueError if value is a bool, which a range test would take as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class ObservationParams:
    depth_limit: int = 3
    top_n: int = 50
    refine_percent: float = 10.0

    def __post_init__(self) -> None:
        check_count("depth_limit", self.depth_limit, 1)
        check_count("top_n", self.top_n, 1)
        check_not_bool("refine_percent", self.refine_percent)
        if not 0 < self.refine_percent <= 100:
            raise ValueError("refine_percent must be in (0, 100]")

    @property
    def refine_count(self) -> int:
        return max(1, ceil(self.refine_percent / 100.0 * self.top_n))


@dataclass(frozen=True, slots=True)
class ScoredTriple:
    triple: Triple
    score: float
    depth: int
    seed: EntityId


@dataclass
class TurnRecord:
    seed: EntityId
    depth: int
    candidate_count: int
    frontier: list[EntityId]


@dataclass
class ObservationSubgraph:
    """Ordered, scored, deduplicated triples built by one observe call."""

    entries: list[ScoredTriple] = field(default_factory=list)
    turns: list[TurnRecord] = field(default_factory=list)


def rank_scored_triples(
    groups: Sequence[Sequence[Triple]], kg: KnowledgeGraph, scorer: QuestionScorer
) -> list[list[tuple[float, Triple]]]:
    """Each group's (-score, triple) pairs by descending relation+tail
    similarity to scorer.question, ties broken on the lexicographic triple.

    All groups' texts go to one score_many call, in group order; negation is
    exact, so the pairs sort with no key function."""
    label = kg.label_of
    scores = iter(scorer.score_many(
        [combined_text(label(r), label(t)) for group in groups for _, r, t in group]
    ))
    # the group goes first so that zip stops on it without taking the next
    # group's first score
    return [sorted([(-score, t) for t, score in zip(group, scores)]) for group in groups]


def observe(
    kg: KnowledgeGraph,
    scorer: QuestionScorer,
    entities: Iterable[EntityId],
    params: ObservationParams,
    neighbor_limit: int | None,
) -> ObservationSubgraph:
    """Run the depth-bounded update/refine walk from every seed entity.

    Candidates are scored against scorer.question through scorer: the
    question is embedded once per scorer and each distinct relation+tail
    text is scored once per scorer, however many turns, seeds and calls
    reach it. Seeds missing from the graph contribute nothing.
    """
    seeds = list(dict.fromkeys(entities))
    if not seeds:
        raise ValueError("observe requires at least one seed entity")
    scorer.question_vector()  # first, even when no seed has edges: fixes the provider's call order
    held: dict[Triple, ScoredTriple] = {}  # each triple's first selection, in selection order
    turns: list[TurnRecord] = []
    for seed in seeds:
        _walk(kg, seed, params, neighbor_limit, scorer, held, turns)
    return ObservationSubgraph(list(held.values()), turns)


def _walk(
    kg: KnowledgeGraph,
    seed: EntityId,
    params: ObservationParams,
    neighbor_limit: int | None,
    scorer: QuestionScorer,
    held: dict[Triple, ScoredTriple],
    turns: list[TurnRecord],
) -> None:
    ranked = scorer.ranked
    frontier = [seed]
    visited = {seed}
    for depth in range(params.depth_limit):
        unranked = [entity for entity in frontier if entity not in ranked]
        edges = [kg.get_neighbors(entity, neighbor_limit) for entity in unranked]
        ranked.update(zip(unranked, rank_scored_triples(edges, kg, scorer)))
        lists = [ranked[entity] for entity in frontier]
        candidate_count = sum(map(len, lists))
        if not candidate_count:
            break
        # a triple has one head, so no triple is in two lists: the merge's
        # prefix is the ranking of all candidates as one group
        selected = list(islice(heapq.merge(*lists), params.top_n))
        for negative, triple in selected:
            if triple not in held:
                held[triple] = ScoredTriple(triple, -negative, depth, seed)
        tails = [triple[2] for _, triple in selected[: params.refine_count]]
        frontier = [t for t in dict.fromkeys(tails) if t not in visited]
        visited.update(frontier)
        turns.append(TurnRecord(seed, depth, candidate_count, frontier))
        if not frontier:
            break


def render_observation(observation: ObservationSubgraph, kg: KnowledgeGraph) -> str:
    """Labeled "(head, relation, tail)" tuples in entry order."""
    return ", ".join(kg.render_triple(entry.triple) for entry in observation.entries)
