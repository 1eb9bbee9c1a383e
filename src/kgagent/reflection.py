"""Reflection: selecting up to k_max triples from an action's output, plus
the ablation strategies (similarity ranking, seeded random pick, free-text
generated facts). Each triple strategy returns the kept triples as a list."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Callable, Sequence

from .embedding import QuestionScorer
from .kg import KnowledgeGraph, Triple
from .action import fill_template, observed_template
from .memory import Memory, render_memory
from .observation import ObservationSubgraph, check_count, rank_scored_triples, render_observation

logger = logging.getLogger(__name__)

STRATEGIES = ("oda", "similarity", "random", "generated_fact", "no_observation")

GENERATED_FACTS_PROMPT = (
    "You are an agent that answers questions using your own knowledge.\n"
    "Write up to [KMax] short factual statements related to the question: [Question].\n"
    "One fact per line, with no numbering and no extra commentary."
)


@dataclass
class ReflectionParams:
    k_max: int = 15
    strategy: str = "oda"

    def __post_init__(self) -> None:
        check_count("k_max", self.k_max, 1)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")


def build_reflection_prompt(
    question: str,
    candidates: Sequence[Triple],
    kg: KnowledgeGraph,
    observation: ObservationSubgraph,
    memory: Memory,
    k_max: int,
) -> str:
    """Fill the reflection template; see templates/reflection.txt.

    Candidates render as labeled tuples with an id-to-label legend so the
    model can echo raw id triads. The observation line is omitted entirely
    when the subgraph is empty.
    """
    if not candidates:
        raise ValueError("build_reflection_prompt requires candidate triples")
    return fill_template(
        observed_template("reflection.txt", observation),
        {
            "Triples": ", ".join(map(kg.render_triple, candidates)),
            "EntityLabels": kg.render_legend(chain.from_iterable(candidates)),
            "Question": question,
            "Observation": render_observation(observation, kg),
            "Memory": render_memory(memory, kg),
            "KMax": str(k_max),
        },
    )


_TRIAD_PAREN_RE = re.compile(r"\(([^()]*)\)")
_TRIPLES_LEAD_RE = re.compile(r"^\s*Triples?\s*:\s*", re.IGNORECASE)


def _iter_triads(text: str):
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        line = _TRIPLES_LEAD_RE.sub("", line)
        groups = _TRIAD_PAREN_RE.findall(line)
        pieces = groups if groups else [line]
        for piece in pieces:
            parts = [part.strip().strip("\"'").strip() for part in piece.split(",")]
            if len(parts) == 3 and all(parts):
                yield tuple(parts)


def parse_reflected(
    response: str, candidates: Sequence[Triple], params: ReflectionParams
) -> list[Triple]:
    """Keep candidate id-triads from the response, capped at k_max.

    Triads absent from the candidates (hallucinations) are dropped and
    logged; repeats keep their first position. An empty result signals the
    agent to keep its previous task-relevant entities.
    """
    candidate_set = set(candidates)
    kept: dict[Triple, None] = {}
    for triple in _iter_triads(response):  # plain tuples, as the graph's edges are
        if triple in candidate_set:
            kept[triple] = None
        else:
            logger.info("dropping reflected triple not in candidates: %s", "\t".join(triple))
    return list(kept)[: params.k_max]


def reflect_with_model(
    complete: Callable[[str], str],
    question: str,
    candidates: Sequence[Triple],
    kg: KnowledgeGraph,
    observation: ObservationSubgraph,
    memory: Memory,
    params: ReflectionParams,
) -> tuple[list[Triple], str, str]:
    """Full prompt/complete/parse round trip; returns (kept, prompt, response)."""
    prompt = build_reflection_prompt(
        question, candidates, kg, observation, memory, k_max=params.k_max
    )
    response = complete(prompt)
    return parse_reflected(response, candidates, params), prompt, response


def reflect_similarity(
    candidates: Sequence[Triple],
    kg: KnowledgeGraph,
    params: ReflectionParams,
    scorer: QuestionScorer,
) -> list[Triple]:
    """The first k_max candidates in rank_scored_triples' order, the ranking
    observation uses; both share the scorer's memoized scores."""
    (ranking,) = rank_scored_triples([candidates], kg, scorer)
    return [triple for _, triple in ranking[: params.k_max]]


def reflect_random(
    candidates: Sequence[Triple], params: ReflectionParams, rng: Random
) -> list[Triple]:
    """Uniform sample without replacement of min(k_max, n) candidates."""
    return rng.sample(list(candidates), min(params.k_max, len(candidates)))


def reflect_generated_fact(
    question: str, params: ReflectionParams, complete: Callable[[str], str]
) -> list[str]:
    """Ask the model for up to k_max free-text facts about the question.

    Facts live in a separate text lane, never in the path memory.
    """
    prompt = fill_template(
        GENERATED_FACTS_PROMPT, {"KMax": str(params.k_max), "Question": question}
    )
    response = complete(prompt)
    facts = []
    for line in response.splitlines():
        line = re.sub(r"^\s*(?:[-*]|\d+[.)])\s*", "", line).strip()
        if line:
            facts.append(line)
    return facts[: params.k_max]
