"""The iterative observe -> act -> reflect loop for one question.

Each run owns its memory, action history, and trace; the graph, embedding
cache, and providers may be shared across concurrent runs.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from math import inf
from random import Random
from typing import Callable, Iterable, Mapping

from .action import (
    Action,
    ActionAttempt,
    Answer,
    build_answer_prompt,
    choose_action,
    execute_action,
    parse_answer,
    render_action,
)
from .embedding import EmbeddingCache, EmbeddingError, EmbeddingProvider, QuestionScorer
from .kg import EntityId, KnowledgeGraph, Triple, json_object
from .llm import CompletionRequest, LLMProvider, ProviderError
from .memory import Memory, integrate
from .observation import (
    ObservationParams, ObservationSubgraph, ScoredTriple, check_count, check_not_bool, observe,
)
from .reflection import (
    ReflectionParams,
    reflect_generated_fact,
    reflect_random,
    reflect_similarity,
    reflect_with_model,
)


class AgentError(RuntimeError):
    """Provider failure, degenerate embedding or timeout; carries the partial
    trace, whose error it sets to its message."""

    def __init__(self, message: str, trace: "AgentTrace") -> None:
        super().__init__(message)
        trace.error = message
        self.trace = trace


@dataclass
class AgentConfig:
    max_iterations: int = 8
    observation: ObservationParams = field(default_factory=ObservationParams)
    reflection: ReflectionParams = field(default_factory=ReflectionParams)
    path_max_len: int = 3
    temperature: float = 0.4
    max_tokens: int = 500
    neighbor_limit: int | None = 5000
    action_retries: int = 2
    question_timeout: float | None = 300.0
    random_seed: int = 0

    def __post_init__(self) -> None:
        counts = {
            "max_iterations": 1, "path_max_len": 1, "max_tokens": 1, "action_retries": 0,
            "random_seed": None,
        }
        if self.neighbor_limit is not None:
            counts["neighbor_limit"] = 0
        for name, minimum in counts.items():
            check_count(name, getattr(self, name), minimum)
        check_not_bool("temperature", self.temperature)
        check_not_bool("question_timeout", self.question_timeout)
        # NaN compares false, so both tests below reject it
        if not 0 <= self.temperature < inf:
            raise ValueError("temperature must be >= 0 and finite")
        if self.question_timeout is not None and not self.question_timeout >= 0:
            raise ValueError("question_timeout must be >= 0 or null")

    @classmethod
    def from_dict(cls, data: dict) -> "AgentConfig":
        """The config a JSON object gives; ``observation`` and ``reflection``
        are JSON objects too. A missing key keeps its default."""
        data = dict(json_object("top level", data))
        for name, params in (("observation", ObservationParams), ("reflection", ReflectionParams)):
            if name in data:
                data[name] = params(**json_object(name, data[name]))
        return cls(**data)


@dataclass
class Providers:
    llm: LLMProvider
    embedder: EmbeddingProvider
    cache: EmbeddingCache = field(default_factory=EmbeddingCache)


@dataclass
class IterationRecord:
    index: int
    entities: list[EntityId]
    observation: list[ScoredTriple]
    action_prompt: str
    action_response: str
    retries: list[ActionAttempt]
    action: str
    fallback: bool
    outcome_count: int = 0
    reflection_prompt: str | None = None
    reflection_response: str | None = None
    reflected: list[Triple] = field(default_factory=list)
    facts: list[str] = field(default_factory=list)
    memory_snapshot: list[list[Triple]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields as they are, but for what json cannot write as it is."""
        data = {
            **vars(self),
            "observation": [[*e.triple, e.score, e.depth, e.seed] for e in self.observation],
            "retries": [vars(attempt) for attempt in self.retries],
        }
        data["memory"] = data.pop("memory_snapshot")
        return data


@dataclass
class AgentTrace:
    """What the agent did for one question, as written by trace_to_json.

    Every field of this class and of IterationRecord lands in the trace
    file, so a statistic that must stay out of the pinned trace belongs
    elsewhere (on AgentResult, say), not here.
    """

    question: str
    seed_entities: list[EntityId]
    iterations: list[IterationRecord] = field(default_factory=list)
    answer_prompt: str | None = None
    answer_response: str | None = None
    answers: list[str] = field(default_factory=list)
    halted_by: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "iterations": [record.to_dict() for record in self.iterations]}


def trace_to_json(trace: AgentTrace) -> str:
    """Canonical JSON serialization; byte-stable across runs and platforms."""
    return json.dumps(trace.to_dict(), sort_keys=True, ensure_ascii=True, indent=2) + "\n"


@dataclass
class AgentResult:
    answers: list[str]
    halted_by: str  # "answer_action" | "iteration_cap"
    trace: AgentTrace


def run(
    question: str,
    seed_entities: Iterable[EntityId],
    kg: KnowledgeGraph,
    providers: Providers,
    config: AgentConfig | None = None,
) -> AgentResult:
    """Answer one question by looping observe -> act -> reflect.

    Halts when the model chooses the Answer action, or forces an answer from
    accumulated memory once max_iterations is exhausted. Provider failures
    and degenerate embeddings raise AgentError carrying the partial trace.
    """
    config = config or AgentConfig()
    entities = list(dict.fromkeys(seed_entities))
    if not entities:
        raise ValueError("run requires at least one seed entity")
    strategy = config.reflection.strategy
    memory = Memory()
    history: list[Action] = []
    rng = Random(config.random_seed)
    # embeds the question on first use, so no_observation never embeds
    scorer = QuestionScorer(question, providers.embedder, providers.cache)
    trace = AgentTrace(question=question, seed_entities=list(entities))
    deadline = (
        time.monotonic() + config.question_timeout if config.question_timeout else None
    )

    def complete(prompt: str) -> str:
        """The one model call of this run, with the configured sampling settings."""
        request = CompletionRequest(prompt, config.temperature, config.max_tokens)
        return providers.llm.complete(request)

    try:
        for index in range(1, config.max_iterations + 1):
            if deadline is not None and time.monotonic() > deadline:
                raise AgentError(
                    f"question timed out after {config.question_timeout:.0f}s", trace
                )
            if strategy == "no_observation":
                observation = ObservationSubgraph()
            else:
                observation = observe(
                    kg, scorer, entities, config.observation, config.neighbor_limit
                )
            action, attempts, fallback = choose_action(
                complete, question, memory, entities, observation, kg, history,
                max_retries=config.action_retries,
            )
            record = IterationRecord(
                index=index,
                entities=list(entities),
                observation=list(observation.entries),
                action_prompt=attempts[-1].prompt,
                action_response=attempts[-1].response,
                retries=attempts[:-1],
                action=render_action(action),
                fallback=fallback,
            )
            answered = isinstance(action, Answer)
            if not answered:
                outcome = execute_action(
                    kg, action, path_max_len=config.path_max_len,
                    neighbor_limit=config.neighbor_limit,
                )
                history.append(action)
                record.outcome_count = len(outcome)
                kept: list[Triple] = []
                if strategy == "generated_fact":
                    record.facts = reflect_generated_fact(question, config.reflection, complete)
                    memory.facts += record.facts
                elif not outcome:
                    pass  # nothing to reflect on; entities carry over
                elif strategy == "similarity":
                    kept = reflect_similarity(outcome, kg, config.reflection, scorer)
                elif strategy == "random":
                    kept = reflect_random(outcome, config.reflection, rng)
                elif strategy in ("oda", "no_observation"):
                    kept, record.reflection_prompt, record.reflection_response = (
                        reflect_with_model(
                            complete, question, outcome, kg, observation, memory,
                            config.reflection,
                        )
                    )
                if kept:  # the kept tails, first seen first, are the next entities
                    integrate(memory, kept)
                    entities = list(dict.fromkeys(tail for _, _, tail in kept))
                record.reflected = kept
            record.memory_snapshot = [list(path) for path in memory.paths]
            trace.iterations.append(record)
            if answered:
                break

        # the trace takes the answer only once the provider has returned it
        prompt = build_answer_prompt(question, memory, kg)
        response = complete(prompt)
        answers = parse_answer(response)
        trace.answer_prompt, trace.answer_response = prompt, response
        trace.answers = list(answers)
        trace.halted_by = "answer_action" if answered else "iteration_cap"
        return AgentResult(answers, trace.halted_by, trace)
    except (ProviderError, EmbeddingError) as exc:
        raise AgentError(str(exc), trace) from exc


_BOUNDARY_RE = re.compile(r"\b")


def _label_substituter(labels: Mapping[str, str]) -> Callable[[str], str]:
    r"""Replace word-bounded ids by their labels.

    Gives what ``re.sub(r"\b(id|...)\b", ...)`` over all ids sorted longest
    first gives, without building that pattern: scanning word boundaries left
    to right past the last replacement, the longest id that starts at one
    boundary and ends at another is replaced.
    """
    lengths = sorted({len(i) for i in labels}, reverse=True)

    def substitute(text: str) -> str:
        bounds = [match.start() for match in _BOUNDARY_RE.finditer(text)]
        ends = set(bounds)
        pieces, done = [], 0
        for start in bounds:
            if start < done:
                continue
            for length in lengths:
                end = start + length
                label = labels.get(text[start:end]) if end in ends else None
                if label is not None:
                    pieces += (text[done:start], label)
                    done = end
                    break
        return "".join(pieces) + text[done:]

    return substitute


def render_case(trace: AgentTrace, kg: KnowledgeGraph) -> str:
    """Readable transcript with entity ids replaced by their labels.

    Ids are found by a word-bounded, longest-id-first dict lookup, so the
    cost per text does not depend on how many labels the graph has.
    """
    if not trace.iterations and not trace.answers:
        return ""
    substitute = _label_substituter(kg.labels)
    lines = [f"Question: {trace.question}"]
    for record in trace.iterations:
        lines.append(f"--- Iteration {record.index} ---")
        lines.append(substitute(record.action_response))
        lines.append(f"Executed: {substitute(record.action)}")
        if record.reflection_response is not None:
            lines.append(substitute(record.reflection_response))
        if record.reflected:
            lines.append("Reflected: " + ", ".join(map(kg.render_triple, record.reflected)))
        if record.facts:
            lines.extend(record.facts)
    if trace.answers:
        lines.append("Answer: " + ", ".join(trace.answers))
    if trace.error:
        lines.append(f"Error: {trace.error}")
    return "\n".join(lines) + "\n"
