"""Action prompting, response parsing, and knowledge-graph action execution.

Prompt wording lives in external template files (templates/*.txt) with named
slots so it can be edited without touching code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from typing import Callable, Mapping, Sequence, Union

from .kg import EntityId, KnowledgeGraph, Triple
from .memory import Memory, render_memory
from .observation import ObservationSubgraph, render_observation

GETNEIGHBOR_ONLY_NOTE = (
    "\nIf there are less than 2 entityIDs available, only choose the GetNeighbor action."
)


class ActionError(ValueError):
    """The model response holds no usable action: none is recognizable, or
    the one it names breaks the candidate or distinctness rules."""


@dataclass(frozen=True)
class NeighborExploration:
    entity: EntityId


@dataclass(frozen=True)
class PathDiscovery:
    first: EntityId
    second: EntityId

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ActionError("path discovery needs two distinct entities")


@dataclass(frozen=True)
class Answer:
    pass


Action = Union[NeighborExploration, PathDiscovery, Answer]


def render_action(action: Action) -> str:
    if isinstance(action, NeighborExploration):
        return f"GetNeighbor({action.entity})"
    if isinstance(action, PathDiscovery):
        return f"GetPath({action.first}, {action.second})"
    return "Answer"


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return (
        resources.files("kgagent").joinpath("templates", name).read_text(encoding="utf-8")
    )


_SLOT_RE = re.compile(r"\[(\w+)\]")


def fill_template(template: str, slots: Mapping[str, str]) -> str:
    """Replace each ``[Name]`` of the template by ``slots[Name]`` in one pass, so
    no slot is filled inside another's value; an unknown name stays as it is."""
    return _SLOT_RE.sub(lambda match: slots.get(match[1], match[0]), template)


def observed_template(name: str, observation: ObservationSubgraph) -> str:
    """The named template, without its [Observation] line when the subgraph is empty."""
    template = load_template(name)
    if observation.entries:
        return template
    return "\n".join(line for line in template.splitlines() if "[Observation]" not in line) + "\n"


def build_action_prompt(
    question: str,
    memory: Memory,
    candidates: Sequence[EntityId],
    observation: ObservationSubgraph,
    kg: KnowledgeGraph,
    history: Sequence[Action],
) -> str:
    """Fill the action template; see templates/action.txt for the wording.

    The observation line is dropped entirely when the subgraph is empty, and
    the GetNeighbor-only constraint appears only with fewer than 2 candidates.
    """
    if not candidates:
        raise ValueError("build_action_prompt requires at least one candidate entity")
    return fill_template(
        observed_template("action.txt", observation),
        {
            "Question": question,
            "Memory": render_memory(memory, kg),
            "Candidates": ", ".join(candidates),
            "Observation": render_observation(observation, kg),
            "Labels": kg.render_legend(candidates),
            "ActionHistory": ", ".join(map(render_action, history)),
            "GetNeighborOnly": GETNEIGHBOR_ONLY_NOTE if len(candidates) < 2 else "",
        },
    )


_ACTION_RE = re.compile(r"^[ \t]*Action[ \t]*:[ \t]*(\w+)", re.IGNORECASE | re.MULTILINE)
_ENTITY_RE = re.compile(r"^[ \t]*Entity_?id\w*[ \t]*:[ \t]*(.+)$", re.IGNORECASE | re.MULTILINE)


def _resolve_entity(
    token: str, candidates: Sequence[EntityId], labels: Mapping[str, str]
) -> EntityId:
    if token in candidates:
        return token
    folded = token.casefold()
    for candidate in candidates:
        if labels.get(candidate, "").casefold() == folded:
            return candidate
    raise ActionError(f"entity {token!r} is not among the candidate entities")


def parse_action(
    response: str, candidates: Sequence[EntityId], labels: Mapping[str, str]
) -> Action:
    """Extract the Action/Entity_id lines and resolve entities.

    Entities may be given as candidate ids or their labels
    (case-insensitive).
    """
    match = _ACTION_RE.search(response)
    if match is None:
        raise ActionError("response contains no 'Action:' line")
    verb = match.group(1).casefold()
    tokens: list[str] = []
    for line in _ENTITY_RE.findall(response):
        for piece in line.split(","):
            token = piece.strip(" \t[]()\"'.")
            if token:
                tokens.append(token)
    if verb == "answer":
        return Answer()
    if verb == "getneighbor":
        if not tokens:
            raise ActionError("GetNeighbor response has no entity id line")
        return NeighborExploration(_resolve_entity(tokens[0], candidates, labels))
    if verb == "getpath":
        if len(candidates) < 2:
            raise ActionError("GetPath requires at least 2 candidate entities")
        if len(tokens) < 2:
            raise ActionError("GetPath response needs two entity ids")
        first = _resolve_entity(tokens[0], candidates, labels)
        second = _resolve_entity(tokens[1], candidates, labels)
        return PathDiscovery(first, second)
    raise ActionError(f"unknown action verb {match.group(1)!r}")


def execute_action(
    kg: KnowledgeGraph, action: Action, path_max_len: int, neighbor_limit: int | None
) -> list[Triple]:
    """Run a KG action and return its triples.

    Path triples are the concatenated paths, deduplicated with path order
    preserved. Answer is not executable here.
    """
    if isinstance(action, NeighborExploration):
        return kg.get_neighbors(action.entity, limit=neighbor_limit)
    if isinstance(action, PathDiscovery):
        paths = kg.find_paths(action.first, action.second, max_len=path_max_len)
        return list(dict.fromkeys(chain.from_iterable(paths)))
    raise ValueError("Answer carries no KG execution")


def build_answer_prompt(question: str, memory: Memory, kg: KnowledgeGraph) -> str:
    """Fill the answer template (templates/answer.txt) from memory."""
    return fill_template(
        load_template("answer.txt"), {"Memory": render_memory(memory, kg), "Question": question}
    )


_ANSWER_LABEL_RE = re.compile(r"^\s*Answer\s*:\s*", re.IGNORECASE)


def parse_answer(response: str) -> list[str]:
    """Split the model's final answer into a trimmed list of answer texts."""
    text = _ANSWER_LABEL_RE.sub("", response.strip())
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    answers = []
    for piece in re.split(r"[,\n]+", text):
        piece = piece.strip().strip("[]").strip("\"'").strip()
        if piece:
            answers.append(piece)
    return answers


@dataclass
class ActionAttempt:
    prompt: str
    response: str


def choose_action(
    complete: Callable[[str], str],
    question: str,
    memory: Memory,
    candidates: Sequence[EntityId],
    observation: ObservationSubgraph,
    kg: KnowledgeGraph,
    history: Sequence[Action],
    max_retries: int,
) -> tuple[Action, list[ActionAttempt], bool]:
    """Prompt for an action, re-prompting on invalid or repeated choices.

    After max_retries corrections the fallback is NeighborExploration of the
    first candidate; the returned flag marks that case.
    """
    base_prompt = build_action_prompt(question, memory, candidates, observation, kg, history)
    prompt = base_prompt
    attempts: list[ActionAttempt] = []
    for _ in range(max_retries + 1):
        response = complete(prompt)
        attempts.append(ActionAttempt(prompt, response))
        try:
            action = parse_action(response, candidates, labels=kg.labels)
        except ActionError as exc:
            problem = str(exc)
        else:
            if action in history:
                problem = f"the action {render_action(action)} was already executed"
            else:
                return action, attempts, False
        prompt = (
            base_prompt
            + f"\nNote: your previous response was invalid ({problem}). "
            + "Choose again following the required format."
        )
    return NeighborExploration(candidates[0]), attempts, True
