from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path
from typing import Iterable

import pytest

from kgagent.embedding import DeterministicEmbedder
from kgagent.kg import KnowledgeGraph, Triple, load_triples


def write_lines(path: Path, lines: Iterable[str]) -> Path:
    """Write each item of ``lines`` as one line of the file at ``path`` (a
    newline is added to an item without one); return the path."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(line if line.endswith("\n") else line + "\n" for line in lines)
    return path


def load_lines(lines: Iterable[str], label_lines: Iterable[str] | None = None) -> KnowledgeGraph:
    """load_triples of ``lines`` (labeled from ``label_lines``, if given),
    each written to a temporary file by write_lines."""
    with tempfile.TemporaryDirectory() as directory:
        triples = write_lines(Path(directory) / "triples.tsv", lines)
        labels = None if label_lines is None else write_lines(
            Path(directory) / "labels.tsv", label_lines
        )
        return load_triples(triples, labels)


def make_kg(triples: list[tuple[str, str, str]], labels: dict[str, str] | None = None) -> KnowledgeGraph:
    label_lines = [f"{identifier}\t{label}" for identifier, label in (labels or {}).items()]
    return load_lines(("\t".join(triple) for triple in triples), label_lines)


def edges(kg: KnowledgeGraph, head: str | None = None) -> list[Triple]:
    """The edges of kg (of ``head`` only, if given) as triples, in adjacency
    order, read straight from its flat ``[relation, tail, ...]`` lists."""
    heads = kg.adjacency if head is None else [head]
    return [
        (entity, flat[i], flat[i + 1])
        for entity in heads
        for flat in [kg.adjacency.get(entity, [])]
        for i in range(0, len(flat), 2)
    ]


def edge_set(kg: KnowledgeGraph) -> set[Triple]:
    """Every edge of kg, as a fresh set."""
    return set(edges(kg))


def random_kg(rng: random.Random, n_entities: int, n_triples: int, n_relations: int = 6) -> KnowledgeGraph:
    """Random directed multigraph over Q-style ids; duplicates collapse."""
    lines = []
    for _ in range(n_triples):
        head = f"Q{rng.randrange(n_entities)}"
        tail = f"Q{rng.randrange(n_entities)}"
        relation = f"P{rng.randrange(n_relations)}"
        lines.append(f"{head}\t{relation}\t{tail}")
    return load_lines(lines)


TOKYO_TRIPLES = [
    ("Q1490", "P31", "Q50337"),
    ("Q1490", "P36", "Q192724"),
    ("Q1490", "P36", "Q17"),
    ("Q1490", "P17", "Q17"),
    ("Q192724", "P31", "Q494721"),
    ("Q17", "P36", "Q1490"),
]

TOKYO_LABELS = {
    "Q1490": "Tokyo",
    "P31": "instance of",
    "Q50337": "prefecture of Japan",
    "P36": "capital",
    "Q192724": "Shinjuku",
    "Q17": "Japan",
    "P17": "country",
    "Q494721": "special ward of Tokyo",
}

TOKYO_QUESTION = "What is the capital of the prefecture Tokyo ?"

GOETHE_TRIPLES = [
    ("Q5879", "P451", "Q61597"),
    ("Q5879", "P19", "Q1794"),
    ("Q5879", "P106", "Q36180"),
    ("Q61597", "P19", "Q3042"),
    ("Q61597", "P451", "Q5879"),
    ("Q3042", "P17", "Q183"),
]

GOETHE_LABELS = {
    "Q5879": "Johann Wolfgang von Goethe",
    "P451": "unmarried Partner",
    "Q61597": "Lili Schöneman",
    "P19": "place of birth",
    "Q1794": "Frankfurt",
    "P106": "occupation",
    "Q36180": "writer",
    "Q3042": "Offenbach am Main",
    "P17": "country",
    "Q183": "Germany",
}

GOETHE_QUESTION = "Where was the unmarried partner of Johann Wolfgang von Goethe born?"

LONDON_TRIPLES = [
    ("Q1164538", "P840", "Q2009"),
    ("Q1164538", "P840", "Q16"),
    ("Q1164538", "P840", "Q30"),
    ("Q1164538", "P840", "Q797"),
    ("Q1164538", "P50", "Q45765"),
    ("Q1164538", "P156", "Q208143"),
    ("Q208143", "P840", "Q2009"),
    ("Q208143", "P840", "Q16"),
    ("Q208143", "P50", "Q45765"),
    ("Q45765", "P19", "Q62"),
]

LONDON_LABELS = {
    "Q1164538": "The Call of the Wild",
    "Q208143": "White Fang",
    "P840": "Narrative location",
    "Q2009": "Yukon",
    "Q16": "Canada",
    "Q30": "United States of America",
    "Q797": "Alaska",
    "P50": "author",
    "Q45765": "Jack London",
    "P156": "followed by",
    "P19": "place of birth",
    "Q62": "San Francisco",
}

LONDON_QUESTION = (
    "Where are both The Call of the Wild and White Fang set, "
    "the most two famous works of Jack London?"
)


@pytest.fixture
def tokyo_kg() -> KnowledgeGraph:
    return make_kg(TOKYO_TRIPLES, TOKYO_LABELS)


@pytest.fixture
def goethe_kg() -> KnowledgeGraph:
    return make_kg(GOETHE_TRIPLES, GOETHE_LABELS)


@pytest.fixture
def london_kg() -> KnowledgeGraph:
    return make_kg(LONDON_TRIPLES, LONDON_LABELS)


@pytest.fixture
def embedder() -> DeterministicEmbedder:
    return DeterministicEmbedder(seed=7, dimension=32)


@pytest.fixture
def datadir() -> Path:
    return Path(__file__).parent / "data"


# Scripted transcripts for the fixture questions, mirroring the worked case
# studies the agent must replay. Each entry matches the next expected request.

TOKYO_SCRIPT = [
    (
        "substring",
        "Candidate EntityIDs: Q1490",
        "Thought: The question is asking for the capital of the prefecture Tokyo. "
        "The candidate entity ID 'Q1490' corresponds to Tokyo. I can see from the "
        "observation that there is a triple (Tokyo, capital, Shinjuku) which might "
        "answer the question. However, to confirm this, I will execute a GetNeighbor "
        "action on 'Q1490' to get all the triples where Tokyo is the head.\n"
        "Action: GetNeighbor\n"
        "Entity_id: Tokyo",
    ),
    (
        "substring",
        "select related triples",
        "Thought: The question is asking for the capital of Tokyo. From the "
        "observation, we can see that Tokyo is the capital of Japan and it is a "
        "prefecture of Japan. The capital of Tokyo is Shinjuku. Therefore, we should "
        "select the triples that contain this information.\n"
        "Triples: Q1490,P31,Q50337\nQ1490,P36,Q192724\nQ1490,P36,Q17",
    ),
    (
        "substring",
        "Candidate EntityIDs: Q50337, Q192724, Q17",
        "Thought: The question is asking for the capital of the prefecture Tokyo. "
        "From the reference memory, it is stated that the capital of Tokyo is "
        "Shinjuku. Therefore, the answer to the question is Shinjuku.\n"
        "Action: Answer",
    ),
    ("substring", "reference memory", "Shinjuku"),
]

GOETHE_SCRIPT = [
    (
        "substring",
        "Candidate EntityIDs: Q5879",
        "Thought: I should look at the neighbors of Johann Wolfgang von Goethe to "
        "find the unmarried partner.\n"
        "Action: GetNeighbor\n"
        "Entity_id: Q5879",
    ),
    (
        "substring",
        "select related triples",
        "Thought: The unmarried partner triple is the relevant one.\n"
        "Triples: Q5879,P451,Q61597",
    ),
    (
        "substring",
        "Candidate EntityIDs: Q61597",
        "Thought: Now I need the place of birth of Lili Schöneman.\n"
        "Action: GetNeighbor\n"
        "Entity_id: Q61597",
    ),
    (
        "substring",
        "select related triples",
        "Thought: The place of birth triple answers the question.\n"
        "Triples: Q61597,P19,Q3042",
    ),
    (
        "substring",
        "Candidate EntityIDs: Q3042",
        "Thought: The memory states that Lili Schöneman was born in Offenbach am "
        "Main, which answers the question.\n"
        "Action: Answer",
    ),
    ("substring", "reference memory", "Offenbach am Main"),
]

LONDON_SCRIPT = [
    (
        "substring",
        "Candidate EntityIDs: Q1164538, Q208143",
        "Thought: The question asks about the setting of two works, The Call of the "
        "Wild and White Fang, both by Jack London. The observation provides some "
        "information about the narrative locations of these works, but to confirm "
        "and provide a specific answer, I will use the GetNeighbor function on The "
        "Call of the Wild.\n"
        "Action: GetNeighbor\n"
        "Entity_id: The Call of the Wild",
    ),
    (
        "substring",
        "select related triples",
        "Thought: I will focus on the triples related to the locations of the two "
        "works and the link to White Fang.\n"
        "Triples: Q1164538,P840,Q2009\nQ1164538,P840,Q16\nQ1164538,P156,Q208143",
    ),
    (
        "substring",
        "Candidate EntityIDs: Q2009, Q16, Q208143",
        "Thought: We don't have the narrative location for White Fang. Therefore, I "
        "will use the GetNeighbor function on the entityID of White Fang to find its "
        "narrative location.\n"
        "Action: GetNeighbor\n"
        "Entity_id: White Fang",
    ),
    (
        "substring",
        "select related triples",
        "Thought: There are two triples that indicate a narrative location for White "
        "Fang.\n"
        "Triples: Q208143,P840,Q2009\nQ208143,P840,Q16",
    ),
    (
        "substring",
        "Candidate EntityIDs: Q2009, Q16",
        "Thought: The common locations for both books are Canada and Yukon.\n"
        "Action: Answer",
    ),
    ("substring", "reference memory", "[Canada, Yukon]"),
]


def make_script_provider(script: list[tuple[str, str, str]], sequential: bool = True):
    from kgagent.llm import ScriptedProvider, ScriptEntry

    return ScriptedProvider(
        [ScriptEntry(kind, match, response) for kind, match, response in script],
        sequential=sequential,
    )


def save_script(entries, path: str | Path) -> None:
    """Write ScriptEntry objects as the JSONL script files that load_script reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for entry in entries:
            handle.write(json.dumps(vars(entry), sort_keys=True) + "\n")


def save_dataset(records, path: str | Path) -> None:
    """Write DatasetRecord objects as the JSONL dataset files that load_dataset reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            data = {
                "question": record.question,
                "entities": record.seed_entities,
                "answers": record.gold_answers,
            }
            handle.write(json.dumps(data, sort_keys=True, ensure_ascii=True) + "\n")


def make_request(prompt: str):
    """A CompletionRequest with AgentConfig's default sampling settings."""
    from kgagent.agent import AgentConfig
    from kgagent.llm import CompletionRequest

    config = AgentConfig()
    return CompletionRequest(prompt, config.temperature, config.max_tokens)


def complete_with(provider):
    """A step's complete(prompt), sending make_request's requests to provider."""
    return lambda prompt: provider.complete(make_request(prompt))


def make_providers(script: list[tuple[str, str, str]], sequential: bool = True, seed: int = 7):
    from kgagent.agent import Providers

    return Providers(
        llm=make_script_provider(script, sequential=sequential),
        embedder=DeterministicEmbedder(seed=seed, dimension=32),
    )


class QuestionRoutedLLM:
    """One sequential ScriptedProvider per question: each request goes to the
    script of the question that its prompt contains (every template fills
    [Question]), so one Providers serves a whole eval, in any order and on any
    number of workers."""

    def __init__(self, scripts: dict[str, list[tuple[str, str, str]]]) -> None:
        self.providers = {
            question: make_script_provider(script) for question, script in scripts.items()
        }

    def complete(self, request) -> str:
        from kgagent.llm import ProviderError

        for question, provider in self.providers.items():
            if question in request.prompt:
                return provider.complete(request)
        raise ProviderError(f"no script for the question of request:\n{request.prompt[:400]}")


def make_routed_providers(scripts: dict[str, list[tuple[str, str, str]]]):
    """Providers whose LLM is a fresh QuestionRoutedLLM over scripts."""
    from kgagent.agent import Providers

    return Providers(
        llm=QuestionRoutedLLM(scripts), embedder=DeterministicEmbedder(seed=7, dimension=32)
    )


class QueuedSession:
    """A requests session that yields queued responses (or raises queued
    exceptions), one per post call, and records each call."""

    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class ConstantEmbedder:
    """Embeds every text as the same vector, e.g. all zeros or all NaN."""

    def __init__(self, value: float, dimension: int = 8) -> None:
        self.value = value
        self.dimension = dimension

    def embed(self, text: str) -> tuple[float, ...]:
        return (self.value,) * self.dimension


# (candidates, action responses) re-typed from the fixture transcripts, for
# checking that parse_action is total and exact on every scripted action turn.
FIXTURE_ACTION_TURNS = [
    (TOKYO_SCRIPT[0][2], ["Q1490"], TOKYO_LABELS),
    (TOKYO_SCRIPT[2][2], ["Q50337", "Q192724", "Q17"], TOKYO_LABELS),
    (GOETHE_SCRIPT[0][2], ["Q5879"], GOETHE_LABELS),
    (GOETHE_SCRIPT[2][2], ["Q61597"], GOETHE_LABELS),
    (GOETHE_SCRIPT[4][2], ["Q3042"], GOETHE_LABELS),
    (LONDON_SCRIPT[0][2], ["Q1164538", "Q208143"], LONDON_LABELS),
    (LONDON_SCRIPT[2][2], ["Q2009", "Q16", "Q208143"], LONDON_LABELS),
    (LONDON_SCRIPT[4][2], ["Q2009", "Q16"], LONDON_LABELS),
]
