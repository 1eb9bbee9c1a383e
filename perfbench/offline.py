"""Offline stand-ins for the live providers.

``RuleLLM`` answers the agent's three prompt kinds (action, reflection,
answer) as a deterministic function of the prompt text and the workload's
planted answers (``planted.json``). ``FakeEmbeddingSession`` and
``FakeChatSession`` take the place of ``requests.Session`` so that
``HttpEmbedder`` and ``HttpChatProvider`` run their real client code, and
count every round trip.
"""

from __future__ import annotations

import json
import re

# The fake servers' ``post`` takes a ``json`` keyword, as requests does.
_dumps = json.dumps

INVALID_ACTION = "I am not sure which tool fits this question."
RETRY_NOTE = "\nNote: your previous response was invalid ("

_NEIGHBOR_RE = re.compile(r"GetNeighbor\(([^)]*)\)")
_PATH_RE = re.compile(r"GetPath\(([^,)]*), ([^)]*)\)")
_QUESTION_RE = re.compile(r"\(#(\d+)\)")
_TRIAD_RE = re.compile(r"\(([^()]*)\)")


def _between(text: str, start: str, end: str) -> str:
    begin = text.index(start) + len(start)
    return text[begin : text.index(end, begin)]


class _Question:
    def __init__(self, record: dict, mode: str) -> None:
        self.index = record["index"]
        self.profile = record["profile"]
        self.gold = record["gold"]
        self.gold_marker = f", {record['gold']})"
        self.chain = {tuple(t): position for position, t in enumerate(record["chain"])}
        self.links = {tuple(t) for t in record["links"]}
        self.depth = {t[2]: position + 1 for position, t in enumerate(record["chain"])}
        self.target = record["target"]
        self.path_mode = mode == "path"
        # Unique, never a candidate: the parser must drop it.
        self.fake = (f"S{self.index}", "R0", f"Z{self.index}")


class RuleLLM:
    """Deterministic chat model for the benchmark workloads.

    Action prompts: Answer once the gold label is in Memory; otherwise explore
    the deepest planted chain node among the candidates (GetNeighbor, or
    GetPath towards the planted target in path mode), else the first
    unexplored candidate or pair. Reflection prompts: echo up to K id triads,
    planted chain and link triads first. Answer prompts: the gold label if it
    is in Memory, else "unknown". The question's profile adds invalid actions
    and hallucinated triads.
    """

    def __init__(self, planted: dict) -> None:
        mode = planted["mode"]
        self.questions = {q["index"]: _Question(q, mode) for q in planted["questions"]}
        self.calls = 0
        self.prompt_chars = 0
        self.response_chars = 0

    def complete(self, request) -> str:
        """``LLMProvider`` entry point."""
        return self.respond(request.text())

    def respond(self, text: str) -> str:
        question = self.questions[int(_QUESTION_RE.search(text).group(1))]
        if text.startswith("Agent Instructions:"):
            reply = self._action(text, question)
        elif "You queried some candidate triples " in text:
            reply = self._reflect(text, question)
        elif text.startswith("You are a agent that answer"):
            reply = self._answer(text, question)
        else:
            raise ValueError(f"unrecognised prompt: {text[:80]!r}")
        self.calls += 1
        self.prompt_chars += len(text)
        self.response_chars += len(reply)
        return reply

    def _action(self, text: str, q: _Question) -> str:
        if q.gold_marker in _between(text, "\nMemory: ", "\nCandidate EntityIDs: "):
            return "Action: Answer"
        history = _between(text, "\nAction History: ", " (Avoid these actions)")
        if not history and (
            q.profile == "fallback" or (q.profile == "retry" and RETRY_NOTE not in text)
        ):
            return INVALID_ACTION
        candidates = _between(text, "\nCandidate EntityIDs: ", " (Choose 1 or 2").split(", ")
        neighbors = set(_NEIGHBOR_RE.findall(history))
        paths = set(_PATH_RE.findall(history))
        on_chain = [c for c in candidates if c in q.depth]
        deepest = max(on_chain, key=q.depth.__getitem__) if on_chain else None
        if q.path_mode:
            target = q.target
            if deepest and target in candidates and (deepest, target) not in paths:
                return f"Action: GetPath\nEntity_id: {deepest}, {target}"
            for i, first in enumerate(candidates):
                for second in candidates[i + 1 :]:
                    if (first, second) not in paths:
                        return f"Action: GetPath\nEntity_id: {first}, {second}"
        for candidate in ([deepest] if deepest else []) + candidates:
            if candidate not in neighbors:
                return f"Action: GetNeighbor\nEntity_id: {candidate}"
        return "Action: Answer"

    def _reflect(self, text: str, q: _Question) -> str:
        k_max = int(_between(text, "You can select less than ", " triples"))
        shown = _between(
            text,
            "You queried some candidate triples ",
            " from last action step and their corresponding labels: ",
        )
        legend = _between(
            text, "their corresponding labels: ", " from the KB based on the question: "
        )
        ids = {}
        for item in legend.split(", "):
            identifier, label = item.split(": ", 1)
            ids[label] = identifier
        chain, links, rest = [], [], []
        for labels in shown[1:-1].split("), ("):
            triad = tuple(ids[label] for label in labels.split(", "))
            if triad in q.chain:
                chain.append(triad)
            elif triad in q.links:
                links.append(triad)
            else:
                rest.append(triad)
        if q.profile == "empty" and not chain:
            picked = [q.fake, (q.fake[0], "R1", q.fake[2]), (q.fake[0], "R2", q.fake[2])]
        else:
            chain.sort(key=q.chain.__getitem__)
            picked = (chain + links + rest)[:k_max]
            if q.profile == "drop":
                picked = picked[: k_max - 1] + [q.fake]
        return "\n".join(f"({h}, {r}, {t})" for h, r, t in picked)

    def _answer(self, text: str, q: _Question) -> str:
        memory = _between(text, "Here are the reference memory: ", ". You can use it")
        return f"Answer: {q.gold}" if q.gold_marker in memory else "Answer: unknown"


def count_triads(response: str) -> int:
    """Id triads in a reflection response, as the reflection parser sees them."""
    return sum(1 for group in _TRIAD_RE.findall(response) if len(group.split(",")) == 3)


class FakeResponse:
    """The subset of ``requests.Response`` the HTTP clients use."""

    def __init__(self, body: str, status_code: int = 200) -> None:
        self.status_code = status_code
        self.text = body

    def json(self):
        return json.loads(self.text)

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")


class FakeEmbeddingSession:
    """OpenAI-style ``/embeddings`` server in process; a batch is one request."""

    def __init__(self, embedder) -> None:
        self.embedder = embedder
        self.requests = 0

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        if not url.endswith("/embeddings"):
            return FakeResponse('{"error": "not found"}', 404)
        inputs = json["input"]
        batch = inputs if isinstance(inputs, list) else [inputs]
        self.requests += 1
        data = [
            {"index": i, "embedding": list(self.embedder.embed(text))}
            for i, text in enumerate(batch)
        ]
        return FakeResponse(_dumps({"data": data, "model": json["model"]}))


class FakeChatSession:
    """OpenAI-style ``/chat/completions`` server in process, backed by RuleLLM."""

    def __init__(self, llm: RuleLLM) -> None:
        self.llm = llm

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        if not url.endswith("/chat/completions"):
            return FakeResponse('{"error": "not found"}', 404)
        reply = self.llm.respond("\n".join(m["content"] for m in json["messages"]))
        return FakeResponse(
            _dumps({"choices": [{"message": {"role": "assistant", "content": reply}}]})
        )
