"""Span and counter recording around kgagent's public functions.

Nothing inside ``src/`` is changed: ``Instrumentation`` swaps each public
function (or method) for a wrapper while a traced pass runs, and puts the
originals back afterwards. A wrapper records the call's duration and the part
of it its child calls covered, so every name gets a self time. Calls made
once per candidate (``leaf=True``) only add to their name's count and self
time; every other call is also kept as a span (id, parent id, name, start,
end, question index) in memory.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field

LAYERS = (
    "kg", "embedding", "observation", "action", "llm",
    "reflection", "memory", "agent", "evaluation",
)


@dataclass
class Stat:
    calls: int = 0
    self_time: float = 0.0
    errors: int = 0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    stats: dict[str, Stat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    request: int | None = None
    observe_texts: set | None = None
    last_observe: tuple | None = None
    _stack: list[list] = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, function, name: str, leaf: bool = False, hook=None):
        """Return ``function`` wrapped so each call is recorded under ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after a successful call
        to derive counters from the arguments or the result.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [0.0, 0.0, len(tracer.spans) if not leaf else None]
            if not leaf:
                tracer.spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            failed = True
            frame[0] = start = tracer.clock()
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                stat = tracer.stats.get(name)
                if stat is None:
                    stat = tracer.stats[name] = Stat()
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if failed:
                    stat.errors += 1
                if parent is not None:
                    parent[1] += duration
                if not leaf:
                    parent_id = parent[2] if parent is not None else None
                    tracer.spans[frame[2]] = (
                        frame[2], parent_id, name, start, end, tracer.request
                    )
                if hook is not None and not failed:
                    hook(tracer, args, kwargs, result)

        traced.__wrapped__ = function
        return traced

    def root_time(self) -> float:
        """Summed duration of spans without a parent."""
        return sum(span[4] - span[3] for span in self.spans if span and span[1] is None)

    def self_total(self) -> float:
        return sum(stat.self_time for stat in self.stats.values())

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat.self_time
        return totals


class Instrumentation:
    """Installs tracer wrappers on kgagent's modules, classes and instances.

    A module-level function is replaced in every kgagent module that holds a
    reference to it, since the modules import each other's functions by name.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def function(self, module, name: str, span: str, leaf: bool = False, hook=None,
                 body=None) -> None:
        """Wrap ``module.name`` (or ``body`` in its place) wherever it is held."""
        original = getattr(module, name)
        wrapper = self.tracer.wrap(body or original, span, leaf, hook)
        for holder in _modules():
            if getattr(holder, name, None) is original:
                self._set(holder, name, wrapper)

    def method(self, owner, name: str, span: str, leaf: bool = False, hook=None) -> None:
        """Wrap a method on a class or on one instance."""
        self._set(owner, name, self.tracer.wrap(getattr(owner, name), span, leaf, hook))

    def _set(self, owner, name: str, value) -> None:
        had_own = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._undo.clear()


def _modules():
    import kgagent
    from kgagent import action, agent, embedding, evaluation, kg, llm, memory
    from kgagent import observation, reflection

    return (kgagent, kg, embedding, observation, memory, llm, action, reflection, agent,
            evaluation)


# Hooks: derive the per-layer counters at the layer boundary.

def _neighbors(tracer, args, kwargs, result):
    tracer.count("kg.get_neighbors.triples", len(result))


def _paths(tracer, args, kwargs, result):
    tracer.count("kg.find_paths.paths", len(result))


def _texts_one(tracer, args, kwargs, result):
    tracer.count("embedding.provider.texts")


def _texts_many(tracer, args, kwargs, result):
    tracer.count("embedding.provider.texts", len(result))


def _cache_get(tracer, args, kwargs, result):
    tracer.count("embedding.cache.misses" if result is None else "embedding.cache.hits")


def _score(tracer, args, kwargs, result):
    texts = tracer.observe_texts
    if texts is not None:
        texts.add(f"{args[1]} {args[2]}")


def _observe(tracer, args, kwargs, result):
    tracer.count("observation.candidates_scored",
                 sum(turn.candidate_count for turn in result.turns))
    tracer.count("observation.distinct_texts", len(tracer.observe_texts))
    tracer.observe_texts = None
    key = (tracer.request, args[1], tuple(args[2]))
    if key == tracer.last_observe:
        tracer.count("observation.repeat_calls")
    tracer.last_observe = key


def _prompt(counter):
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, len(result))

    return hook


def _llm(tracer, args, kwargs, result):
    tracer.count("llm.prompt_chars", len(args[0].text()))
    tracer.count("llm.response_chars", len(result))


def install(tracer: Tracer, providers) -> Instrumentation:
    """Wrap every layer's public entry points for one traced pass."""
    from kgagent import action, agent, embedding, evaluation, memory, observation
    from kgagent import reflection
    from kgagent.kg import KnowledgeGraph

    patch = Instrumentation(tracer)
    patch.method(KnowledgeGraph, "get_neighbors", "kg.get_neighbors", True, _neighbors)
    patch.method(KnowledgeGraph, "find_paths", "kg.find_paths", hook=_paths)

    patch.method(providers.embedder, "embed", "embedding.provider", True, _texts_one)
    if hasattr(providers.embedder, "embed_many"):
        patch.method(providers.embedder, "embed_many", "embedding.provider", True, _texts_many)
    if providers.cache is not None:
        patch.method(providers.cache, "get", "embedding.cache.get", True, _cache_get)
        patch.method(providers.cache, "put", "embedding.cache.put", True)
    patch.function(embedding, "cosine", "embedding.cosine", True)
    patch.function(embedding, "score_candidate", "embedding.score_candidate", True, _score)

    observe = observation.observe

    def observe_collecting_texts(*args, **kwargs):
        tracer.observe_texts = set()
        return observe(*args, **kwargs)

    patch.function(observation, "observe", "observation.observe", hook=_observe,
                   body=observe_collecting_texts)
    patch.function(observation, "rank_scored_triples", "observation.rank")
    patch.function(observation, "render_observation", "observation.render")

    patch.function(action, "choose_action", "action.choose")
    patch.function(action, "build_action_prompt", "action.build_prompt",
                   hook=_prompt("action.prompt_chars"))
    patch.function(action, "parse_action", "action.parse")
    patch.function(action, "execute_action", "action.execute",
                   hook=_prompt("action.outcome_triples"))
    patch.function(action, "build_answer_prompt", "action.build_answer_prompt")
    patch.function(action, "parse_answer", "action.parse_answer")

    patch.method(providers.llm, "complete", "llm.complete", hook=_llm)

    patch.function(reflection, "reflect_with_model", "reflection.reflect_with_model")
    patch.function(reflection, "build_reflection_prompt", "reflection.build_prompt",
                   hook=_prompt("reflection.prompt_chars"))
    patch.function(reflection, "parse_reflected", "reflection.parse")
    patch.function(reflection, "reflect_similarity", "reflection.similarity")

    patch.function(memory, "integrate", "memory.integrate")
    patch.function(memory, "render_memory", "memory.render")

    patch.function(agent, "run", "agent.run")
    patch.function(agent, "trace_to_json", "agent.trace_json")
    patch.function(agent, "render_case", "agent.render_case")

    patch.function(evaluation, "run_eval", "evaluation.run_eval")
    patch.function(evaluation, "score_hit", "evaluation.score")
    traced_write = {
        True: tracer.wrap(pathlib.Path.write_text, "evaluation.trace_write"),
        False: tracer.wrap(pathlib.Path.write_text, "evaluation.report_write"),
    }

    def write_text(path, *args, **kwargs):
        return traced_write[path.parent.name == "traces"](path, *args, **kwargs)

    patch._set(pathlib.Path, "write_text", write_text)
    return patch
