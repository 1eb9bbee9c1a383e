"""Agent memory: an ordered network of triple chains, then generated facts.

A path is a list of triples. A reflected triple extends the first existing
path whose final tail equals the triple's head; otherwise it starts a new
path, so consecutive links in a path always chain tail -> head. Facts are
sentences the model wrote in place of KG reflection (the generated_fact
strategy); they render after the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .kg import KnowledgeGraph, Triple


@dataclass
class Memory:
    paths: list[list[Triple]] = field(default_factory=list)
    facts: list[str] = field(default_factory=list)


def integrate(memory: Memory, reflected: Iterable[Triple]) -> Memory:
    """Fold reflected triples into the path network, in order.

    Each triple goes to the first path (creation order) whose last tail
    equals the triple's head; with no match a new path is appended. A triple
    identical to the matched path's last link is skipped.
    """
    for triple in reflected:
        for path in memory.paths:
            if path[-1][2] == triple[0]:
                if path[-1] != triple:
                    path.append(triple)
                break
        else:
            memory.paths.append([triple])
    return memory


def render_memory(memory: Memory, kg: KnowledgeGraph) -> str:
    """One line per path, links rendered with labels and joined by " -> ", then one per fact."""
    chains = (" -> ".join(map(kg.render_triple, path)) for path in memory.paths)
    return "\n".join([*chains, *memory.facts])
