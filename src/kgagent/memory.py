"""Agent memory: an ordered network of triple chains, then generated facts.

A reflected triple extends the first existing path whose final tail equals
the triple's head; otherwise it starts a new path. Consecutive links in a
path always chain tail -> head. Facts are sentences the model wrote in
place of KG reflection (the generated_fact strategy); they render after
the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .kg import KnowledgeGraph, Triple


@dataclass
class MemoryPath:
    links: list[Triple]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a memory path cannot be empty")
        if not self.is_chained():
            raise ValueError("memory path links must chain tail -> head")

    def is_chained(self) -> bool:
        return all(
            self.links[i].tail == self.links[i + 1].head for i in range(len(self.links) - 1)
        )

    @property
    def tail(self) -> str:
        return self.links[-1].tail


@dataclass
class Memory:
    paths: list[MemoryPath] = field(default_factory=list)
    facts: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.paths)


def integrate(memory: Memory, reflected: Iterable[Triple]) -> Memory:
    """Fold reflected triples into the path network, in order.

    Each triple goes to the first path (creation order) whose last tail
    equals the triple's head; with no match a new path is appended. A triple
    identical to the matched path's last link is skipped.
    """
    for triple in reflected:
        for path in memory.paths:
            if path.tail == triple.head:
                if path.links[-1] != triple:
                    path.links.append(triple)
                break
        else:
            memory.paths.append(MemoryPath([triple]))
    return memory


def render_memory(memory: Memory, kg: KnowledgeGraph) -> str:
    """One line per path, links rendered with labels and joined by " -> ", then one per fact."""
    chains = (" -> ".join(map(kg.render_triple, path.links)) for path in memory.paths)
    return "\n".join([*chains, *memory.facts])
