"""Agent memory as an ordered network of triple chains.

A reflected triple extends the first existing path whose final tail equals
the triple's head; otherwise it starts a new path. Consecutive links in a
path always chain tail -> head.
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

    def __len__(self) -> int:
        return len(self.paths)

    def triple_count(self) -> int:
        return sum(len(path.links) for path in self.paths)

    def is_empty(self) -> bool:
        return not self.paths


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
    """One line per path; links rendered with labels and joined by " -> "."""
    return "\n".join(" -> ".join(map(kg.render_triple, path.links)) for path in memory.paths)


def serialize_memory(memory: Memory) -> str:
    """TSV snapshot: path index, link index, head, relation, tail."""
    lines = []
    for path_index, path in enumerate(memory.paths):
        for link_index, triple in enumerate(path.links):
            lines.append(f"{path_index}\t{link_index}\t{triple.to_tsv()}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_memory(text: str) -> Memory:
    """Inverse of serialize_memory; validates the chaining invariant."""
    grouped: dict[int, list[tuple[int, Triple]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"memory snapshot line {number}: expected 5 fields")
        path_index, link_index = int(fields[0]), int(fields[1])
        grouped.setdefault(path_index, []).append(
            (link_index, Triple(fields[2], fields[3], fields[4]))
        )
    memory = Memory()
    for path_index in sorted(grouped):
        links = [triple for _, triple in sorted(grouped[path_index])]
        memory.paths.append(MemoryPath(links))
    return memory
