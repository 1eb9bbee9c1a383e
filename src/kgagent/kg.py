"""In-memory triple store: TSV loading, neighbor and path queries, and k-hop
subgraph extraction.

A graph is built in one step, by load_triples (edges and optional labels) or
extract_khop_subgraph, each calling the KnowledgeGraph constructor once, and
never changes afterwards, so it may be shared freely across threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator

EntityId = str
RelationId = str

TRIPLES_FILENAME = "triples.tsv"
LABELS_FILENAME = "labels.tsv"


class InputError(ValueError):
    """A malformed input file or line; carries the 1-based line number. The
    message names the line, led by the file's path when the input was read
    from one."""

    def __init__(self, message: str, line_number: int, path: str | Path | None = None) -> None:
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number


# One directed edge (head, relation, tail), read by position. An edge is a
# plain tuple, never a tuple subclass: the cyclic garbage collector untracks
# an exact tuple of strings at its first collection, so later collections do
# not walk the whole graph again.
Triple = tuple[EntityId, RelationId, EntityId]


@dataclass
class KnowledgeGraph:
    """Directed labeled graph with head-indexed adjacency and a label map.

    Adjacency is the only edge store: each edge is held once, as a plain
    ``(head, relation, tail)`` tuple, in the list of its head, in first-seen
    load order, and no list holds a duplicate.
    """

    adjacency: dict[EntityId, list[Triple]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(map(len, self.adjacency.values()))

    def label_of(self, identifier: str) -> str:
        """Human-readable label, falling back to the raw id."""
        return self.labels.get(identifier, identifier)

    def render_triple(self, triple: Triple) -> str:
        """Labeled "(head, relation, tail)"."""
        label = self.labels.get
        head, relation, tail = triple
        return f"({label(head, head)}, {label(relation, relation)}, {label(tail, tail)})"

    def render_legend(self, identifiers: Iterable[str]) -> str:
        """Comma-separated "id: label" pairs, each id once in first-seen order."""
        return ", ".join(f"{i}: {self.label_of(i)}" for i in dict.fromkeys(identifiers))

    def get_neighbors(self, entity: EntityId, limit: int | None = None) -> list[Triple]:
        """Triples with the given entity as head, in load order.

        Unknown entities yield an empty list. ``limit`` truncates hub
        entities; None means unlimited.
        """
        return self.adjacency.get(entity, [])[:limit]

    @cached_property
    def _in_edges(self) -> dict[EntityId, list[Triple]]:
        """Tail -> triples in adjacency order, stored only once whole, so threads
        never see a partial index; no field, so == and repr ignore it."""
        in_edges: dict[EntityId, list[Triple]] = {}
        for triples in self.adjacency.values():
            for triple in triples:
                in_edges.setdefault(triple[2], []).append(triple)
        return in_edges

    def find_paths(
        self, start: EntityId, goal: EntityId, max_len: int = 3
    ) -> list[list[Triple]]:
        """All directed simple paths from start to goal up to max_len edges.

        Intermediate entities never repeat and never revisit either
        endpoint. Results are ordered by (length, lexicographic triple
        sequence).

        The search meets in the middle. A backward walk from goal over the
        in-edge index collects every suffix of up to ``max_len // 2`` edges
        (see _suffixes). A forward walk from start takes the remaining hops:
        a path ends at its first edge into goal, and at the last forward hop
        the prefix joins each suffix recorded for the entity it reached whose
        intermediates it has not visited. The in-edge index (tail -> triples,
        in adjacency order) is built by the first call that walks backward,
        never by loading.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        backward_hops = max_len // 2
        forward_hops = max_len - backward_hops
        suffixes = self._suffixes(goal, backward_hops) if backward_hops else {}
        adjacency = self.adjacency
        paths: list[list[Triple]] = []

        def walk(node: EntityId, visited: set[EntityId], chain: list[Triple]) -> None:
            if len(chain) + 1 == forward_hops:
                for triple in adjacency.get(node, ()):
                    tail = triple[2]
                    if tail == goal:
                        paths.append(chain + [triple])
                    elif tail in suffixes and tail not in visited:
                        prefix = chain + [triple]
                        paths.extend(
                            prefix + suffix
                            for suffix, inside in suffixes[tail]
                            if inside.isdisjoint(visited)
                        )
                return
            for triple in adjacency.get(node, ()):
                tail = triple[2]
                if tail == goal:
                    paths.append(chain + [triple])
                elif tail not in visited:
                    visited.add(tail)
                    chain.append(triple)
                    walk(tail, visited, chain)
                    chain.pop()
                    visited.discard(tail)

        walk(start, {start}, [])
        paths.sort(key=lambda p: (len(p), p))
        return paths

    def _suffixes(
        self, goal: EntityId, hops: int
    ) -> dict[EntityId, list[tuple[list[Triple], frozenset[EntityId]]]]:
        """First entity -> [(suffix, intermediates)], the backward half of find_paths.

        A suffix is a simple path of 1..hops edges whose last edge, and only
        that one, enters goal. Its intermediates are the entities strictly
        between its first entity and goal, so never the first entity itself.
        """
        in_edges = self._in_edges
        suffixes: dict[EntityId, list[tuple[list[Triple], frozenset[EntityId]]]] = {}

        def walk(node: EntityId, inside: frozenset[EntityId], suffix: list[Triple]) -> None:
            # inside: the intermediates of every suffix that starts one edge before node
            for triple in in_edges.get(node, ()):
                head = triple[0]
                if head == goal or head in inside:
                    continue
                longer = [triple] + suffix
                suffixes.setdefault(head, []).append((longer, inside))
                if len(longer) < hops:
                    walk(head, inside | {head}, longer)

        walk(goal, frozenset(), [])
        return suffixes


def _as_text(raw: str | bytes) -> str:
    return raw.decode("utf-8") if isinstance(raw, bytes) else raw


def source_path(source: str | Path | IO | Iterable[str | bytes]) -> str | Path | None:
    """The path an InputError names for ``source``: itself if it is one, else None."""
    return source if isinstance(source, (str, Path)) else None


def numbered_text_lines(
    source: str | Path | IO | Iterable[str | bytes],
) -> Iterator[tuple[int, str]]:
    """Each line of ``source`` with its 1-based number, as text.

    A path is read in binary and each line decoded as UTF-8 on its own, as
    is each bytes line of another source. A line that is not UTF-8 raises
    InputError "not valid UTF-8", naming the file when the source is a path;
    a text-mode handle decodes by chunk, so for it the number is that of the
    first line it failed to return.
    """
    path = source_path(source)
    number = 0
    try:
        if path is not None:
            with open(path, "rb") as handle:
                for number, line in enumerate(map(bytes.decode, handle), start=1):
                    yield number, line
            return
        for number, line in enumerate(map(_as_text, source), start=1):
            yield number, line
    except UnicodeDecodeError:
        raise InputError("not valid UTF-8", number + 1, path) from None


def _check_fields(
    fields: list[str], width: int, id_kinds: tuple[str, ...],
    line_number: int, path: str | Path | None,
) -> None:
    """Raise the InputError of a row: its width first, then each id field in order."""
    if len(fields) != width:
        raise InputError(
            f"expected {width} tab-separated fields, got {len(fields)}", line_number, path
        )
    for value, kind in zip(fields, id_kinds):
        if not value:
            raise InputError(f"empty {kind} field", line_number, path)
        if "\n" in value or "\r" in value:
            raise InputError(f"{kind} contains tab or newline", line_number, path)


def _tsv_rows(
    source: str | Path | IO | Iterable[str | bytes], width: int, id_kinds: tuple[str, ...]
) -> Iterator[list[str]]:
    """The fields of each non-blank line, which must be exactly ``width``.

    The leading ``len(id_kinds)`` fields are ids: none may be empty or hold a
    newline or carriage return (a tab would have split the line). Any later
    field is free text. Each line gets one cheap test; only a line that fails
    it goes through _check_fields, which raises the detailed error, naming
    the file when the source is a path. A line that is not UTF-8 raises
    InputError too, from numbered_text_lines.
    """
    path = source_path(source)
    checked = len(id_kinds)
    for number, line in numbered_text_lines(source):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if checked == width:
            ids, text = fields, line
        else:
            ids = fields[:checked]
            text = "\t".join(ids)
        if len(fields) != width or "" in ids or "\r" in text or "\n" in text:
            _check_fields(fields, width, id_kinds, number, path)
        yield fields


def load_triples(
    source: str | Path | IO | Iterable[str | bytes],
    labels: str | Path | IO | Iterable[str | bytes] | None = None,
) -> KnowledgeGraph:
    """Build a graph from TSV lines ``head<TAB>relation<TAB>tail``, labeled
    from the ``labels`` source (read by load_labels after the triples) if given.

    Blank lines are skipped; duplicate triples collapse; first-seen order
    is preserved in adjacency lists. Each line is decoded as UTF-8 on its
    own and gets one test: three fields, none empty, no newline or carriage
    return. Only a line that fails it is checked field by field, to raise a
    InputError naming the line and the first fault (the width, then
    the head, relation and tail).

    Every edge is a plain tuple of interned strings, so the garbage
    collector untracks it at its first collection (see Triple).
    """
    intern = sys.intern
    edges = dict.fromkeys(
        (intern(head), intern(relation), intern(tail))
        for head, relation, tail in _tsv_rows(source, 3, ("head", "relation", "tail"))
    )
    adjacency: dict[EntityId, list[Triple]] = {}
    for triple in edges:
        adjacency.setdefault(triple[0], []).append(triple)
    return KnowledgeGraph(adjacency, load_labels(labels) if labels is not None else {})


def load_labels(source: str | Path | IO | Iterable[str | bytes]) -> dict[str, str]:
    """The label map of TSV lines ``id<TAB>label``.

    Later lines overwrite earlier labels for the same id. Only the id is
    checked; a label may be empty or hold a carriage return.
    """
    labels: dict[str, str] = {}
    for identifier, label in _tsv_rows(source, 2, ("id",)):
        labels[sys.intern(identifier)] = label
    return labels


def dump_triples(kg: KnowledgeGraph) -> Iterator[str]:
    """TSV lines in adjacency order; load_triples(dump_triples(kg)) == kg."""
    for triples in kg.adjacency.values():
        for triple in triples:
            yield "\t".join(triple) + "\n"


def extract_khop_subgraph(
    kg: KnowledgeGraph, seeds: Iterable[EntityId], k: int
) -> KnowledgeGraph:
    """All triples reachable by following head->tail edges for at most k steps.

    The frontier after each step is the set of tails just reached; labels in
    the result are restricted to the ids that survive. Each entity is expanded
    at most once, so the result holds a copy of its whole edge list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    adjacency: dict[EntityId, list[Triple]] = {}
    frontier = list(dict.fromkeys(seeds))
    visited = set(frontier)
    for _ in range(k):
        next_frontier: list[EntityId] = []
        for entity in frontier:
            triples = kg.adjacency.get(entity)
            if not triples:
                continue
            adjacency[entity] = list(triples)
            for _, _, tail in triples:
                if tail not in visited:
                    visited.add(tail)
                    next_frontier.append(tail)
        if not next_frontier:
            break
        frontier = next_frontier
    labels: dict[str, str] = {}
    for triples in adjacency.values():
        for triple in triples:
            for identifier in triple:
                if identifier in kg.labels:
                    labels[identifier] = kg.labels[identifier]
    return KnowledgeGraph(adjacency, labels)


def save_kg(kg: KnowledgeGraph, directory: str | Path) -> None:
    """Write triples.tsv and labels.tsv under a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / TRIPLES_FILENAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(dump_triples(kg))
    with open(directory / LABELS_FILENAME, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{identifier}\t{label}\n" for identifier, label in kg.labels.items())


def load_kg(directory: str | Path) -> KnowledgeGraph:
    """Load a graph saved by save_kg; labels.tsv is optional."""
    labels = Path(directory) / LABELS_FILENAME
    return load_triples(Path(directory) / TRIPLES_FILENAME, labels if labels.exists() else None)
