"""In-memory triple store: TSV loading, neighbor and path queries, and k-hop
subgraph extraction.

A graph is built in one step, by load_triples (edges and optional labels) or
extract_khop_subgraph, each calling the KnowledgeGraph constructor once, and
never changes afterwards, so it may be shared freely across threads.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, compress, repeat
from operator import itemgetter, ne, rshift
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

EntityId = str
RelationId = str

TRIPLES_FILENAME = "triples.tsv"
LABELS_FILENAME = "labels.tsv"

# The bytes a TSV loader reads at a time, in whole lines (see _tsv_fields).
# The list a block of triples splits into is at most six times as large, so
# it stays under glibc's 128 KiB mmap threshold: freeing a larger buffer
# raises that threshold, and with 64 KiB blocks the heap then fragmented so
# that cold-start peak RSS grew by 5%.
_BLOCK_BYTES = 1 << 14


class InputError(ValueError):
    """A malformed input file or line, "<path>: line N: <message>"; carries
    the 1-based line number."""

    def __init__(self, message: str, line_number: int, path: str | Path) -> None:
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


# One directed edge (head, relation, tail), read by position. The graph
# stores no edge as an object (see KnowledgeGraph); get_neighbors and
# find_paths build each one they return as a plain tuple, never a tuple
# subclass.
Triple = tuple[EntityId, RelationId, EntityId]

# the tails of a flat [relation, tail, ...] list, or the relations of a flat
# [head, relation, ...] one
_odd_items = itemgetter(slice(1, None, 2))


def _pairs(flat: list[str]) -> Iterator[tuple[str, str]]:
    """The items of a flat list two at a time: (relation, tail) or (head, relation)."""
    items = iter(flat)
    return zip(items, items)


@dataclass
class KnowledgeGraph:
    """Directed labeled graph with head-indexed adjacency and a label map.

    Adjacency is the only edge store. It maps each head to one flat list
    ``[relation1, tail1, relation2, tail2, ...]`` of its out-edges, in
    first-seen load order, and no list holds an edge twice. No edge is an
    object of its own: it costs two list slots (16 bytes), where a triple
    tuple cost 64 bytes and a slot. A ``(head, relation, tail)`` tuple is
    built only when a caller reads an edge.
    """

    adjacency: dict[EntityId, list[str]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

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
        label = self.labels.get
        return ", ".join(f"{i}: {label(i, i)}" for i in dict.fromkeys(identifiers))

    def get_neighbors(self, entity: EntityId, limit: int | None = None) -> list[Triple]:
        """A fresh list of the triples with the given entity as head, in
        load order.

        Unknown entities yield an empty list. ``limit`` truncates hub
        entities; None means unlimited, and a negative limit is refused.
        """
        edges = self.adjacency.get(entity, ())
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            if 2 * limit < len(edges):
                edges = edges[: 2 * limit]
        items = iter(edges)
        return list(zip(repeat(entity), items, items))

    @cached_property
    def _in_edges(self) -> dict[EntityId, list[str]]:
        """Tail -> flat ``[head, relation, ...]`` list of its in-edges, in
        adjacency order; stored only once whole, so threads never see a
        partial index; no field, so == and repr ignore it."""
        in_edges: dict[EntityId, list[str]] = {}
        for head, edges in self.adjacency.items():
            for relation, tail in _pairs(edges):
                in_edges.setdefault(tail, []).extend((head, relation))
        return in_edges

    def find_paths(self, start: EntityId, goal: EntityId, max_len: int) -> list[list[Triple]]:
        """All directed simple paths from start to goal up to max_len edges.

        Intermediate entities never repeat and never revisit either
        endpoint. Results are ordered by (length, lexicographic triple
        sequence).

        The search meets in the middle. A backward walk from goal over the
        in-edge index collects every suffix of up to ``max_len // 2`` edges
        (see _suffixes). A forward walk from start takes the remaining hops,
        and a path ends at its first edge into goal. At the last forward hop
        only an edge into goal or into the first entity of a suffix can end
        a path, so ``compress``, by a membership test over the entity's
        tails, picks the places of just those edges in its flat list, with
        no Python step per edge; the prefix then joins each suffix recorded
        for the entity it reached whose intermediates it has not visited. An
        edge becomes a triple tuple only once a walk takes it.

        Paths are gathered in one list per length, and each list is sorted
        without a key: lists of one length compare triple by triple, so the
        sorted lists, shortest first, are in (length, sequence) order.

        The in-edge index (tail -> flat [head, relation, ...] list, in
        adjacency order) is the only index beside adjacency; the first call
        that walks backward builds it, loading never does. An index of each
        head's edges by tail would spare the last hop's scan but hold every
        edge once more, for no speed over ``compress``.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        backward_hops = max_len // 2
        forward_hops = max_len - backward_hops
        suffixes = self._suffixes(goal, backward_hops) if backward_hops else {}
        ends = {goal, *suffixes}
        adjacency = self.adjacency
        # by_length[n]: the paths of n edges; joined[n]: those whose suffix has n edges
        by_length: list[list[list[Triple]]] = [[] for _ in range(max_len + 1)]
        joined = by_length[forward_hops:]

        def walk(node: EntityId, visited: set[EntityId], chain: list[Triple]) -> None:
            found = by_length[len(chain) + 1]
            edges = adjacency.get(node, ())
            if len(chain) + 1 == forward_hops:
                ending = map(ends.__contains__, _odd_items(edges))
                for at in compress(range(1, len(edges), 2), ending):
                    tail = edges[at]
                    triple = (node, edges[at - 1], tail)
                    if tail == goal:
                        found.append(chain + [triple])
                    elif tail not in visited:
                        for suffix, inside in suffixes[tail]:
                            if inside.isdisjoint(visited):
                                joined[len(suffix)].append([*chain, triple, *suffix])
                return
            for relation, tail in _pairs(edges):
                triple = (node, relation, tail)
                if tail == goal:
                    found.append(chain + [triple])
                elif tail not in visited:
                    visited.add(tail)
                    chain.append(triple)
                    walk(tail, visited, chain)
                    chain.pop()
                    visited.discard(tail)

        walk(start, {start}, [])
        paths: list[list[Triple]] = []
        for found in by_length:
            found.sort()
            paths += found
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
            for head, relation in _pairs(in_edges.get(node, ())):
                if head == goal or head in inside:
                    continue
                longer = [(head, relation, node)] + suffix
                suffixes.setdefault(head, []).append((longer, inside))
                if len(longer) < hops:
                    walk(head, inside | {head}, longer)

        walk(goal, frozenset(), [])
        return suffixes


def numbered_text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of the file at ``path`` with its 1-based number, as text.

    Each line is decoded as UTF-8 on its own; one that is not raises
    InputError "not valid UTF-8".
    """
    with open(path, "rb") as handle:
        yield from _numbered_lines(handle, 1, path)


R = TypeVar("R")


def json_object(name: str, value: object) -> dict:
    """``value`` if it is a JSON object; else ValueError "<name> must be a JSON
    object, got <its JSON kind>"."""
    if not isinstance(value, dict):
        kind = "null" if value is None else type(value).__name__
        raise ValueError(f"{name} must be a JSON object, got {kind}")
    return value


def load_json_records(path: str | Path, kind: str, build: Callable[[dict], R]) -> list[R]:
    """``build`` of the JSON object on each non-blank line of the file at ``path``.

    Lines are read by numbered_text_lines. A line that is not JSON (nested too
    deeply to decode included), not an object, or that ``build`` refuses
    raises InputError "bad <kind>: <reason>": ``build`` raises KeyError for a
    missing field, which reads "missing field '<name>'", and ValueError for a
    bad value.
    """
    built: list[R] = []
    for number, line in numbered_text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            built.append(build(json_object(f"a {kind}", json.loads(line))))
        except KeyError as exc:
            raise InputError(f"bad {kind}: missing field {exc}", number, path) from exc
        except (ValueError, RecursionError) as exc:  # json.JSONDecodeError too
            raise InputError(f"bad {kind}: {exc}", number, path) from exc
    return built


def _numbered_lines(
    lines: Iterable[bytes], number: int, path: str | Path
) -> Iterator[tuple[int, str]]:
    """Each of ``lines``, the first of which is line ``number``, as text."""
    for number, line in enumerate(lines, start=number):
        try:
            text = line.decode()
        except UnicodeDecodeError:
            raise InputError("not valid UTF-8", number, path) from None
        yield number, text


def _split_block(block: list[bytes], width: int, empty_id: str) -> list[str] | None:
    """The fields of a block that passes the cheap test, else None.

    The block must be UTF-8, hold no carriage return but in a CRLF line end,
    and end in a newline. Every line of a block but a file's last ends in its
    one newline (see _tsv_fields), so each line then does. Each newline then
    becomes a field of its own, between tabs: no line is blank and no id
    empty when the text starts with no tab and holds no ``empty_id``, and
    each line has exactly ``width`` fields when the newlines sit at every
    ``width + 1``-th place.
    """
    try:
        text = b"".join(block).decode()
    except UnicodeDecodeError:
        return None
    if "\r" in text:  # a CRLF line end reads as LF; any other carriage return fails
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n") or "\r" in text:
        return None
    text = text.replace("\n", "\t\n\t")
    if text.startswith("\t") or empty_id in text:
        return None
    lines = len(block)
    fields = text.split("\t")
    if len(fields) != (width + 1) * lines + 1 or fields[width :: width + 1] != ["\n"] * lines:
        return None
    del fields[width :: width + 1]
    fields.pop()  # the empty field after the last newline
    return fields


def _checked_fields(
    block: list[bytes], number: int, width: int, id_kinds: tuple[str, ...], path: str | Path
) -> list[str]:
    """The fields of a block whose first line is line ``number``, line by line.

    Each non-blank line is checked in full and the first bad one raises its
    InputError: for its width first, then for each id field in order.
    """
    fields: list[str] = []
    for number, line in _numbered_lines(block, number, path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        row = line.split("\t")
        if len(row) != width:
            raise InputError(
                f"expected {width} tab-separated fields, got {len(row)}", number, path
            )
        for value, kind in zip(row, id_kinds):
            if not value:
                raise InputError(f"empty {kind} field", number, path)
            if "\r" in value:
                raise InputError(f"{kind} contains tab or newline", number, path)
        fields += row
    return fields


def _tsv_fields(path: str | Path, width: int, id_kinds: tuple[str, ...]) -> Iterator[list[str]]:
    """The fields of each block of the file at ``path``, ``width`` per non-blank line.

    The file is read in binary by ``readlines``, in runs of whole lines of
    about _BLOCK_BYTES, so every line but the file's last ends in a newline.
    The leading ``len(id_kinds)`` fields are ids (all of them, or the first
    only): none may be empty or hold a carriage return (a tab would have
    split the line). A later field is free text. A block that fails
    _split_block's cheap test is read line by line by _checked_fields, which
    raises the InputError of its first bad line.
    """
    # once each newline is padded with tabs, two tabs in a row are an empty
    # field or a blank line; where only the first field is an id, they count
    # only right after a newline
    empty_id = "\t\t" if len(id_kinds) == width else "\n\t\t"
    number = 1
    with open(path, "rb") as handle:
        for block in iter(partial(handle.readlines, _BLOCK_BYTES), []):
            # unnamed: the next block is split once its consumer frees this one's fields
            yield _split_block(block, width, empty_id) or _checked_fields(
                block, number, width, id_kinds, path
            )
            number += len(block)


def load_triples(path: str | Path, labels: str | Path | None = None) -> KnowledgeGraph:
    """Build a graph from the TSV file at ``path``, one ``head<TAB>relation<TAB>tail``
    a line, labeled from the ``labels`` file (read by load_labels after the
    triples) if given.

    Blank lines are skipped; duplicate triples collapse; first-seen order
    is preserved in adjacency lists. The lines are read a block at a time,
    and each block gets one cheap test (see _split_block): three fields a
    line, none empty, no carriage return but in a CRLF line end. Only a
    block that fails it is checked line by line, to raise an InputError
    naming the line and the first fault (the width, then the head, relation
    and tail).

    Each line's interned relation and tail go straight onto its head's flat
    list (see KnowledgeGraph), so the load builds no object per edge and no
    table over every edge. Only a head whose list repeats a tail can repeat
    an edge, so a set of each list's tails picks the heads whose pairs are
    then checked (few, but most of a dense graph's), and only a list that
    holds a repeat is rebuilt without it. Peak memory is the graph plus one block, and stays flat
    across reloads.
    """
    adjacency: dict[EntityId, list[str]] = {}
    get = adjacency.get
    # only a list iterator holds a block's fields, and it frees them once exhausted
    blocks = _tsv_fields(path, 3, ("head", "relation", "tail"))
    for interned in map(partial(map, sys.intern), blocks):
        for head, relation, tail in zip(interned, interned, interned):
            edges = get(head)
            if edges is None:
                adjacency[head] = [relation, tail]
            else:
                edges += relation, tail
    lists = adjacency.values()
    edge_counts = map(rshift, map(len, lists), repeat(1))
    tail_counts = map(len, map(set, map(_odd_items, lists)))
    for head in list(compress(adjacency, map(ne, edge_counts, tail_counts))):
        pairs = dict.fromkeys(_pairs(adjacency[head]))
        if len(pairs) < len(adjacency[head]) // 2:
            adjacency[head] = list(chain.from_iterable(pairs))
    return KnowledgeGraph(adjacency, load_labels(labels) if labels is not None else {})


def load_labels(path: str | Path) -> dict[str, str]:
    """The label map of the TSV file at ``path``, one ``id<TAB>label`` a line,
    read like load_triples.

    Later lines overwrite earlier labels for the same id. Only the id is
    checked; a label may be empty or hold a carriage return.
    """
    labels: dict[str, str] = {}
    for fields in map(iter, _tsv_fields(path, 2, ("id",))):  # freed as in load_triples
        labels.update(zip(map(sys.intern, fields), fields))
    return labels


def dump_triples(kg: KnowledgeGraph) -> Iterator[str]:
    """TSV lines in adjacency order, as save_kg writes them: load_kg after
    save_kg gives the graph back."""
    for head, edges in kg.adjacency.items():
        for relation, tail in _pairs(edges):
            yield f"{head}\t{relation}\t{tail}\n"


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
    adjacency: dict[EntityId, list[str]] = {}
    frontier = list(dict.fromkeys(seeds))
    visited = set(frontier)
    for _ in range(k):
        next_frontier: list[EntityId] = []
        for entity in frontier:
            edges = kg.adjacency.get(entity)
            if not edges:
                continue
            adjacency[entity] = edges.copy()
            for tail in _odd_items(edges):
                if tail not in visited:
                    visited.add(tail)
                    next_frontier.append(tail)
        if not next_frontier:
            break
        frontier = next_frontier
    labels: dict[str, str] = {}
    for head, edges in adjacency.items():
        for identifier in chain((head,), edges):
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
